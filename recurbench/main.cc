// recurbench: the recur benchmark driver.
//
//   recurbench --workload <materialize|paper_queries|resident> --seed <n>
//              --seconds <s> --trace <0|1>
//   recurbench --selftest     (each checker rejects a perturbed answer)
//   recurbench --explain      (physical plans of the multijoin rule, and
//                              the compiled-vs-semi-naive gap on s1a)
//
// Every workload runs all three phases — materialize, paper_queries and
// resident — so every metric is measured on every workload; the named
// workload's phase gets kMainShare of the measured time and the other two
// share the rest. Each phase runs one warm-up round, then whole rounds,
// interleaved, until the time is spent. The process stays on one CPU and
// scales its operation medians by a calibration kernel (see below). The
// last line of standard output is the JSON result; with --trace 1 it
// carries the per-layer metrics, and the spans go to .bench_out/.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <sched.h>
#include <unistd.h>

#include "bench.h"

namespace recurbench {
namespace {

// Taken during static initialization, before main: set-up time counts
// from (very nearly) the start of the process.
const Clock::time_point kProcessStart = Clock::now();

constexpr double kMainShare = 0.6;

// Host-speed correction. The host is a shared VM whose speed drifts by tens
// of percent over minutes, uniformly across every operation (other
// tenants). A fixed kernel of the benchmark's own — hash-table inserts and
// probes in 512 KiB, the library's kind of work but none of its code — runs
// between rounds every kCalibrateEvery seconds, twice, timed warm. Each
// end-to-end operation metric is its raw median scaled by
// kReferenceKernelSeconds / (the run's median kernel time): its value at
// the reference host's calm speed. setup_s is scaled the same way by the
// median of kSetupKernelCalls kernel calls made right after the set-up.
// Raw figures go to standard error, and the traced run reports both
// divisors. The correction divides out whatever slows the whole pinned
// CPU, the library included: a slowdown of that kind does not show here.
// The kernel's table fits in L2, so contention for L3 or memory, which
// the larger fixpoints feel, moves the operations but not the kernel.
constexpr double kCalibrateEvery = 0.05;
constexpr double kReferenceKernelSeconds = 0.4e-3;
constexpr int kSetupKernelCalls = 5;

double CalibrationKernel() {
  static std::vector<uint64_t> table(1u << 16);
  static uint64_t salt = 0;
  double seconds = 0;
  for (int pass = 0; pass < 2; ++pass) {
    ++salt;
    seconds = TimeOp([&] {
      std::fill(table.begin(), table.end(), 0);
      uint64_t found = 0;
      for (uint64_t i = 1; i <= 20000; ++i) {
        const uint64_t h = Mix64(i ^ (salt << 40)) | 1;
        size_t slot = h & (table.size() - 1);
        while (table[slot] != 0) slot = (slot + 1) & (table.size() - 1);
        table[slot] = h;
      }
      for (uint64_t i = 1; i <= 20000; ++i) {
        const uint64_t h = Mix64((i * 3) ^ (salt << 40)) | 1;
        size_t slot = h & (table.size() - 1);
        while (table[slot] != 0 && table[slot] != h) slot = (slot + 1) & (table.size() - 1);
        found += table[slot] == h;
      }
      table[0] = found;  // keeps the probe loop observable
    });
  }
  return seconds;
}

// Keeps the process, and the server's committer thread it starts later, on
// the CPU it started on: a write's hand-off to the committer is then a
// local context switch, not a cross-CPU wake-up whose latency depends on
// the hypervisor, and the calibration kernel runs where the operations run.
void PinToStartCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    std::cerr << "recurbench: could not pin to CPU " << cpu << "; running unpinned\n";
  }
}

constexpr int kMinRounds = 3;
constexpr size_t kWrittenSpans = 20000;

struct Metric {
  const char* name;
  const char* unit;
};

// End-to-end metrics: host-corrected medians of untraced samples, plus
// setup_s (one cold set-up, disk sync included, corrected by the kernel
// timed right after it).
constexpr Metric kEndToEnd[] = {
    {"tc_random_ms", "ms"},     {"tc_grid_ms", "ms"},
    {"multijoin_ms", "ms"},     {"compile_us", "us"},
    {"stable_query_us", "us"},  {"bounded_query_us", "us"},
    {"insert_ms", "ms"},        {"delete_ms", "ms"},
    {"read_iterate_us", "us"},  {"read_filter_us", "us"},
    {"read_inline_us", "us"},
};

// Per-layer metrics, from the traced run.
constexpr Metric kPerLayer[] = {
    {"datalog.parse_us", "us"},
    {"classify.classify_us", "us"},
    {"transform.plan_us", "us"},
    {"classify.analyze_program_us", "us"},
    {"eval.compiled_levels", "count"},
    {"eval.compiled_tuples_considered", "count"},
    {"eval.iterations", "count"},
    {"eval.tuples_considered", "count"},
    {"eval.tuples_produced", "count"},
    {"eval.dedup_yield", "ratio"},
    {"plan.join_probes", "count"},
    {"plan.batches", "count"},
    {"plan.plans_executed", "count"},
    {"plan.bloom_skip_ratio", "ratio"},
    {"ra.insert_ns_per_row", "ns"},
    {"ra.probe_ns_per_key", "ns"},
    {"ra.arena_bytes", "bytes"},
    {"server.maint_iterations", "count"},
    {"server.maint_join_probes", "count"},
    {"server.wal_encode_us", "us"},
    {"server.plan_cache_hit_ratio", "ratio"},
    {"server.group_commit_ms", "ms"},
    {"server.batches_per_group", "count"},
    {"server.delete_vs_recompute", "ratio"},
    {"server.bootstrap_s", "s"},
    {"server.snapshot_save_ms", "ms"},
    {"server.recover_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
    {"host.kernel_us", "us"},
    {"host.setup_kernel_us", "us"},
};

// Per-layer metrics read off the spans: median self time per call.
constexpr std::pair<const char*, const char*> kSpanMetrics[] = {
    {"datalog.parse_us", "datalog.ParseRule"},
    {"classify.classify_us", "classify.Classify"},
    {"transform.plan_us", "eval.PlanGenerator.Plan"},
};

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void WriteTrace(const Context& ctx, const std::string& workload,
                const std::map<std::string, std::vector<double>>& self_us) {
  std::filesystem::create_directories(".bench_out");
  const std::string path =
      ".bench_out/trace-" + workload + "-seed" + std::to_string(ctx.seed) + ".json";
  std::ofstream out(path);
  out << "{\"workload\": " << JsonString(workload) << ", \"seed\": " << ctx.seed
      << ",\n \"self_time_us\": {";
  bool first = true;
  for (const auto& [name, v] : self_us) {
    double sum = 0;
    for (double x : v) sum += x;
    out << (first ? "" : ",") << "\n  " << JsonString(name) << ": {\"count\": " << v.size()
        << ", \"median\": " << Number(Median(v)) << ", \"total\": " << Number(sum) << "}";
    first = false;
  }
  // The self times above cover every span; the file lists the first
  // kWrittenSpans of them, which is enough to read the structure of each
  // operation without writing tens of megabytes per run.
  const auto& spans = ctx.tracer.spans();
  out << "},\n \"span_count\": " << spans.size() << ",\n \"spans\": [";
  for (size_t i = 0; i < std::min(spans.size(), kWrittenSpans); ++i) {
    const Span& s = spans[i];
    out << (i ? "," : "") << "\n  {\"name\": " << JsonString(s.name)
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}";
  }
  out << "\n]}\n";
}

int Run(const std::string& workload, uint64_t seed, double seconds, bool trace) {
  PinToStartCpu();
  Context ctx;
  ctx.seed = seed;
  ctx.trace = trace;
  ctx.tmp_dir = ".bench_tmp/run-" + std::to_string(::getpid());
  std::vector<std::unique_ptr<Phase>> phases;
  phases.push_back(MakeMaterialize());
  phases.push_back(MakePaperQueries());
  phases.push_back(MakeResident());
  bool known = false;
  for (const auto& p : phases) known |= workload == p->name();
  if (!known) {
    std::cerr << "unknown workload '" << workload << "'\n";
    return 2;
  }

  // Progress goes to standard error; standard output carries the result.
  auto stage = [](const char* what, const Phase& p, Clock::time_point t0) {
    std::cerr << "[" << what << "] " << p.name() << " " << SecondsSince(t0) << " s\n";
  };
  for (auto& p : phases) {
    const auto t0 = Clock::now();
    p->Setup(&ctx);
    stage("setup", *p, t0);
  }
  const double setup_raw_s = SecondsSince(kProcessStart);
  // The set-up is one cold sample of about 10 ms, so the host's speed at
  // that moment, not over the run, is what it needs correcting by.
  std::vector<double> setup_kernel;
  for (int i = 0; i < kSetupKernelCalls; ++i) setup_kernel.push_back(CalibrationKernel());
  const double setup_s = setup_raw_s * kReferenceKernelSeconds / Median(setup_kernel);
  std::cerr << "[host] set-up " << setup_raw_s << " s raw, kernel median "
            << Median(setup_kernel) * 1e3 << " ms after it; setup_s " << setup_s << "\n";
  for (auto& p : phases) {
    const auto t0 = Clock::now();
    p->Prepare(&ctx);
    stage("prepare", *p, t0);
  }

  // One warm-up round per phase, then whole rounds interleaved across the
  // phases: each step runs a round of the phase furthest behind its time
  // share, so every metric's samples spread over the whole run and a slow
  // spell of the host touches all of them alike.
  const size_t n = phases.size();
  std::vector<double> share(n), spent(n, 0.0);
  std::vector<int> rounds(n, 1);
  for (size_t i = 0; i < n; ++i) {
    share[i] = workload == phases[i]->name() ? kMainShare : (1 - kMainShare) / (n - 1);
    phases[i]->Round(&ctx, 0);
  }
  std::vector<double> kernel;
  auto last_kernel = Clock::now();
  const auto t0 = Clock::now();
  while (true) {
    if (SecondsSince(last_kernel) >= kCalibrateEvery) {
      kernel.push_back(CalibrationKernel());
      last_kernel = Clock::now();
    }
    size_t next = 0;
    for (size_t i = 1; i < n; ++i) {
      if (spent[i] / share[i] < spent[next] / share[next]) next = i;
    }
    const auto t1 = Clock::now();
    ctx.recording = true;
    ctx.tracer.enabled = trace && rounds[next] % 2 == 1;
    phases[next]->Round(&ctx, rounds[next]++);
    spent[next] += SecondsSince(t1);
    if (SecondsSince(t0) >= seconds &&
        *std::min_element(rounds.begin(), rounds.end()) > kMinRounds) {
      break;
    }
  }
  ctx.tracer.enabled = false;
  ctx.recording = false;
  if (kernel.empty()) kernel.push_back(CalibrationKernel());  // a very short run
  const double correction = kReferenceKernelSeconds / Median(kernel);
  std::cerr << "[host] kernel median " << Median(kernel) * 1e3 << " ms over " << kernel.size()
            << " calls; correction " << correction << "\n";
  for (size_t i = 0; i < n; ++i) {
    std::cerr << "[rounds] " << phases[i]->name() << " " << rounds[i] - 1 << " in "
              << spent[i] << " s\n";
    const auto t1 = Clock::now();
    phases[i]->Finish(&ctx);
    stage("finish", *phases[i], t1);
  }
  std::filesystem::remove_all(ctx.tmp_dir);

  Report& report = ctx.report;
  std::map<std::string, std::pair<double, std::string>> metrics;
  if (!trace) {
    metrics["setup_s"] = {setup_s, "s"};
    for (const Metric& m : kEndToEnd) {
      if (report.samples[m.name].empty()) report.Fail(std::string("no samples of ") + m.name);
      metrics[m.name] = {Median(report.samples[m.name]) * correction, m.unit};
    }
  } else {
    const auto self_us = ctx.tracer.SelfTimesUs();
    for (const auto& [metric, span] : kSpanMetrics) {
      auto it = self_us.find(span);
      report.layer[metric] = it == self_us.end() ? 0.0 : Median(it->second);
    }
    // Tracing overhead: traced over untraced medians, geometric mean over
    // the end-to-end metrics.
    double log_sum = 0;
    int compared = 0;
    for (const Metric& m : kEndToEnd) {
      const auto& on = report.traced[m.name];
      const auto& off = report.samples[m.name];
      if (on.empty() || off.empty()) continue;
      log_sum += std::log(Median(on) / Median(off));
      ++compared;
    }
    report.layer["trace.overhead_ratio"] = compared > 0 ? std::exp(log_sum / compared) : 1.0;
    // The divisors of the host-speed correction, so that a comparison can
    // see when the correction, rather than the library, moved.
    report.layer["host.kernel_us"] = Median(kernel) * 1e6;
    report.layer["host.setup_kernel_us"] = Median(setup_kernel) * 1e6;
    for (const Metric& m : kPerLayer) {
      if (report.layer.count(m.name) == 0) report.Fail(std::string("no value of ") + m.name);
      metrics[m.name] = {report.layer[m.name], m.unit};
    }
    WriteTrace(ctx, workload, self_us);
  }

  for (const auto& [name, v] : report.samples) {
    std::cerr << "[samples] " << name << " " << v.size() << " raw median " << Median(v) << "\n";
  }
  for (const std::string& e : report.errors) std::cerr << "CHECK FAILED: " << e << "\n";
  const bool correct = report.errors.empty();
  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    line << (first ? "" : ", ") << JsonString(name) << ": {\"value\": " << Number(vu.first)
         << ", \"unit\": " << JsonString(vu.second) << "}";
    first = false;
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace recurbench

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : "";
    if (arg == "--selftest") return recurbench::RunSelfTest() == 0 ? 0 : 1;
    if (arg == "--explain") {
      recurbench::ExplainMultijoin();
      recurbench::CompiledVsSemiNaiveGap();
      return 0;
    }
    if (arg == "--workload") {
      workload = next;
    } else if (arg == "--seed") {
      seed = std::strtoull(next, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(next, nullptr);
    } else if (arg == "--trace") {
      trace = std::strcmp(next, "0") != 0;
    } else {
      std::cerr << "unknown argument " << arg << "\n";
      return 2;
    }
    ++i;
  }
  try {
    return recurbench::Run(workload, seed, seconds, trace);
  } catch (const std::exception& e) {
    std::cerr << "recurbench: " << e.what() << "\n";
    return 2;
  }
}
