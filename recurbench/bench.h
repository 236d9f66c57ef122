// Shared pieces of the recur benchmark: seeded input generation, timing,
// the span tracer, the run report, and the independent reference
// computations every phase checks the library's outputs against.
//
// Nothing here calls into the library except to read its outputs
// (ra::Relation rows) — the references are computed from the benchmark's
// own copies of the inputs.

#ifndef RECURBENCH_BENCH_H_
#define RECURBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "classify/classifier.h"
#include "ra/relation.h"

namespace recurbench {

using Clock = std::chrono::steady_clock;
using Value = int64_t;
using Tuple = std::vector<Value>;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Seeded randomness (splitmix64: small, fast, and independent of the
// library's own generators).

inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(Mix64(seed ^ 0x5eedbe4c4ull)) {}
  uint64_t Next() { return Mix64(state_++); }
  // Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[Below(i)]);
  }

 private:
  uint64_t state_;
};

// A random permutation of [0, n) mapped onto distinct labels drawn from a
// wide range: the structure of an input stays fixed while every seed gives
// it different values (and so different hash layouts).
std::vector<Value> RandomLabels(size_t n, Rng* rng);

// ---------------------------------------------------------------------------
// Order-independent set digests. A digest is the tuple count plus the sum
// of a 64-bit mix of every tuple, so row order never matters and a dropped,
// added or altered tuple changes it.

struct Digest {
  uint64_t count = 0;
  uint64_t sum = 0;
  void Add(const Value* t, size_t n) {
    uint64_t h = 0x243f6a8885a308d3ull ^ n;
    for (size_t i = 0; i < n; ++i) h = Mix64(h ^ static_cast<uint64_t>(t[i]));
    sum += Mix64(h);
    ++count;
  }
  void Add(const Tuple& t) { Add(t.data(), t.size()); }
  friend bool operator==(const Digest& a, const Digest& b) {
    return a.count == b.count && a.sum == b.sum;
  }
  friend bool operator!=(const Digest& a, const Digest& b) { return !(a == b); }
};

Digest DigestOf(const recur::ra::Relation& rel);

// ---------------------------------------------------------------------------
// The reference evaluator: a small semi-naive Datalog evaluator over plain
// tuple sets, with its own rule parser. It handles the positive,
// constant-free rules the benchmark uses (linear recursions, exits).

struct TupleHash {
  size_t operator()(const Tuple& t) const {
    uint64_t h = t.size();
    for (Value v : t) h = Mix64(h ^ static_cast<uint64_t>(v));
    return static_cast<size_t>(h);
  }
};
using TupleSet = std::unordered_set<Tuple, TupleHash>;

struct RefAtom {
  std::string pred;
  std::vector<int> vars;  // variable ids, local to the rule
};

struct RefRule {
  RefAtom head;
  std::vector<RefAtom> body;
  std::vector<std::string> var_names;
};

// Parses "P(X, Y) :- A(X, Z), P(Z, Y)." (one or more rules, each ended by
// a period). Variables only; fails loudly on anything else.
std::vector<RefRule> ParseRules(const std::string& text);

// Renders a rule back to text; `rename` (when non-empty) replaces variable
// i by rename[i].
std::string RenderRule(const RefRule& rule,
                       const std::vector<std::string>& rename = {});

using RefDb = std::map<std::string, TupleSet>;

// Least fixpoint of `rules` over `edb`; returns the IDB relations.
RefDb ReferenceFixpoint(const std::vector<RefRule>& rules, const RefDb& edb);

// Transitive closure by breadth-first search from every node.
Digest BfsClosureDigest(const std::vector<std::pair<Value, Value>>& edges);

Digest DigestOf(const TupleSet& set);

// Digest of the tuples of `set` whose position 0 equals each value:
// per-constant answers of a query binding the first position.
std::unordered_map<Value, Digest> DigestByFirst(const TupleSet& set);

// ---------------------------------------------------------------------------
// The span tracer. Spans are recorded only in traced runs, kept in memory,
// and written when the run ends.

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int parent;  // index into the span list, -1 at the root
  int64_t op;  // operation id the span belongs to
};

class Tracer {
 public:
  bool enabled = false;

  int Begin(const char* name, int64_t op);
  void End(int id);
  const std::vector<Span>& spans() const { return spans_; }
  // Per span name: every span's self time (duration minus its children's)
  // in microseconds, in recording order.
  std::map<std::string, std::vector<double>> SelfTimesUs() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII span; a no-op when the tracer is disabled.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, int64_t op)
      : tracer_(tracer), id_(tracer->enabled ? tracer->Begin(name, op) : -1) {}
  ~Scope() {
    if (id_ >= 0) tracer_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// The run report.

double Median(std::vector<double> v);

struct Report {
  // End-to-end samples per metric. Samples taken with tracing on go to
  // `traced`, so the traced run can compare them with its untraced rounds.
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, std::vector<double>> traced;
  std::map<std::string, double> layer;  // per-layer metric values
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // correctness failures

  void Sample(const std::string& name, double value, bool was_traced) {
    (was_traced ? traced : samples)[name].push_back(value);
  }
  void Fail(const std::string& what) { errors.push_back(what); }
};

// Everything a phase needs from the driver.
struct Context {
  uint64_t seed = 1;
  bool trace = false;
  Tracer tracer;
  Report report;
  int64_t next_op = 0;
  std::string tmp_dir;  // fresh directory for durability files
  // False during warm-up rounds, whose samples are dropped.
  bool recording = false;

  void Sample(const std::string& name, double value) {
    if (recording) report.Sample(name, value, tracer.enabled);
  }
};

// Wall-clock seconds of one call of `fn`.
template <typename Fn>
double TimeOp(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Phases. Each has a set-up (timed into setup_s by the driver), a check
// preparation (references; untimed), and a body that runs whole rounds
// until its time budget is spent.

class Phase {
 public:
  virtual ~Phase() = default;
  virtual const char* name() const = 0;
  virtual void Setup(Context* ctx) = 0;
  virtual void Prepare(Context* ctx) = 0;
  // One round of operations; `round` counts from 0 (round 0 is the
  // warm-up and records no samples).
  virtual void Round(Context* ctx, int round) = 0;
  // After the last round: final checks and per-layer measurements.
  virtual void Finish(Context* ctx) = 0;
};

std::unique_ptr<Phase> MakeMaterialize();
std::unique_ptr<Phase> MakePaperQueries();
std::unique_ptr<Phase> MakeResident();

// Prints the physical plans of the materialize phase's multijoin rule.
void ExplainMultijoin();
// Prints the compiled-vs-semi-naive gap on a selective s1a query.
void CompiledVsSemiNaiveGap();

// Classification checks of the paper_queries phase (queries.cc). Each
// returns an empty string when the classification passes, else why not.
// The properties the paper proves; `variant` is the class of the same
// formula with renamed variables and permuted body atoms.
std::string CheckProperties(const recur::classify::Classification& c,
                            recur::classify::FormulaClass variant);
// The class, rank and unfold count the paper states for example `id`.
std::string CheckStated(const char* id, const recur::classify::Classification& c);

// Checker self-test: every checker must accept the right answer and reject
// a perturbed one. Returns the number of failures.
int RunSelfTest();

}  // namespace recurbench

#endif  // RECURBENCH_BENCH_H_
