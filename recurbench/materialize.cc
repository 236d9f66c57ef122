// Phase `materialize`: full semi-naive fixpoints, in a fixed rotation of
// three programs.
//
//  - tc_random: transitive closure over disjoint strongly connected random
//    graphs (a seeded Hamiltonian cycle per component plus seeded chords).
//    Every node reaches every node of its component, so the closure has
//    exactly kComponents * kComponentSize^2 tuples and the join considers
//    exactly kComponentSize * |E| bindings on every seed: wide deltas,
//    bound by dedup and merge.
//  - tc_grid: transitive closure over a kGridSide^2 grid with edges right
//    and down, seeded labels: 2 * (kGridSide - 1) narrow rounds, bound by
//    per-round overhead.
//  - multijoin: the s11-shaped (class E) formula
//    P(X, Y) :- A(X, X1), B(Y, Y1), C(X1, Y1), P(X1, Y1) over two layered
//    forests whose parent maps are Zipf-skewed (a tenth of each level has
//    children, and a few keys carry most of them), with C a per-level
//    matching. Most delta pairs miss C, and most matched pairs have no
//    children, so the Bloom filters prune probes; the skewed parent
//    columns make the planner take sort-merge probes for A and B.
//
// Checks: both closures against the benchmark's BFS (count and digest),
// the multijoin result against the reference evaluator.

#include <iostream>
#include <stdexcept>

#include "bench.h"
#include "datalog/parser.h"
#include "eval/seminaive.h"
#include "ra/database.h"

namespace recurbench {
namespace {

using recur::SymbolTable;
namespace ra = recur::ra;
namespace eval = recur::eval;
namespace datalog = recur::datalog;

constexpr int kComponents = 4;
constexpr int kComponentSize = 180;
constexpr int kChordsPerComponent = kComponentSize / 2;
constexpr int kGridSide = 24;
constexpr int kForestWidth = 500;
constexpr int kForestParents = kForestWidth / 10;  // nodes per level with children
constexpr int kForestLevels = 5;                   // levels below the roots

constexpr char kTcProgram[] =
    "T(X, Y) :- E(X, Y).\n"
    "T(X, Y) :- E(X, Z), T(Z, Y).\n";
constexpr char kMultijoinProgram[] =
    "P(X, Y) :- F(X, Y).\n"
    "P(X, Y) :- A(X, X1), B(Y, Y1), C(X1, Y1), P(X1, Y1).\n";

using Edges = std::vector<std::pair<Value, Value>>;

Edges RandomComponents(Rng* rng) {
  const std::vector<Value> label =
      RandomLabels(static_cast<size_t>(kComponents) * kComponentSize, rng);
  Edges edges;
  for (int c = 0; c < kComponents; ++c) {
    const Value* node = label.data() + static_cast<size_t>(c) * kComponentSize;
    std::unordered_set<uint64_t> seen;
    auto add = [&](int a, int b) {
      if (a == b || !seen.insert(static_cast<uint64_t>(a) * kComponentSize + b)
                         .second) {
        return false;
      }
      edges.emplace_back(node[a], node[b]);
      return true;
    };
    for (int i = 0; i < kComponentSize; ++i) add(i, (i + 1) % kComponentSize);
    for (int added = 0; added < kChordsPerComponent;) {
      added += add(static_cast<int>(rng->Below(kComponentSize)),
                   static_cast<int>(rng->Below(kComponentSize)))
                   ? 1
                   : 0;
    }
  }
  rng->Shuffle(&edges);
  return edges;
}

Edges Grid(Rng* rng) {
  const std::vector<Value> label =
      RandomLabels(static_cast<size_t>(kGridSide) * kGridSide, rng);
  Edges edges;
  for (int r = 0; r < kGridSide; ++r) {
    for (int c = 0; c < kGridSide; ++c) {
      const Value here = label[r * kGridSide + c];
      if (c + 1 < kGridSide) edges.emplace_back(here, label[r * kGridSide + c + 1]);
      if (r + 1 < kGridSide) edges.emplace_back(here, label[(r + 1) * kGridSide + c]);
    }
  }
  rng->Shuffle(&edges);
  return edges;
}

// Parent index of child j under a Zipf(1) allocation of kForestWidth
// children over the first kForestParents nodes of the level above: parent
// i receives about kForestWidth / (H * (i + 1)) children. Every parent gets
// at least one, so a parent column holds kForestWidth / kForestParents rows
// per distinct value on average — past the planner's sort-merge threshold
// (kSortMergeSkewThreshold, 8) — with most rows under the first few keys.
std::vector<int> ZipfParents() {
  std::vector<double> cdf(kForestParents);
  double h = 0;
  for (int i = 0; i < kForestParents; ++i) cdf[i] = (h += 1.0 / (i + 1));
  std::vector<int> parent(kForestWidth);
  int i = 0;
  for (int j = 0; j < kForestWidth; ++j) {
    const double u = (j + 0.5) / kForestWidth * h;
    while (cdf[i] < u) ++i;
    parent[j] = i;
  }
  return parent;
}

// One of the rotated fixpoints: its program, EDB and expected result.
struct Fixpoint {
  const char* metric;
  datalog::Program program;
  ra::Database edb;
  recur::SymbolId out_pred;
  Digest expected;
};

void AddEdges(SymbolTable* symbols, ra::Database* db, const char* pred,
              const Edges& edges) {
  ra::Relation* rel = *db->GetOrCreate(symbols->Intern(pred), 2);
  for (const auto& [a, b] : edges) rel->Insert({a, b});
}

class Materialize : public Phase {
 public:
  const char* name() const override { return "materialize"; }

  void Setup(Context* ctx) override {
    Rng rng(ctx->seed * 3 + 1);
    random_edges_ = RandomComponents(&rng);
    grid_edges_ = Grid(&rng);

    // The two forests and the per-level matching.
    const std::vector<int> parent = ZipfParents();
    const size_t nodes = static_cast<size_t>(kForestLevels + 1) * kForestWidth;
    const std::vector<Value> xs = RandomLabels(nodes, &rng);
    const std::vector<Value> ys = RandomLabels(nodes, &rng);
    auto id = [](int level, int j) { return level * kForestWidth + j; };
    for (int l = 0; l < kForestLevels; ++l) {
      for (int j = 0; j < kForestWidth; ++j) {
        a_.emplace_back(xs[id(l + 1, j)], xs[id(l, parent[j])]);
        b_.emplace_back(ys[id(l + 1, j)], ys[id(l, parent[j])]);
      }
    }
    for (int l = 0; l <= kForestLevels; ++l) {
      for (int j = 0; j < kForestWidth; ++j) {
        c_.emplace_back(xs[id(l, j)], ys[id(l, j)]);
        if (l == 0) f_.emplace_back(xs[id(l, j)], ys[id(l, j)]);
      }
    }
    for (Edges* e : {&a_, &b_, &c_, &f_}) rng.Shuffle(e);

    programs_.resize(3);
    const char* metrics[3] = {"tc_random_ms", "tc_grid_ms", "multijoin_ms"};
    for (int p = 0; p < 3; ++p) {
      Fixpoint& prog = programs_[p];
      prog.metric = metrics[p];
      auto parsed = datalog::ParseProgram(p < 2 ? kTcProgram : kMultijoinProgram,
                                          &symbols_);
      if (!parsed.ok()) throw std::runtime_error(parsed.status().ToString());
      prog.program = std::move(*parsed);
      prog.out_pred = symbols_.Intern(p < 2 ? "T" : "P");
    }
    AddEdges(&symbols_, &programs_[0].edb, "E", random_edges_);
    AddEdges(&symbols_, &programs_[1].edb, "E", grid_edges_);
    AddEdges(&symbols_, &programs_[2].edb, "A", a_);
    AddEdges(&symbols_, &programs_[2].edb, "B", b_);
    AddEdges(&symbols_, &programs_[2].edb, "C", c_);
    AddEdges(&symbols_, &programs_[2].edb, "F", f_);
  }

  void Prepare(Context*) override {
    programs_[0].expected = BfsClosureDigest(random_edges_);
    programs_[1].expected = BfsClosureDigest(grid_edges_);
    RefDb edb;
    auto load = [&](const char* pred, const Edges& edges) {
      for (const auto& [a, b] : edges) edb[pred].insert({a, b});
    };
    load("A", a_);
    load("B", b_);
    load("C", c_);
    load("F", f_);
    RefDb idb = ReferenceFixpoint(ParseRules(kMultijoinProgram), edb);
    programs_[2].expected = DigestOf(idb["P"]);
  }

  void Round(Context* ctx, int) override {
    eval::EvalStats rotation;
    for (Fixpoint& prog : programs_) {
      const int64_t op = ctx->next_op++;
      eval::EvalStats stats;
      recur::Result<eval::IdbRelations> result = recur::Status::Internal("unset");
      const double s = TimeOp([&] {
        Scope span(&ctx->tracer, "eval.SemiNaiveEvaluate", op);
        result = eval::SemiNaiveEvaluate(prog.program, prog.edb, {}, &stats);
      });
      ++ctx->report.attempted;
      if (!result.ok()) {
        ++ctx->report.failed;
        std::cerr << prog.metric << ": " << result.status() << "\n";
        continue;
      }
      ctx->Sample(prog.metric, s * 1e3);
      const ra::Relation& out = result->at(prog.out_pred);
      if (DigestOf(out) != prog.expected) {
        ctx->report.Fail(std::string(prog.metric) + ": " +
                         std::to_string(out.size()) + " tuples, expected " +
                         std::to_string(prog.expected.count) +
                         " (or a different tuple set)");
      }
      rotation.Accumulate(stats);
      if (&prog == &programs_[0]) {
        arena_bytes_ = static_cast<double>(out.ArenaBytes());
        if (ctx->tracer.enabled) MeasureRelation(ctx, prog, out, op);
      }
      if (&prog == &programs_[2]) multijoin_ = stats;
    }
    last_rotation_ = rotation;
  }

  void Finish(Context* ctx) override {
    auto& layer = ctx->report.layer;
    layer["eval.iterations"] = last_rotation_.iterations;
    layer["eval.tuples_considered"] =
        static_cast<double>(last_rotation_.tuples_considered);
    layer["eval.tuples_produced"] =
        static_cast<double>(last_rotation_.tuples_produced);
    layer["eval.dedup_yield"] =
        static_cast<double>(last_rotation_.tuples_produced) /
        static_cast<double>(std::max<size_t>(1, last_rotation_.tuples_considered));
    layer["plan.join_probes"] = static_cast<double>(multijoin_.join_probes);
    layer["plan.batches"] = static_cast<double>(multijoin_.batches);
    layer["plan.plans_executed"] = static_cast<double>(multijoin_.plans_executed);
    layer["plan.bloom_skip_ratio"] =
        static_cast<double>(multijoin_.bloom_skips) /
        static_cast<double>(std::max<size_t>(1, multijoin_.bloom_probes));
    layer["ra.arena_bytes"] = arena_bytes_;
    layer["ra.insert_ns_per_row"] = Median(insert_ns_);
    layer["ra.probe_ns_per_key"] = Median(probe_ns_);
  }

  // Prints the physical plan the executor picks for the multijoin rule as
  // semi-naive evaluation runs it: the P atom reads a delta, here the
  // first round's (the F pairs).
  void Explain() {
    Context ctx;
    Setup(&ctx);
    Fixpoint& prog = programs_[2];
    auto result = eval::SemiNaiveEvaluate(prog.program, prog.edb);
    if (!result.ok()) throw std::runtime_error(result.status().ToString());
    const ra::Relation* f = prog.edb.Find(symbols_.Lookup("F"));
    const datalog::Rule& rule = prog.program.rules()[1];
    int delta_atom = 0;
    while (rule.body()[delta_atom].predicate() != prog.out_pred) ++delta_atom;
    eval::ConjunctiveOptions options;
    options.explain = true;
    options.override_index = delta_atom;
    options.override_relation = f;
    eval::EvalStats stats;
    auto lookup = [&](recur::SymbolId pred) { return prog.edb.Find(pred); };
    auto derived = eval::EvaluateRule(rule, lookup, options, &stats);
    if (!derived.ok()) throw std::runtime_error(derived.status().ToString());
    std::cout << "multijoin: |P| = " << result->at(prog.out_pred).size()
              << ", delta = F (" << f->size() << " pairs)\n";
    for (const std::string& plan : stats.plans) std::cout << plan << "\n";
  }

 private:
  // Layer-level timings of the ra::Relation primitives the fixpoint leans
  // on: a bulk insert of the closure into a fresh relation, and keyed
  // probes of the EDB's column-0 index.
  void MeasureRelation(Context* ctx, const Fixpoint& prog, const ra::Relation& out,
                       int64_t op) {
    ra::Relation fresh(2);
    const double insert_s = TimeOp([&] {
      Scope span(&ctx->tracer, "ra.Relation.InsertAll", op);
      fresh.InsertAll(out);
    });
    insert_ns_.push_back(insert_s * 1e9 / static_cast<double>(out.size()));
    const ra::Relation* e = prog.edb.Find(symbols_.Lookup("E"));
    e->RowsWithValue(0, random_edges_[0].first);  // builds the index
    size_t found = 0;
    const double probe_s = TimeOp([&] {
      Scope span(&ctx->tracer, "ra.Relation.RowsWithValue", op);
      for (const auto& [a, b] : random_edges_) found += e->RowsWithValue(0, a).size();
    });
    if (found < random_edges_.size()) ctx->report.Fail("ra: index probe lost rows");
    probe_ns_.push_back(probe_s * 1e9 / static_cast<double>(random_edges_.size()));
  }

  SymbolTable symbols_;
  Edges random_edges_, grid_edges_, a_, b_, c_, f_;
  std::vector<Fixpoint> programs_;
  eval::EvalStats last_rotation_;
  eval::EvalStats multijoin_;
  double arena_bytes_ = 0;
  std::vector<double> insert_ns_;
  std::vector<double> probe_ns_;
};

}  // namespace

std::unique_ptr<Phase> MakeMaterialize() { return std::make_unique<Materialize>(); }

void ExplainMultijoin() { Materialize().Explain(); }

}  // namespace recurbench
