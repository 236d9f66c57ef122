// Phase `paper_queries`: the paper's own claim — classify a formula,
// compile it, and answer selective queries without materialising the
// recursion.
//
// Operations:
//  - compile: datalog::ParseRule of the formula and its exit rule,
//    classify::Classify, and eval::PlanGenerator::Plan, on every formula of
//    the seeded workload::FormulaGenerator stream plus the catalog examples
//    s1a-s12. One sample is the mean per formula over one pass of the set.
//  - stable queries: QueryPlan::Execute on s2a, s3 (strongly stable) and
//    s4a, s7 (transformed), binding position 0 to every root of a layered
//    butterfly DAG. One sample is the mean per query over one pass.
//  - bounded queries: QueryPlan::Execute on s5 (A4), s8 (B) and s10 (D).
//
// The EDB shapes are fixed; the seed chooses the labels and the row order,
// so every seed does the same amount of work on different values.
//
// Checks: every answer against the reference evaluator's fixpoint; every
// compile against the classification made before the timed rounds; and
// the classification properties of the paper (see CheckProperties).

#include <algorithm>
#include <iostream>
#include <optional>
#include <stdexcept>

#include "bench.h"
#include "catalog/paper_examples.h"
#include "classify/classifier.h"
#include "datalog/parser.h"
#include "eval/plan_generator.h"
#include "eval/seminaive.h"
#include "workload/formula_generator.h"

namespace recurbench {
namespace {

using recur::SymbolTable;
using recur::classify::FormulaClass;
namespace ra = recur::ra;
namespace eval = recur::eval;
namespace datalog = recur::datalog;
namespace classify = recur::classify;

constexpr int kGeneratedFormulas = 300;
constexpr int kLayers = 6;
constexpr int kWidth = 16;
constexpr int kExitRows = 64;
constexpr int kBoundedDomain = 40;
constexpr int kBoundedRows = 48;
constexpr int kBoundedQueries = 16;

// What the paper states for its examples (Examples 1-14, Theorems 1-11):
// class, strongly stable, transformable, unfold count, bounded, rank.
struct Stated {
  const char* id;
  FormulaClass cls;
  bool strongly_stable;
  bool transformable;
  int unfold;
  bool bounded;
  int rank;
};
constexpr Stated kStated[] = {
    {"s1a", FormulaClass::kA5, true, true, 1, false, 0},
    {"s1b", FormulaClass::kC, false, false, 1, false, 0},
    {"s2a", FormulaClass::kA1, true, true, 1, false, 0},
    {"s3", FormulaClass::kA1, true, true, 1, false, 0},
    {"s4a", FormulaClass::kA3, false, true, 3, false, 0},
    {"s5", FormulaClass::kA4, false, true, 3, true, 2},
    {"s6", FormulaClass::kA5, false, true, 6, true, 5},
    {"s7", FormulaClass::kA5, false, true, 6, false, 0},
    {"s8", FormulaClass::kB, false, false, 1, true, 2},
    {"s9", FormulaClass::kC, false, false, 1, false, 0},
    {"s10", FormulaClass::kD, false, false, 1, true, 2},
    {"s11", FormulaClass::kE, false, false, 1, false, 0},
    {"s12", FormulaClass::kF, false, false, 1, false, 0},
};

struct Formula {
  std::string id;
  std::string rule;
  std::string exit;
  FormulaClass cls = FormulaClass::kF;  // from the untimed classification
};

// A formula the phase queries, with its EDB and the reference answers.
struct Queried {
  const char* id;
  bool bounded;
  eval::Strategy strategy;
  std::string rule, exit;
  SymbolTable symbols;
  ra::Database edb;
  RefDb ref_edb;
  std::optional<eval::QueryPlan> plan;
  int arity = 0;
  std::vector<Value> constants;
  std::unordered_map<Value, Digest> expected;
};

std::string Describe(const classify::Classification& c) {
  return std::string(classify::ToString(c.formula_class)) +
         " ss=" + std::to_string(c.strongly_stable) +
         " tr=" + std::to_string(c.transformable_to_stable) +
         " unfold=" + std::to_string(c.unfold_count) +
         " bounded=" + std::to_string(c.bounded) +
         " rank=" + std::to_string(c.rank_bound);
}

recur::Result<classify::Classification> ClassifyText(const std::string& rule) {
  SymbolTable symbols;
  auto parsed = datalog::ParseRule(rule, &symbols);
  if (!parsed.ok()) return parsed.status();
  auto formula = datalog::LinearRecursiveRule::Create(std::move(*parsed));
  if (!formula.ok()) return formula.status();
  return classify::Classify(*formula);
}

}  // namespace

// The classification properties the paper proves, checked on one formula.
// `variant` is the class of the same formula with renamed variables and
// permuted body atoms. Returns an empty string when all hold.
std::string CheckProperties(const classify::Classification& c,
                            FormulaClass variant) {
  if (variant != c.formula_class) return "class changes under renaming/permutation";
  if (c.strongly_stable && !c.transformable_to_stable) {
    return "strongly stable but not transformable";
  }
  if (c.formula_class == FormulaClass::kC &&
      (c.transformable_to_stable || c.bounded)) {
    return "class C is transformable or bounded (Thm 5)";
  }
  if (c.formula_class == FormulaClass::kE && c.transformable_to_stable) {
    return "class E is transformable (Thm 8)";
  }
  if (c.formula_class == FormulaClass::kD &&
      (!c.bounded || c.strongly_stable)) {
    return "class D is unbounded or stable (Cor 2, Thm 7)";
  }
  return "";
}

// Checks a classification against what the paper states for example `id`.
std::string CheckStated(const char* id, const classify::Classification& c) {
  for (const Stated& s : kStated) {
    if (std::string(s.id) != id) continue;
    const bool ok = c.formula_class == s.cls &&
                    c.strongly_stable == s.strongly_stable &&
                    c.transformable_to_stable == s.transformable &&
                    (!s.transformable || c.unfold_count == s.unfold) &&
                    c.bounded == s.bounded && (!s.bounded || c.rank_bound == s.rank);
    return ok ? "" : std::string(id) + ": got " + Describe(c);
  }
  return std::string(id) + ": not in the paper's table";
}

namespace {

class PaperQueries : public Phase {
 public:
  const char* name() const override { return "paper_queries"; }

  void Setup(Context* ctx) override {
    Rng rng(ctx->seed * 3 + 2);
    // The compile set.
    recur::workload::FormulaGenerator gen(ctx->seed);
    SymbolTable gen_symbols;
    for (int i = 0; i < kGeneratedFormulas; ++i) {
      auto next = gen.Next(&gen_symbols);
      if (!next.ok()) throw std::runtime_error(next.status().ToString());
      formulas_.push_back(Formula{"gen" + std::to_string(i),
                                  next->formula.rule().ToString(gen_symbols),
                                  next->exit.ToString(gen_symbols)});
    }
    for (const auto& ex : recur::catalog::PaperExamples()) {
      formulas_.push_back(Formula{ex.id, ex.rule, ex.exit_rule});
    }

    // Stable queries over a layered butterfly DAG; bounded ones over small
    // random relations.
    const std::vector<Value> node = RandomLabels(kLayers * kWidth, &rng);
    auto layered = [&](int m1, int a1, int m2, int a2) {
      TupleSet rel;
      for (int l = 0; l + 1 < kLayers; ++l) {
        for (int j = 0; j < kWidth; ++j) {
          rel.insert({node[l * kWidth + j], node[(l + 1) * kWidth + (m1 * j + a1) % kWidth]});
          rel.insert({node[l * kWidth + j], node[(l + 1) * kWidth + (m2 * j + a2) % kWidth]});
        }
      }
      return rel;
    };
    Rng shape(20240613);  // fixed: the shape does not depend on the seed
    auto exit_rows = [&](int arity) {
      TupleSet rel;
      while (static_cast<int>(rel.size()) < kExitRows) {
        Tuple t;
        for (int c = 0; c < arity; ++c) t.push_back(node[shape.Below(kLayers * kWidth)]);
        rel.insert(t);
      }
      return rel;
    };
    const std::vector<Value> small = RandomLabels(kBoundedDomain, &rng);
    auto small_rows = [&](int arity, int rows) {
      TupleSet rel;
      while (static_cast<int>(rel.size()) < rows) {
        Tuple t;
        for (int c = 0; c < arity; ++c) t.push_back(small[shape.Below(kBoundedDomain)]);
        rel.insert(t);
      }
      return rel;
    };

    const TupleSet a = layered(2, 0, 2, 1);
    const TupleSet b = layered(2, 3, 2, 6);
    const TupleSet c = layered(2, 5, 2, 4);
    std::vector<Value> roots(node.begin(), node.begin() + kWidth);

    auto add = [&](const char* id, bool bounded, eval::Strategy strategy,
                   RefDb edb, std::vector<Value> constants) {
      auto q = std::make_unique<Queried>();
      const auto* ex = recur::catalog::FindExample(id);
      q->id = id;
      q->bounded = bounded;
      q->strategy = strategy;
      q->rule = ex->rule;
      q->exit = ex->exit_rule;
      q->arity = static_cast<int>(ParseRules(q->rule)[0].head.vars.size());
      q->ref_edb = std::move(edb);
      q->constants = std::move(constants);
      queried_.push_back(std::move(q));
    };
    add("s2a", false, eval::Strategy::kStableCompiled,
        {{"A", a}, {"B", b}, {"E", exit_rows(2)}}, roots);
    add("s3", false, eval::Strategy::kStableCompiled,
        {{"A", a}, {"B", b}, {"C", c}, {"E", exit_rows(3)}}, roots);
    add("s4a", false, eval::Strategy::kTransformedCompiled,
        {{"A", a}, {"B", b}, {"C", c}, {"E", exit_rows(3)}}, roots);
    add("s7", false, eval::Strategy::kTransformedCompiled,
        {{"A", a}, {"B", b}, {"E", exit_rows(7)}}, roots);
    auto firsts = [&](const TupleSet& rel) {
      std::vector<Value> out;
      for (const Tuple& t : rel) out.push_back(t[0]);
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
      rng.Shuffle(&out);
      out.resize(std::min<size_t>(out.size(), kBoundedQueries));
      return out;
    };
    const TupleSet e3 = small_rows(3, kBoundedRows);
    // s5 is A4: bounded, but also transformable, and the planner prefers
    // the compiled transformed plan.
    add("s5", true, eval::Strategy::kTransformedCompiled, {{"E", e3}}, firsts(e3));
    const TupleSet sa = small_rows(2, kBoundedRows);
    add("s8", true, eval::Strategy::kBoundedExpansion,
        {{"A", sa}, {"B", small_rows(2, kBoundedRows)},
         {"C", small_rows(2, kBoundedRows)}, {"E", small_rows(4, kBoundedRows)}},
        firsts(sa));
    const TupleSet sc = small_rows(2, kBoundedRows);
    add("s10", true, eval::Strategy::kBoundedExpansion,
        {{"B", small_rows(1, kBoundedDomain / 4)}, {"C", sc},
         {"E", small_rows(2, kBoundedRows)}},
        firsts(sc));

    // Load and plan (set-up work a query server would do once).
    for (auto& q : queried_) {
      for (const auto& [pred, rows] : q->ref_edb) {
        ra::Relation* rel =
            *q->edb.GetOrCreate(q->symbols.Intern(pred), static_cast<int>(rows.begin()->size()));
        std::vector<Tuple> ordered(rows.begin(), rows.end());
        rng.Shuffle(&ordered);
        for (const Tuple& t : ordered) rel->Insert(t);
      }
      auto rule = datalog::ParseRule(q->rule, &q->symbols);
      auto exit = datalog::ParseRule(q->exit, &q->symbols);
      if (!rule.ok() || !exit.ok()) throw std::runtime_error("parse failed");
      auto formula = datalog::LinearRecursiveRule::Create(std::move(*rule));
      if (!formula.ok()) throw std::runtime_error(formula.status().ToString());
      auto plan = eval::PlanGenerator(&q->symbols).Plan(*formula, *exit);
      if (!plan.ok()) throw std::runtime_error(plan.status().ToString());
      q->plan = std::move(*plan);
    }
  }

  void Prepare(Context* ctx) override {
    // Classification properties, on every formula of the compile set.
    Rng rng(ctx->seed * 3 + 5);
    for (Formula& f : formulas_) {
      auto c = ClassifyText(f.rule);
      if (!c.ok()) {
        ctx->report.Fail(f.id + ": " + c.status().ToString());
        continue;
      }
      f.cls = c->formula_class;
      // Same formula, variables renamed and body atoms permuted.
      RefRule r = ParseRules(f.rule)[0];
      std::vector<std::string> rename;
      for (size_t v = 0; v < r.var_names.size(); ++v) {
        rename.push_back("R" + std::to_string(v));
      }
      rng.Shuffle(&rename);
      rng.Shuffle(&r.body);
      auto variant = ClassifyText(RenderRule(r, rename));
      const std::string why =
          variant.ok() ? CheckProperties(*c, variant->formula_class)
                       : variant.status().ToString();
      if (!why.empty()) ctx->report.Fail(f.id + " (" + f.rule + "): " + why);
      if (f.id.rfind("gen", 0) != 0) {
        const std::string stated = CheckStated(f.id.c_str(), *c);
        if (!stated.empty()) ctx->report.Fail(stated);
      }
      if (c->bounded) CheckBoundedRounds(ctx, f, *c, &rng);
    }

    // Reference answers.
    for (auto& q : queried_) {
      if (q->plan->strategy() != q->strategy) {
        ctx->report.Fail(std::string(q->id) + ": planned as " +
                         eval::ToString(q->plan->strategy()));
      }
      std::vector<RefRule> rules = ParseRules(q->exit + "\n" + q->rule);
      RefDb idb = ReferenceFixpoint(rules, q->ref_edb);
      q->expected = DigestByFirst(idb["P"]);
    }
  }

  void Round(Context* ctx, int) override {
    // Compile pass.
    {
      double total = 0;
      for (const Formula& f : formulas_) total += Compile(ctx, f);
      ctx->Sample("compile_us", total * 1e6 / formulas_.size());
    }
    // Query passes.
    double seconds[2] = {0, 0};
    int count[2] = {0, 0};
    size_t levels = 0, considered = 0, queries = 0;
    for (auto& q : queried_) {
      const recur::SymbolId p = q->symbols.Lookup("P");
      for (Value constant : q->constants) {
        eval::Query query;
        query.pred = p;
        query.bindings.assign(q->arity, std::nullopt);
        query.bindings[0] = constant;
        eval::CompiledEvalStats stats;
        recur::Result<ra::Relation> answer = recur::Status::Internal("unset");
        const int64_t op = ctx->next_op++;
        seconds[q->bounded] += TimeOp([&] {
          Scope span(&ctx->tracer, "eval.QueryPlan.Execute", op);
          answer = q->plan->Execute(query, q->edb, {}, &stats);
        });
        ++count[q->bounded];
        ++ctx->report.attempted;
        if (!answer.ok()) {
          ++ctx->report.failed;
          std::cerr << q->id << ": " << answer.status() << "\n";
          continue;
        }
        auto it = q->expected.find(constant);
        const Digest want = it == q->expected.end() ? Digest{} : it->second;
        if (DigestOf(*answer) != want) {
          ctx->report.Fail(std::string(q->id) + " query P(" + std::to_string(constant) +
                           ", ...): " + std::to_string(answer->size()) +
                           " answers, reference has " + std::to_string(want.count));
        }
        levels += stats.levels;
        considered += stats.tuples_considered;
        ++queries;
      }
    }
    ctx->Sample("stable_query_us", seconds[0] * 1e6 / count[0]);
    ctx->Sample("bounded_query_us", seconds[1] * 1e6 / count[1]);
    levels_per_query_ = static_cast<double>(levels) / queries;
    considered_per_query_ = static_cast<double>(considered) / queries;
  }

  void Finish(Context* ctx) override {
    ctx->report.layer["eval.compiled_levels"] = levels_per_query_;
    ctx->report.layer["eval.compiled_tuples_considered"] = considered_per_query_;
  }

 private:
  double Compile(Context* ctx, const Formula& f) {
    SymbolTable symbols;
    const int64_t op = ctx->next_op++;
    recur::Status status = recur::Status::OK();
    FormulaClass cls = FormulaClass::kF;
    const double s = TimeOp([&] {
      recur::Result<datalog::LinearRecursiveRule> formula = recur::Status::Internal("unset");
      recur::Result<datalog::Rule> exit = recur::Status::Internal("unset");
      {
        Scope span(&ctx->tracer, "datalog.ParseRule", op);
        auto rule = datalog::ParseRule(f.rule, &symbols);
        exit = datalog::ParseRule(f.exit, &symbols);
        if (!rule.ok() || !exit.ok()) {
          status = rule.ok() ? exit.status() : rule.status();
          return;
        }
        formula = datalog::LinearRecursiveRule::Create(std::move(*rule));
        if (!formula.ok()) {
          status = formula.status();
          return;
        }
      }
      {
        Scope span(&ctx->tracer, "classify.Classify", op);
        auto c = classify::Classify(*formula);
        if (!c.ok()) {
          status = c.status();
          return;
        }
        cls = c->formula_class;
      }
      Scope span(&ctx->tracer, "eval.PlanGenerator.Plan", op);
      auto plan = eval::PlanGenerator(&symbols).Plan(*formula, *exit);
      if (!plan.ok()) status = plan.status();
    });
    ++ctx->report.attempted;
    if (!status.ok()) {
      ++ctx->report.failed;
      std::cerr << f.id << ": " << status << "\n";
    } else if (cls != f.cls) {
      ctx->report.Fail(f.id + ": classified " + classify::ToString(cls) +
                       " in a timed round, " + classify::ToString(f.cls) + " before");
    }
    return s;
  }

  // Semi-naive evaluation of a bounded formula over a small random EDB must
  // stop within rank + 2 rounds: the exit round, `rank` expansion rounds
  // that can still add tuples, and one round that finds nothing new.
  void CheckBoundedRounds(Context* ctx, const Formula& f,
                          const classify::Classification& c, Rng* rng) {
    SymbolTable symbols;
    auto program = datalog::ParseProgram(f.exit + "\n" + f.rule, &symbols);
    if (!program.ok()) {
      ctx->report.Fail(f.id + ": " + program.status().ToString());
      return;
    }
    ra::Database edb;
    for (const RefRule& r : ParseRules(f.exit + "\n" + f.rule)) {
      for (const RefAtom& atom : r.body) {
        if (atom.pred == r.head.pred) continue;
        ra::Relation* rel =
            *edb.GetOrCreate(symbols.Intern(atom.pred), static_cast<int>(atom.vars.size()));
        // Unary relations get 4 of the 5 domain values, wider ones 12 rows.
        while (rel->size() < (atom.vars.size() == 1 ? 4u : 12u)) {
          Tuple t;
          for (size_t i = 0; i < atom.vars.size(); ++i) t.push_back(rng->Below(5));
          rel->Insert(t);
        }
      }
    }
    eval::EvalStats stats;
    auto idb = eval::SemiNaiveEvaluate(*program, edb, {}, &stats);
    if (!idb.ok()) {
      ctx->report.Fail(f.id + ": " + idb.status().ToString());
    } else if (stats.iterations > c.rank_bound + 2) {
      ctx->report.Fail(f.id + " (" + f.rule + "): bounded with rank " +
                       std::to_string(c.rank_bound) + " but semi-naive took " +
                       std::to_string(stats.iterations) + " rounds");
    }
  }

  std::vector<Formula> formulas_;
  std::vector<std::unique_ptr<Queried>> queried_;
  double levels_per_query_ = 0;
  double considered_per_query_ = 0;
};

}  // namespace

std::unique_ptr<Phase> MakePaperQueries() { return std::make_unique<PaperQueries>(); }

void CompiledVsSemiNaiveGap() {
  // s1a over layered DAGs of kGapNodes nodes (16 wide, two successors per
  // node), query P(root, Y): the compiled plan walks one root's cone, the
  // semi-naive plan materialises P and then selects.
  constexpr int kGapNodes = 1024;
  constexpr int kGapWidth = 16;
  SymbolTable symbols;
  auto rule = datalog::ParseRule("P(X, Y) :- A(X, Z), P(Z, Y).", &symbols);
  auto exit = datalog::ParseRule("P(X, Y) :- E(X, Y).", &symbols);
  auto formula = datalog::LinearRecursiveRule::Create(*rule);
  auto plan = eval::PlanGenerator(&symbols).Plan(*formula, *exit);
  if (!plan.ok()) throw std::runtime_error(plan.status().ToString());
  datalog::Program program;
  program.AddRule(*exit);
  program.AddRule(*rule);
  Rng rng(1);
  ra::Database edb;
  for (const char* pred : {"A", "E"}) {
    ra::Relation* rel = *edb.GetOrCreate(symbols.Intern(pred), 2);
    for (int v = 0; v + kGapWidth < kGapNodes; ++v) {
      const int next = (v / kGapWidth + 1) * kGapWidth;
      const int a = static_cast<int>(rng.Below(kGapWidth));
      const int b = (a + 1 + static_cast<int>(rng.Below(kGapWidth - 1))) % kGapWidth;
      rel->Insert({v, next + a});
      rel->Insert({v, next + b});
    }
  }
  eval::Query query;
  query.pred = symbols.Lookup("P");
  query.bindings = {Value{0}, std::nullopt};
  std::vector<double> compiled_ms, seminaive_ms;
  Digest compiled, seminaive;
  for (int i = 0; i < 21; ++i) {
    compiled_ms.push_back(1e3 * TimeOp([&] {
      compiled = DigestOf(*plan->Execute(query, edb));
    }));
    seminaive_ms.push_back(1e3 * TimeOp([&] {
      seminaive = DigestOf(*eval::SemiNaiveAnswer(program, edb, query));
    }));
  }
  std::cout << "s1a selective query P(0, Y) over " << kGapNodes << " nodes: "
            << compiled.count << " answers"
            << (compiled == seminaive ? "" : " (ENGINES DISAGREE)") << "\n"
            << "  compiled (" << eval::ToString(plan->strategy())
            << "): median " << Median(compiled_ms) << " ms\n"
            << "  semi-naive then select: median " << Median(seminaive_ms) << " ms\n"
            << "  ratio: " << Median(seminaive_ms) / Median(compiled_ms) << "x\n";
}

}  // namespace recurbench
