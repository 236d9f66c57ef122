// Checker self-test: each checker the phases use accepts the library's
// right answer and rejects a perturbed one (a tuple dropped, a tuple
// added, a property flipped). A checker that cannot fail proves nothing.

#include <iostream>

#include "bench.h"
#include "catalog/paper_examples.h"
#include "datalog/parser.h"
#include "eval/seminaive.h"

namespace recurbench {
namespace {

using recur::SymbolTable;
using recur::classify::FormulaClass;
namespace ra = recur::ra;
namespace eval = recur::eval;

int failures = 0;

void Expect(bool ok, const char* what) {
  std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
  if (!ok) ++failures;
}

// A copy of `rel` with its first row left out, and one with an extra row.
ra::Relation Dropped(const ra::Relation& rel) {
  ra::Relation out(rel.arity());
  for (size_t i = 1; i < rel.size(); ++i) out.Insert(rel.rows()[i]);
  return out;
}
ra::Relation Added(const ra::Relation& rel) {
  ra::Relation out = rel;
  Tuple extra(rel.arity(), -7);
  out.Insert(extra);
  return out;
}

ra::Relation Evaluate(const char* text, const RefDb& edb, const char* pred) {
  SymbolTable symbols;
  auto program = recur::datalog::ParseProgram(text, &symbols);
  ra::Database db;
  for (const auto& [name, rows] : edb) {
    ra::Relation* rel = *db.GetOrCreate(symbols.Intern(name), static_cast<int>(rows.begin()->size()));
    for (const Tuple& t : rows) rel->Insert(t);
  }
  auto idb = eval::SemiNaiveEvaluate(*program, db);
  return idb->at(symbols.Lookup(pred));
}

}  // namespace

int RunSelfTest() {
  // Closure checker (BFS digest).
  std::vector<std::pair<Value, Value>> edges = {{1, 2}, {2, 3}, {3, 1}, {3, 4}, {5, 6}};
  RefDb edb;
  for (const auto& [a, b] : edges) edb["E"].insert({a, b});
  const ra::Relation tc =
      Evaluate("T(X, Y) :- E(X, Y).\nT(X, Y) :- E(X, Z), T(Z, Y).\n", edb, "T");
  const Digest bfs = BfsClosureDigest(edges);
  Expect(DigestOf(tc) == bfs, "closure checker accepts the library's closure");
  Expect(DigestOf(Dropped(tc)) != bfs, "closure checker rejects a dropped tuple");
  Expect(DigestOf(Added(tc)) != bfs, "closure checker rejects an added tuple");

  // Reference-evaluator checker, on the s11 (class E) and s10 (class D)
  // shapes.
  const char* s11 =
      "P(X, Y) :- F(X, Y).\nP(X, Y) :- A(X, X1), B(Y, Y1), C(X1, Y1), P(X1, Y1).\n";
  RefDb e11 = {{"F", {{1, 10}, {2, 20}}},
               {"A", {{3, 1}, {4, 1}, {5, 3}}},
               {"B", {{30, 10}, {40, 10}, {50, 30}}},
               {"C", {{1, 10}, {3, 30}}}};
  const ra::Relation p11 = Evaluate(s11, e11, "P");
  const Digest ref11 = DigestOf(ReferenceFixpoint(ParseRules(s11), e11)["P"]);
  Expect(DigestOf(p11) == ref11, "reference checker accepts the s11 fixpoint");
  Expect(DigestOf(Dropped(p11)) != ref11, "reference checker rejects a dropped s11 tuple");
  const char* s10 = "D(X, Y) :- G(X, Y).\nD(X, Y) :- H(Y), K(X, Y1), D(X1, Y1).\n";
  RefDb e10 = {{"G", {{1, 2}, {3, 4}}}, {"H", {{7}, {8}}}, {"K", {{5, 2}, {6, 9}}}};
  const ra::Relation p10 = Evaluate(s10, e10, "D");
  const Digest ref10 = DigestOf(ReferenceFixpoint(ParseRules(s10), e10)["D"]);
  Expect(DigestOf(p10) == ref10, "reference checker accepts the s10 fixpoint");
  Expect(DigestOf(Added(p10)) != ref10, "reference checker rejects an added s10 tuple");

  // Per-query answers (the query and resident read checkers).
  const auto by_first = DigestByFirst(ReferenceFixpoint(ParseRules(s11), e11)["P"]);
  Digest answer;
  for (ra::TupleRef t : p11.rows()) {
    if (t[0] == 3) answer.Add(t.data(), t.size());
  }
  Expect(answer == by_first.at(3), "answer checker accepts P(3, Y)");
  Digest partial;
  partial.Add(Tuple{3, 40});
  Expect(partial != by_first.at(3), "answer checker rejects a partial P(3, Y)");

  // Classification checkers.
  SymbolTable symbols;
  auto classify = [&](const char* id) {
    auto formula = recur::catalog::ParseExample(*recur::catalog::FindExample(id), &symbols);
    return *recur::classify::Classify(*formula);
  };
  const auto s5 = classify("s5");
  Expect(CheckStated("s5", s5).empty(), "paper-table checker accepts s5");
  auto wrong_rank = s5;
  wrong_rank.rank_bound += 1;
  Expect(!CheckStated("s5", wrong_rank).empty(), "paper-table checker rejects a wrong rank");
  auto wrong_unfold = s5;
  wrong_unfold.unfold_count = 1;
  Expect(!CheckStated("s5", wrong_unfold).empty(),
         "paper-table checker rejects a wrong unfold count");
  Expect(CheckProperties(s5, s5.formula_class).empty(), "property checker accepts s5");
  Expect(!CheckProperties(s5, FormulaClass::kA1).empty(),
         "property checker rejects a class that changes under renaming");
  auto c_bounded = classify("s9");
  Expect(CheckProperties(c_bounded, c_bounded.formula_class).empty(),
         "property checker accepts s9 (class C)");
  c_bounded.bounded = true;
  Expect(!CheckProperties(c_bounded, c_bounded.formula_class).empty(),
         "property checker rejects a bounded class C");
  auto e_transformable = classify("s11");
  e_transformable.transformable_to_stable = true;
  Expect(!CheckProperties(e_transformable, e_transformable.formula_class).empty(),
         "property checker rejects a transformable class E");
  auto d_unbounded = classify("s10");
  d_unbounded.bounded = false;
  Expect(!CheckProperties(d_unbounded, d_unbounded.formula_class).empty(),
         "property checker rejects an unbounded class D");
  auto ss_not_tr = classify("s2a");
  ss_not_tr.transformable_to_stable = false;
  Expect(!CheckProperties(ss_not_tr, ss_not_tr.formula_class).empty(),
         "property checker rejects strongly stable but not transformable");

  std::cout << (failures == 0 ? "selftest passed" : "selftest FAILED") << "\n";
  return failures;
}

}  // namespace recurbench
