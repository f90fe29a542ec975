#include <gtest/gtest.h>

#include "core/entailment.h"
#include "hom/matcher.h"
#include "kb/examples.h"
#include "parser/parser.h"

namespace twchase {
namespace {

AtomSet Query(const KnowledgeBase& kb, const std::string& text) {
  auto program = ParseProgram("? :- " + text + ".", kb.vocab);
  TWCHASE_CHECK_MSG(program.ok(), program.status().ToString());
  TWCHASE_CHECK(program->queries.size() == 1);
  return program->queries[0].atoms;
}

TEST(EntailmentTest, CoreChaseDecidesTerminatingKb) {
  auto kb = MakeTransitiveClosure(4);
  auto yes = DecideByCoreChase(kb, Query(kb, "t(n0, n4)"), 200);
  EXPECT_EQ(yes.verdict, EntailmentVerdict::kEntailed);
  auto no = DecideByCoreChase(kb, Query(kb, "t(n4, n0)"), 200);
  EXPECT_EQ(no.verdict, EntailmentVerdict::kNotEntailed);
}

TEST(EntailmentTest, NonTerminatingPositiveStillDetected) {
  auto kb = MakeBtsNotFes();
  // r-chain of length 3 is entailed even though the chase never stops.
  auto yes = DecideByCoreChase(
      kb, Query(kb, "r(X, Y), r(Y, Z), r(Z, W)"), 30);
  EXPECT_EQ(yes.verdict, EntailmentVerdict::kEntailed);
  // A loop is not entailed, but the chase alone cannot certify that.
  auto unknown = DecideByCoreChase(kb, Query(kb, "r(X, X)"), 30);
  EXPECT_EQ(unknown.verdict, EntailmentVerdict::kUnknown);
}

TEST(EntailmentTest, SaturationSemiDecision) {
  auto kb = MakeBtsNotFes();
  auto yes = SaturationSemiDecision(kb, Query(kb, "r(a, X)"), 30);
  EXPECT_EQ(yes.verdict, EntailmentVerdict::kEntailed);
  auto unknown = SaturationSemiDecision(kb, Query(kb, "r(X, a)"), 30);
  EXPECT_EQ(unknown.verdict, EntailmentVerdict::kUnknown);
}

TEST(EntailmentTest, CounterModelRefutesLoopQuery) {
  // K ⊭ ∃X r(X,X) for the bts-not-fes KB; a small finite model certifies it
  // (this is the implementable stand-in for Theorem 1's negative
  // semi-decision).
  auto kb = MakeBtsNotFes();
  AtomSet query = Query(kb, "r(X, X)");
  CounterModelOptions options;
  options.max_extra_elements = 2;
  auto model = FindFiniteCounterModel(kb, query, options);
  ASSERT_TRUE(model.has_value());
  EXPECT_TRUE(kb.IsModel(*model));
  // And the query really does not hold in it.
  EXPECT_FALSE(ExistsHomomorphism(query, *model));
}

TEST(EntailmentTest, CounterModelFailsForEntailedQuery) {
  auto kb = MakeBtsNotFes();
  AtomSet query = Query(kb, "r(a, X)");
  auto model = FindFiniteCounterModel(kb, query, CounterModelOptions{});
  EXPECT_FALSE(model.has_value());
}

TEST(EntailmentTest, CombinedProcedureDecidesBothWays) {
  auto kb = MakeBtsNotFes();
  CounterModelOptions cm;
  auto yes = CombinedEntailment(kb, Query(kb, "r(X, Y), r(Y, Z)"), 30, cm);
  EXPECT_EQ(yes.verdict, EntailmentVerdict::kEntailed);
  auto no = CombinedEntailment(kb, Query(kb, "r(X, X)"), 30, cm);
  EXPECT_EQ(no.verdict, EntailmentVerdict::kNotEntailed);
  EXPECT_EQ(no.method, "finite-counter-model");
}

TEST(EntailmentTest, CombinedUsesExactDecisionWhenChaseTerminates) {
  auto kb = MakeTransitiveClosure(3);
  CounterModelOptions cm;
  auto no = CombinedEntailment(kb, Query(kb, "t(n3, n0)"), 300, cm);
  EXPECT_EQ(no.verdict, EntailmentVerdict::kNotEntailed);
  EXPECT_EQ(no.method, "core-chase");
}

TEST(EntailmentTest, QueriesOnStaircase) {
  // Spot-check entailment on K_h: the first step's structure is entailed...
  StaircaseWorld world;
  const KnowledgeBase& kb = world.kb();
  auto yes = DecideByCoreChase(
      kb, Query(kb, "f(X), h(X, X), h(X, Y), v(X, Z)"), 25);
  EXPECT_EQ(yes.verdict, EntailmentVerdict::kEntailed);
  // ...whereas a c-labelled floor cell is not (f-cells never carry c);
  // within the budget the chase cannot refute it, so: unknown.
  auto unknown = DecideByCoreChase(kb, Query(kb, "f(X), c(X)"), 25);
  EXPECT_EQ(unknown.verdict, EntailmentVerdict::kUnknown);
}

TEST(EntailmentTest, RobustAggregationDecision) {
  // Terminating KB: exact both ways.
  auto kb = MakeTransitiveClosure(3);
  auto yes = DecideByRobustAggregation(kb, Query(kb, "t(n0, n3)"), 200);
  EXPECT_EQ(yes.verdict, EntailmentVerdict::kEntailed);
  EXPECT_EQ(yes.method, "robust-aggregation");
  auto no = DecideByRobustAggregation(kb, Query(kb, "t(n3, n0)"), 200);
  EXPECT_EQ(no.verdict, EntailmentVerdict::kNotEntailed);

  // Non-terminating core-bts KB (the staircase): positive queries about the
  // column structure are found in D⊛'s prefix.
  StaircaseWorld world;
  const KnowledgeBase& kh = world.kb();
  auto program = ParseProgram("? :- f(X), v(X, Y), v(Y, Z), c(Y), c(Z).",
                              kh.vocab);
  ASSERT_TRUE(program.ok());
  auto column = DecideByRobustAggregation(kh, program->queries[0].atoms, 30);
  EXPECT_EQ(column.verdict, EntailmentVerdict::kEntailed);
}

TEST(EntailmentTest, MinimizeQueryShrinksRedundantPatterns) {
  auto program =
      ParseProgram("? :- r(X, Y), r(X, Z), r(W, Y).");  // core: r(X, Y)
  ASSERT_TRUE(program.ok());
  AtomSet minimized = MinimizeQuery(program->queries[0].atoms);
  EXPECT_EQ(minimized.size(), 1u);
  // Minimization preserves answers.
  auto data = ParseProgram("r(a, b). r(b, b).", program->kb.vocab);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(ExistsHomomorphism(program->queries[0].atoms, data->kb.facts),
            ExistsHomomorphism(minimized, data->kb.facts));
}

TEST(EntailmentTest, DovetailLoopDecidesBothDirections) {
  auto kb = MakeBtsNotFes();
  auto yes = DovetailEntailment(kb, Query(kb, "r(a, X)"), 4, 5);
  EXPECT_EQ(yes.verdict, EntailmentVerdict::kEntailed);
  auto no = DovetailEntailment(kb, Query(kb, "r(X, X)"), 4, 5);
  EXPECT_EQ(no.verdict, EntailmentVerdict::kNotEntailed);
  EXPECT_NE(no.method.find("dovetail"), std::string::npos);
  // A query needing a long chase: the budget doubles until it is found.
  auto deep =
      DovetailEntailment(kb, Query(kb, "r(A,B), r(B,C), r(C,D), r(D,E)"), 1, 8);
  EXPECT_EQ(deep.verdict, EntailmentVerdict::kEntailed);
}

TEST(EntailmentTest, EmptyDomainCounterModelSearch) {
  // A KB whose facts have terms still works with zero extra elements.
  auto kb = MakeTransitiveClosure(2);
  CounterModelOptions options;
  options.max_extra_elements = 0;
  auto model = FindFiniteCounterModel(kb, Query(kb, "t(n2, n0)"), options);
  ASSERT_TRUE(model.has_value());
  EXPECT_TRUE(kb.IsModel(*model));
}

}  // namespace
}  // namespace twchase
