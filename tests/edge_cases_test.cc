// Edge cases across the pipeline: degenerate rules, higher-arity
// predicates, self-referential patterns, empty structures.
#include <gtest/gtest.h>

#include "core/chase.h"
#include "hom/core.h"
#include "hom/matcher.h"
#include "kb/knowledge_base.h"
#include "parser/parser.h"
#include "tw/treewidth.h"

namespace twchase {
namespace {

TEST(EdgeCasesTest, NoOpRuleTerminatesImmediately) {
  // Head ⊆ body: every trigger is satisfied by its own match.
  auto program = ParseProgram("e(a, b). e(X, Y) :- e(X, Y).");
  ASSERT_TRUE(program.ok());
  for (ChaseVariant variant :
       {ChaseVariant::kRestricted, ChaseVariant::kFrugal, ChaseVariant::kCore}) {
    ChaseOptions options;
    options.variant = variant;
    auto run = RunChase(program->kb, options);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run->stop_reason, StopReason::kFixpoint)
        << ChaseVariantName(variant);
    EXPECT_EQ(run->steps, 0u) << ChaseVariantName(variant);
  }
  // The oblivious chase applies it once per match, then stops (keys).
  ChaseOptions oblivious;
  oblivious.variant = ChaseVariant::kOblivious;
  auto run = RunChase(program->kb, oblivious);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->stop_reason, StopReason::kFixpoint);
  EXPECT_EQ(run->derivation.Last().size(), 1u);
}

TEST(EdgeCasesTest, TernaryPredicatesThroughChaseAndTreewidth) {
  auto program = ParseProgram(R"(
    t3(a, b, c).
    [widen] t3(Y, Z, W) :- t3(X, Y, Z).
  )");
  ASSERT_TRUE(program.ok());
  ChaseOptions options;
  options.variant = ChaseVariant::kRestricted;
  options.limits.max_steps = 10;
  auto run = RunChase(program->kb, options);
  ASSERT_TRUE(run.ok());
  EXPECT_NE(run->stop_reason, StopReason::kFixpoint);
  // Each ternary atom is a triangle in the Gaifman graph; the chain of
  // overlapping triangles has treewidth 2.
  TreewidthResult tw = ComputeTreewidth(run->derivation.Last());
  EXPECT_EQ(tw.value().value_or(-1), 2);
}

TEST(EdgeCasesTest, RuleWithRepeatedFrontierVariable) {
  auto program = ParseProgram("e(a, a). loop(X) :- e(X, X).");
  ASSERT_TRUE(program.ok());
  ChaseOptions options;
  auto run = RunChase(program->kb, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->stop_reason, StopReason::kFixpoint);
  EXPECT_EQ(run->derivation.Last().size(), 2u);
}

TEST(EdgeCasesTest, HeadRepeatsBodyAtomPlusFresh) {
  // Head contains a body atom verbatim; only the fresh part matters.
  auto program = ParseProgram("p(a). p(X), q(X, Y) :- p(X).");
  ASSERT_TRUE(program.ok());
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  auto run = RunChase(program->kb, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->stop_reason, StopReason::kFixpoint);
  EXPECT_EQ(run->derivation.Last().size(), 2u);  // p(a), q(a, _null)
}

TEST(EdgeCasesTest, DisconnectedRuleBody) {
  // Cross-product body: triggers are pairs.
  auto program = ParseProgram("p(a). p(b). r(X, Y) :- p(X), p(Y).");
  ASSERT_TRUE(program.ok());
  ChaseOptions options;
  auto run = RunChase(program->kb, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->stop_reason, StopReason::kFixpoint);
  // r over all 4 ordered pairs + 2 facts.
  EXPECT_EQ(run->derivation.Last().size(), 6u);
}

TEST(EdgeCasesTest, FactsOnlyKbIsFixpoint) {
  auto program = ParseProgram("e(a, b).");
  ASSERT_TRUE(program.ok());
  ChaseOptions options;
  auto run = RunChase(program->kb, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->stop_reason, StopReason::kFixpoint);
  EXPECT_EQ(run->rounds, 1u);
}

TEST(EdgeCasesTest, EmptyFactsWithRules) {
  // No facts: no triggers, immediate fixpoint, vacuous model.
  auto program = ParseProgram("q(Y) :- p(X).");
  ASSERT_TRUE(program.ok());
  ChaseOptions options;
  auto run = RunChase(program->kb, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->stop_reason, StopReason::kFixpoint);
  EXPECT_TRUE(run->derivation.Last().empty());
}

TEST(EdgeCasesTest, CoreOfEmptySetIsEmpty) {
  AtomSet empty;
  CoreResult result = ComputeCore(empty);
  EXPECT_TRUE(result.core.empty());
  EXPECT_TRUE(IsCore(empty));
}

TEST(EdgeCasesTest, SelfLoopOnlyInstance) {
  Vocabulary vocab;
  PredicateId e = vocab.MustPredicate("e", 2);
  Term x = vocab.NamedVariable("X");
  AtomSet loop;
  loop.Insert(Atom(e, {x, x}));
  EXPECT_TRUE(IsCore(loop));
  EXPECT_EQ(ComputeTreewidth(loop).value().value_or(-2), 0);
}

TEST(EdgeCasesTest, WideAtomCliqueTreewidth) {
  Vocabulary vocab;
  PredicateId p5 = vocab.MustPredicate("p5", 5);
  std::vector<Term> args;
  for (int i = 0; i < 5; ++i) {
    args.push_back(vocab.NamedVariable("A" + std::to_string(i)));
  }
  AtomSet wide;
  wide.Insert(Atom(p5, args));
  // One 5-ary atom = K5 in the Gaifman graph = treewidth 4.
  EXPECT_EQ(ComputeTreewidth(wide).value().value_or(-1), 4);
}

TEST(EdgeCasesTest, ChaseWithConstantsInRuleHead) {
  auto program = ParseProgram("p(a). marked(X, special) :- p(X).");
  ASSERT_TRUE(program.ok());
  ChaseOptions options;
  auto run = RunChase(program->kb, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->stop_reason, StopReason::kFixpoint);
  auto q = ParseProgram("? :- marked(a, special).", program->kb.vocab);
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(ExistsHomomorphism(q->queries[0].atoms, run->derivation.Last()));
}

}  // namespace
}  // namespace twchase
