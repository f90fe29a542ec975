#include <gtest/gtest.h>

#include "core/chase.h"
#include "kb/analysis.h"
#include "kb/examples.h"
#include "parser/parser.h"

namespace twchase {
namespace {

std::vector<Rule> RulesOf(const std::string& text) {
  auto program = ParseProgram(text);
  TWCHASE_CHECK_MSG(program.ok(), program.status().ToString());
  return program->kb.rules;
}

TEST(AnalysisTest, DatalogDetection) {
  EXPECT_TRUE(IsDatalog(RulesOf("t(X, Y) :- e(X, Y).")));
  EXPECT_FALSE(IsDatalog(RulesOf("r(Y, Z) :- r(X, Y).")));
  EXPECT_TRUE(IsDatalog(MakeTransitiveClosure(2).rules));
}

TEST(AnalysisTest, LinearDetection) {
  EXPECT_TRUE(IsLinear(RulesOf("r(Y, Z) :- r(X, Y).")));
  EXPECT_FALSE(IsLinear(RulesOf("t(X, Z) :- e(X, Y), e(Y, Z).")));
}

TEST(AnalysisTest, GuardedDetection) {
  // Guard atom contains all body variables.
  EXPECT_TRUE(IsGuarded(RulesOf("q(X) :- r(X, Y, Z), e(X, Y).")));
  EXPECT_FALSE(IsGuarded(RulesOf("q(X) :- e(X, Y), e(Y, Z).")));
  // Single-atom bodies are always guarded.
  EXPECT_TRUE(IsGuarded(RulesOf("r(Y, Z) :- r(X, Y).")));
}

TEST(AnalysisTest, FrontierGuardedDetection) {
  // Body e(X,Y), e(Y,Z): frontier {X, Z} not covered by one atom...
  EXPECT_FALSE(
      IsFrontierGuarded(RulesOf("q(X, Z) :- e(X, Y), e(Y, Z).")));
  // ...but with frontier {X} alone, e(X,Y) guards it.
  EXPECT_TRUE(IsFrontierGuarded(RulesOf("q(X, V) :- e(X, Y), e(Y, Z).")));
}

TEST(AnalysisTest, WeakAcyclicity) {
  // Datalog: no special edges at all.
  EXPECT_TRUE(IsWeaklyAcyclic(MakeTransitiveClosure(2).rules));
  // r(X,Y) → ∃Z r(Y,Z): special edge r.1/r.2 → r.2 and regular r.2 → r.1;
  // the special edge lies on a cycle → not weakly acyclic.
  EXPECT_FALSE(IsWeaklyAcyclic(MakeBtsNotFes().rules));
  // Non-recursive existential rule: p → ∃ q, no cycle.
  EXPECT_TRUE(IsWeaklyAcyclic(RulesOf("q(X, Z) :- p(X, Y).")));
  // Two-rule special cycle across predicates:
  // p(X,Y) → ∃Z q(Y,Z) (special p.2 → q.2);  q(X,Y) → p(X,Y) (q.2 → p.2).
  EXPECT_FALSE(IsWeaklyAcyclic(
      RulesOf("q(Y, Z) :- p(X, Y). p(X, Y) :- q(X, Y).")));
  // With the copy direction reversed (p(Y,X) :- q(X,Y)), the special edge
  // reaches only p.1, which feeds nothing: weakly acyclic.
  EXPECT_TRUE(IsWeaklyAcyclic(
      RulesOf("q(Y, Z) :- p(X, Y). p(Y, X) :- q(X, Y).")));
  // Projection away from the special position is also fine.
  EXPECT_TRUE(
      IsWeaklyAcyclic(RulesOf("q(Y, Z) :- p(X, Y). s(Y) :- q(X, Y).")));
}

TEST(AnalysisTest, WeakAcyclicityOfFesNotBts) {
  // fes-not-bts is fes, but weak acyclicity (a *sufficient* criterion)
  // does not capture it: the rule feeds its own body positions through an
  // existential.
  EXPECT_FALSE(IsWeaklyAcyclic(MakeFesNotBts().rules));
}

TEST(AnalysisTest, JointAcyclicity) {
  // Every weakly acyclic ruleset is jointly acyclic.
  EXPECT_TRUE(IsJointlyAcyclic(MakeTransitiveClosure(2).rules));
  EXPECT_TRUE(IsJointlyAcyclic(RulesOf("q(X, Z) :- p(X, Y).")));
  EXPECT_TRUE(IsJointlyAcyclic(MakeWeaklyAcyclicPipeline(3).rules));
  // bts-not-fes: the null flows back into the rule's own frontier → cyclic.
  EXPECT_FALSE(IsJointlyAcyclic(MakeBtsNotFes().rules));
}

TEST(AnalysisTest, JointlyAcyclicButNotWeaklyAcyclic) {
  // a(X) → ∃V b(X,V);  b(X,Y) ∧ b(Y,X) → a(Y).
  // WA: special edge a.1 → b.2 and regular b.2 → a.1 form a cycle.
  // JA: Move(V) = {b.2}; Y's body positions are {b.1, b.2} ⊄ Move(V), so V
  // never feeds a frontier completely: no dependency, acyclic.
  auto rules = RulesOf("b(X, V) :- a(X). a(Y) :- b(X, Y), b(Y, X).");
  EXPECT_FALSE(IsWeaklyAcyclic(rules));
  EXPECT_TRUE(IsJointlyAcyclic(rules));
  RulesetAnalysis analysis = AnalyzeRuleset(rules);
  EXPECT_TRUE(analysis.jointly_acyclic);
  EXPECT_FALSE(analysis.weakly_acyclic);
  EXPECT_TRUE(analysis.ImpliesTermination());
  EXPECT_NE(analysis.Summary().find("jointly-acyclic"), std::string::npos);
}

TEST(AnalysisTest, JointlyAcyclicRulesetChaseTerminates) {
  // The JA guarantee, checked empirically.
  KbBuilder b;
  Term x = b.V("X"), y = b.V("Y"), v = b.V("V");
  b.Fact("a", {b.C("c1")});
  b.Fact("b", {b.C("c2"), b.C("c1")});
  b.AddRule("mint", {b.A("a", {x})}, {b.A("b", {x, v})});
  b.AddRule("close", {b.A("b", {x, y}), b.A("b", {y, x})}, {b.A("a", {y})});
  KnowledgeBase kb = b.Build();
  ASSERT_TRUE(IsJointlyAcyclic(kb.rules));
  ChaseOptions options;
  options.variant = ChaseVariant::kSemiOblivious;
  options.limits.max_steps = 300;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->stop_reason, StopReason::kFixpoint);
}

TEST(AnalysisTest, PaperRulesets) {
  StaircaseWorld staircase;
  ElevatorWorld elevator;
  RulesetAnalysis h = AnalyzeRuleset(staircase.kb().rules);
  RulesetAnalysis v = AnalyzeRuleset(elevator.kb().rules);
  // Neither counterexample falls into the classical syntactic classes —
  // that is what makes them interesting.
  EXPECT_FALSE(h.guarded);
  EXPECT_FALSE(h.weakly_acyclic);
  EXPECT_FALSE(v.guarded);
  EXPECT_FALSE(v.weakly_acyclic);
  EXPECT_FALSE(h.ImpliesTermination());
  EXPECT_FALSE(v.ImpliesTermination());

  // bts-not-fes is guarded (hence bts — consistent with Figure 1).
  RulesetAnalysis g = AnalyzeRuleset(MakeBtsNotFes().rules);
  EXPECT_TRUE(g.guarded);
  EXPECT_TRUE(g.ImpliesTreewidthBounded());
  EXPECT_FALSE(g.ImpliesTermination());
}

TEST(AnalysisTest, SummaryString) {
  RulesetAnalysis a = AnalyzeRuleset(MakeTransitiveClosure(2).rules);
  EXPECT_NE(a.Summary().find("datalog"), std::string::npos);
  RulesetAnalysis none = AnalyzeRuleset(MakeFesNotBts().rules);
  EXPECT_EQ(none.Summary(), "none");
}

}  // namespace
}  // namespace twchase
