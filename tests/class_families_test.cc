// Parameterised sweeps over the generated ruleset families, tying the
// static analyzers (kb/analysis) to the observable chase behaviour:
//   * guarded chains: bts behaviour — non-terminating, treewidth-1 chase;
//   * weakly acyclic pipelines: fes behaviour — termination for every
//     variant, with depth growing in the number of stages.
#include <gtest/gtest.h>

#include "core/chase.h"
#include "core/measures.h"
#include "kb/analysis.h"
#include "kb/examples.h"

namespace twchase {
namespace {

class GuardedChainFamily : public ::testing::TestWithParam<int> {};

TEST_P(GuardedChainFamily, StaticallyGuarded) {
  auto kb = MakeGuardedChain(GetParam());
  RulesetAnalysis analysis = AnalyzeRuleset(kb.rules);
  EXPECT_TRUE(analysis.guarded);
  EXPECT_TRUE(analysis.linear);
  EXPECT_FALSE(analysis.weakly_acyclic);  // the chain loops through ∃
  EXPECT_TRUE(analysis.ImpliesTreewidthBounded());
}

TEST_P(GuardedChainFamily, ChaseIsTreewidthOnePath) {
  auto kb = MakeGuardedChain(GetParam());
  ChaseOptions options;
  options.variant = ChaseVariant::kRestricted;
  options.limits.max_steps = 30;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  EXPECT_NE(run->stop_reason, StopReason::kFixpoint);
  std::vector<int> tw = MeasureSeries(run->derivation, Measure::kTreewidthUpper);
  BoundednessSummary summary = SummarizeBoundedness(tw, 5);
  EXPECT_LE(summary.uniform_bound, 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GuardedChainFamily, ::testing::Values(1, 2, 4));

class WeaklyAcyclicFamily : public ::testing::TestWithParam<int> {};

TEST_P(WeaklyAcyclicFamily, StaticallyWeaklyAcyclic) {
  auto kb = MakeWeaklyAcyclicPipeline(GetParam());
  RulesetAnalysis analysis = AnalyzeRuleset(kb.rules);
  EXPECT_TRUE(analysis.weakly_acyclic);
  EXPECT_FALSE(analysis.datalog);
  EXPECT_TRUE(analysis.ImpliesTermination());
}

TEST_P(WeaklyAcyclicFamily, EveryVariantTerminates) {
  // Weak acyclicity guarantees termination of the (semi-)oblivious chase,
  // hence of the leaner variants too.
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
        ChaseVariant::kRestricted, ChaseVariant::kFrugal, ChaseVariant::kCore}) {
    auto kb = MakeWeaklyAcyclicPipeline(GetParam());
    ChaseOptions options;
    options.variant = variant;
    options.limits.max_steps = 500;
    auto run = RunChase(kb, options);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run->stop_reason, StopReason::kFixpoint)
        << ChaseVariantName(variant) << " stages=" << GetParam();
    EXPECT_TRUE(kb.IsModel(run->derivation.Last()))
        << ChaseVariantName(variant);
  }
}

TEST_P(WeaklyAcyclicFamily, DepthGrowsWithStages) {
  int stages = GetParam();
  auto kb = MakeWeaklyAcyclicPipeline(stages);
  ChaseOptions options;
  options.variant = ChaseVariant::kRestricted;
  options.limits.max_steps = 500;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->stop_reason, StopReason::kFixpoint);
  // Two source constants thread through `stages` mint/pass pairs: at least
  // 2 atoms per stage beyond the 2 facts.
  EXPECT_GE(run->derivation.Last().size(),
            static_cast<size_t>(2 + 4 * stages));
}

INSTANTIATE_TEST_SUITE_P(Sizes, WeaklyAcyclicFamily,
                         ::testing::Values(1, 2, 3, 5));

}  // namespace
}  // namespace twchase
