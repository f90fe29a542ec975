#include <gtest/gtest.h>

#include "core/chase.h"
#include "core/measures.h"
#include "kb/examples.h"

namespace twchase {
namespace {

TEST(MeasuresTest, SizeSeriesMatchesInstances) {
  auto kb = MakeTransitiveClosure(3);
  ChaseOptions options;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  std::vector<int> sizes = MeasureSeries(run->derivation, Measure::kSize);
  ASSERT_EQ(sizes.size(), run->derivation.size());
  for (DerivationCursor c(run->derivation); !c.done(); c.Next()) {
    EXPECT_EQ(sizes[c.index()], static_cast<int>(c.instance().size()));
  }
  // Monotone for a restricted chase.
  for (size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_GE(sizes[i], sizes[i - 1]);
  }
}

TEST(MeasuresTest, TreewidthBoundsOrdered) {
  StaircaseWorld world;
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 15;
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok());
  std::vector<int> ubs =
      MeasureSeries(run->derivation, Measure::kTreewidthUpper);
  std::vector<int> lbs =
      MeasureSeries(run->derivation, Measure::kTreewidthLower);
  ASSERT_EQ(ubs.size(), lbs.size());
  for (size_t i = 0; i < ubs.size(); ++i) {
    EXPECT_LE(lbs[i], ubs[i]) << "step " << i;
  }
}

TEST(MeasuresTest, BoundednessSummary) {
  std::vector<int> series = {1, 2, 3, 2, 1, 1, 2, 1};
  BoundednessSummary s = SummarizeBoundedness(series, 4);
  EXPECT_EQ(s.uniform_bound, 3);
  EXPECT_EQ(s.recurring_estimate, 1);  // min over last 4
  EXPECT_EQ(s.final_value, 1);
}

TEST(MeasuresTest, BoundednessSummaryEdgeCases) {
  EXPECT_EQ(SummarizeBoundedness({}, 3).uniform_bound, -1);
  BoundednessSummary one = SummarizeBoundedness({5}, 10);
  EXPECT_EQ(one.uniform_bound, 5);
  EXPECT_EQ(one.recurring_estimate, 5);
  // Window of zero is clamped to one.
  BoundednessSummary clamp = SummarizeBoundedness({1, 9}, 0);
  EXPECT_EQ(clamp.recurring_estimate, 9);
}

TEST(MeasuresTest, UniformImpliesRecurring) {
  // For any series, the recurring estimate never exceeds the uniform bound
  // (Section 5: uniform boundedness implies recurring boundedness).
  std::vector<int> series = {3, 1, 4, 1, 5, 2};
  for (size_t w = 1; w <= series.size(); ++w) {
    BoundednessSummary s = SummarizeBoundedness(series, w);
    EXPECT_LE(s.recurring_estimate, s.uniform_bound);
  }
}

}  // namespace
}  // namespace twchase
