// Golden regression tests: exact expected values for the deterministic
// engine on the paper's KBs. These pin the derivation skeletons so that
// engine refactors cannot silently change the reproduced series.
#include <gtest/gtest.h>

#include "core/chase.h"
#include "core/measures.h"
#include "kb/examples.h"

namespace twchase {
namespace {

TEST(GoldenTest, StaircaseCoreChaseSizeSeries) {
  StaircaseWorld world;
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 24;
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok());
  std::vector<int> sizes = MeasureSeries(run->derivation, Measure::kSize);
  // Verified against Table 1's schedule: collapse sizes 5, 8, 11, 14 at
  // steps 3, 8, 15, 24 (columns C_1..C_4 have 3k+2 atoms).
  std::vector<int> expected = {2,  7,  9,  5,  10, 13, 15, 16, 8,
                               13, 16, 19, 21, 22, 23, 11, 16, 19,
                               22, 25, 27, 28, 29, 30, 14};
  EXPECT_EQ(sizes, expected);
}

TEST(GoldenTest, StaircaseCollapsePositions) {
  StaircaseWorld world;
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 48;
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok());
  std::vector<size_t> collapses;
  for (size_t i = 1; i < run->derivation.size(); ++i) {
    if (run->derivation.step(i).instance_size <
        run->derivation.step(i - 1).instance_size) {
      collapses.push_back(i);
    }
  }
  // Steps between collapses: 5, 7, 9, 11, 13 (= 2k + 3).
  std::vector<size_t> expected = {3, 8, 15, 24, 35, 48};
  EXPECT_EQ(collapses, expected);
}

TEST(GoldenTest, ElevatorCoreChaseSizePrefix) {
  ElevatorWorld world;
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 12;
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok());
  std::vector<int> sizes = MeasureSeries(run->derivation, Measure::kSize);
  ASSERT_EQ(sizes.size(), 13u);
  EXPECT_EQ(sizes.front(), 4);  // F_v
  // Deterministic engine: the 12-step prefix is fixed.
  std::vector<int> expected = {4, 7, 8, 9, 10, 12, 14, 16, 18, 21, 24, 26, 28};
  EXPECT_EQ(sizes, expected);
}

TEST(GoldenTest, FesNotBtsFixpoint) {
  auto kb = MakeFesNotBts();
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 2000;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->stop_reason, StopReason::kFixpoint);
  EXPECT_EQ(run->steps, 6u);
  EXPECT_EQ(run->derivation.Last().size(), 6u);
}

}  // namespace
}  // namespace twchase
