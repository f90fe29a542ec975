// End-to-end tests of Section 7 (the inflating elevator) against the chase
// engine:
//   * Proposition 7's engine: the ceiling chain I^v* is a treewidth-1
//     universal model — every chase element maps into it;
//   * Proposition 8 / Corollary 1: the core-chase sequence's treewidth grows
//     (1 → 2 → 3 within the test budget) and does not recur to a bound, and
//     the obstruction cores I^v_1 and I^v_2 appear inside it;
//   * the restricted chase on K_v stays cheap per element but its elements
//     contain the same obstructions.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>

#include "core/chase.h"
#include "core/measures.h"
#include "hom/core.h"
#include "hom/matcher.h"
#include "kb/examples.h"
#include "tw/treewidth.h"

namespace twchase {
namespace {

class ElevatorChaseTest : public ::testing::Test {
 protected:
  ElevatorChaseTest() {
    ChaseOptions options;
    options.variant = ChaseVariant::kCore;
    options.limits.max_steps = 50;
    auto run = RunChase(world_.kb(), options);
    TWCHASE_CHECK(run.ok());
    run_ = std::make_unique<ChaseResult>(std::move(run).value());
  }

  ElevatorWorld world_;
  std::unique_ptr<ChaseResult> run_;
};

TEST_F(ElevatorChaseTest, DoesNotTerminate) {
  EXPECT_NE(run_->stop_reason, StopReason::kFixpoint);
}

TEST_F(ElevatorChaseTest, TreewidthGrowsAndDoesNotRecur) {
  // Corollary 1: after some index, every element has treewidth ≥ m, for
  // every m the budget can reach. With 50 steps the bound reaches 3 and the
  // tail never falls back to 1.
  std::vector<int> series =
      MeasureSeries(run_->derivation, Measure::kTreewidthUpper);
  BoundednessSummary summary = SummarizeBoundedness(series, 10);
  EXPECT_GE(summary.uniform_bound, 3);
  EXPECT_GE(summary.recurring_estimate, 2);
  // The series starts at treewidth 1 (F_v is an edge): strict growth.
  EXPECT_EQ(series.front(), 1);
  // Once the treewidth reaches m it never drops below m again (the measured
  // series is non-decreasing up to the chase's local dynamics; assert the
  // weaker tail property which is what "recurring" boundedness denies).
  int last = series.back();
  EXPECT_GE(last, 3);
}

TEST_F(ElevatorChaseTest, ChaseElementsAreCoresAndEmbedInCeiling) {
  // Every element of the core chase is a core and universal for K_v, so it
  // maps into the treewidth-1 universal model I^v* (Proposition 7).
  AtomSet ceiling = world_.CeilingPrefix(120);
  const Derivation& d = run_->derivation;
  for (DerivationCursor c(d); !c.done(); c.Next()) {
    if (c.index() % 10 != 0) continue;
    EXPECT_TRUE(IsCore(c.instance())) << "step " << c.index();
    EXPECT_TRUE(ExistsHomomorphism(c.instance(), ceiling))
        << "step " << c.index();
  }
  EXPECT_TRUE(ExistsHomomorphism(d.Last(), ceiling));
}

TEST_F(ElevatorChaseTest, ChaseElementsEmbedInUniversalModelPrefix) {
  AtomSet prefix = world_.UniversalModelPrefix(30);
  const Derivation& d = run_->derivation;
  EXPECT_TRUE(ExistsHomomorphism(d.Last(), prefix));
}

TEST_F(ElevatorChaseTest, ObstructionIsInducedSubsetOfUniversalModel) {
  // Definition 12 builds I^v_n inside I^v: it must embed *injectively*
  // (variables to variables) into the model prefix — a sharper check than
  // plain homomorphic embedding. (Proposition 8(3)'s appearance inside
  // the core-chase sequence happens at steps f(n) beyond small prefixes;
  // ObstructionCoresFirstEmbedAtPinnedSteps pins f(1) and f(2).)
  for (int n = 1; n <= 3; ++n) {
    AtomSet obstruction = world_.CoreObstruction(n);
    AtomSet model = world_.UniversalModelPrefix(3 * n + 4);
    HomOptions options;
    options.limit = 1;
    options.injective = true;
    options.vars_to_vars = true;
    EXPECT_TRUE(FindHomomorphism(obstruction, model, options).has_value())
        << "n=" << n;
  }
}

TEST_F(ElevatorChaseTest, RestrictedChaseAlsoGrowsTreewidth) {
  // K_v is not bts either: its universal model of finite treewidth exists,
  // but chase sequences (restricted included) keep the growing box.
  ChaseOptions options;
  options.variant = ChaseVariant::kRestricted;
  options.limits.max_steps = 120;
  auto run = RunChase(world_.kb(), options);
  ASSERT_TRUE(run.ok());
  TreewidthResult tw = ComputeTreewidth(run->derivation.Last());
  EXPECT_GE(tw.lower_bound, 2);
}

TEST_F(ElevatorChaseTest, GrowthReachesTreewidthThreeWithinSixtySteps) {
  // The same growth over a 60-step run, measured every fifth element.
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 60;
  auto run = RunChase(world_.kb(), options);
  ASSERT_TRUE(run.ok());
  int max_tw = -1;
  for (DerivationCursor c(run->derivation); !c.done(); c.Next()) {
    if (c.index() % 5 != 0) continue;
    max_tw = std::max(max_tw, ComputeTreewidth(c.instance()).upper_bound);
  }
  EXPECT_GE(max_tw, 3);
}

TEST_F(ElevatorChaseTest, ObstructionCoresFirstEmbedAtPinnedSteps) {
  // Proposition 8(3), first half, on the live chase: the cores I^v_n of
  // Definition 12 appear inside the core-chase sequence. I^v_1 first embeds
  // (injectively, variables to variables) at step 67 and I^v_2 at step 373,
  // so f(1) = 67 and f(2) = 373 at default options. A fresh world, because
  // the fixture's run has already minted nulls in world_'s vocabulary.
  ElevatorWorld world;
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 373;
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->steps, 373u);
  const AtomSet obstruction[] = {world.CoreObstruction(1),
                                 world.CoreObstruction(2)};
  HomOptions embedding;
  embedding.limit = 1;
  embedding.injective = true;
  embedding.vars_to_vars = true;
  struct Probe {
    size_t step;
    int n;
    bool embeds;
  };
  const Probe probes[] = {{66, 1, false}, {67, 1, true},
                          {372, 2, false}, {373, 2, true}};
  size_t next = 0;
  for (DerivationCursor c(run->derivation); !c.done(); c.Next()) {
    if (next == std::size(probes)) break;
    const Probe& probe = probes[next];
    if (c.index() != probe.step) continue;
    EXPECT_EQ(FindHomomorphism(obstruction[probe.n - 1], c.instance(),
                               embedding)
                  .has_value(),
              probe.embeds)
        << "I^v_" << probe.n << " into F_" << probe.step;
    ++next;
  }
  EXPECT_EQ(next, std::size(probes));
}

}  // namespace
}  // namespace twchase
