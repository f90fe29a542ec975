#include <gtest/gtest.h>

#include "core/chase.h"
#include "hom/core.h"
#include "hom/matcher.h"
#include "kb/examples.h"
#include "kb/generators.h"
#include "model/predicate.h"
#include "util/fault.h"
#include "util/governor.h"

namespace twchase {
namespace {

class MatcherTest : public ::testing::Test {
 protected:
  MatcherTest() {
    e_ = vocab_.MustPredicate("e", 2);
    a_ = vocab_.Constant("a");
    b_ = vocab_.Constant("b");
    c_ = vocab_.Constant("c");
    x_ = vocab_.NamedVariable("X");
    y_ = vocab_.NamedVariable("Y");
    z_ = vocab_.NamedVariable("Z");
  }

  AtomSet Edges(std::initializer_list<std::pair<Term, Term>> edges) {
    AtomSet out;
    for (const auto& [s, t] : edges) out.Insert(Atom(e_, {s, t}));
    return out;
  }

  Vocabulary vocab_;
  PredicateId e_;
  Term a_, b_, c_, x_, y_, z_;
};

TEST_F(MatcherTest, FindsSimpleMatch) {
  AtomSet target = Edges({{a_, b_}, {b_, c_}});
  AtomSet pattern = Edges({{x_, y_}, {y_, z_}});
  auto hom = FindHomomorphism(pattern, target);
  ASSERT_TRUE(hom.has_value());
  EXPECT_EQ(hom->Apply(x_), a_);
  EXPECT_EQ(hom->Apply(y_), b_);
  EXPECT_EQ(hom->Apply(z_), c_);
}

TEST_F(MatcherTest, RespectsConstants) {
  AtomSet target = Edges({{a_, b_}});
  AtomSet pattern_ok = Edges({{a_, x_}});
  AtomSet pattern_bad = Edges({{b_, x_}});
  EXPECT_TRUE(ExistsHomomorphism(pattern_ok, target));
  EXPECT_FALSE(ExistsHomomorphism(pattern_bad, target));
}

TEST_F(MatcherTest, RepeatedVariableForcesSameImage) {
  AtomSet target = Edges({{a_, b_}});
  AtomSet loop_pattern = Edges({{x_, x_}});
  EXPECT_FALSE(ExistsHomomorphism(loop_pattern, target));
  target.Insert(Atom(e_, {c_, c_}));
  auto hom = FindHomomorphism(loop_pattern, target);
  ASSERT_TRUE(hom.has_value());
  EXPECT_EQ(hom->Apply(x_), c_);
}

TEST_F(MatcherTest, PathsAndCycles) {
  Vocabulary vocab;
  AtomSet path5 = MakePathInstance(&vocab, "e", 5);
  // A path folds into a 2-cycle by alternating endpoints.
  AtomSet cycle2 = MakeCycleInstance(&vocab, "e", 2);
  EXPECT_TRUE(ExistsHomomorphism(path5, cycle2));
  // A directed 3-cycle cannot map into an acyclic path.
  AtomSet cycle3 = MakeCycleInstance(&vocab, "e", 3);
  EXPECT_FALSE(ExistsHomomorphism(cycle3, path5));
}

TEST_F(MatcherTest, DirectedCycleDivisibility) {
  // A directed m-cycle maps into a directed n-cycle iff n divides m.
  Vocabulary vocab;
  AtomSet c3 = MakeCycleInstance(&vocab, "e", 3);
  Vocabulary vocab2;
  AtomSet c4 = MakeCycleInstance(&vocab2, "e", 4);
  Vocabulary vocab3;
  AtomSet c6 = MakeCycleInstance(&vocab3, "e", 6);
  EXPECT_FALSE(ExistsHomomorphism(c3, c4));
  EXPECT_FALSE(ExistsHomomorphism(c4, c3));
  EXPECT_TRUE(ExistsHomomorphism(c6, c3));
  EXPECT_FALSE(ExistsHomomorphism(c3, c6));
}

TEST_F(MatcherTest, FindAllEnumeratesEveryHom) {
  AtomSet target = Edges({{a_, b_}, {b_, c_}});
  AtomSet pattern = Edges({{x_, y_}});
  HomOptions options;
  options.limit = 0;
  auto all = FindAllHomomorphisms(pattern, target, options);
  EXPECT_EQ(all.size(), 2u);
}

TEST_F(MatcherTest, LimitStopsEarly) {
  AtomSet target = Edges({{a_, b_}, {b_, c_}});
  AtomSet pattern = Edges({{x_, y_}});
  HomOptions options;
  options.limit = 1;
  auto some = FindAllHomomorphisms(pattern, target, options);
  EXPECT_EQ(some.size(), 1u);
}

TEST_F(MatcherTest, SeedConstrainsSearch) {
  AtomSet target = Edges({{a_, b_}, {b_, c_}});
  AtomSet pattern = Edges({{x_, y_}});
  Substitution seed;
  seed.Bind(x_, b_);
  EXPECT_TRUE(ExistsHomomorphismExtending(pattern, target, seed));
  Substitution bad_seed;
  bad_seed.Bind(x_, c_);
  EXPECT_FALSE(ExistsHomomorphismExtending(pattern, target, bad_seed));
}

TEST_F(MatcherTest, ForbiddenImageTermExcludesAtoms) {
  AtomSet target = Edges({{a_, b_}, {b_, c_}});
  AtomSet pattern = Edges({{x_, y_}});
  HomOptions options;
  options.limit = 0;
  options.forbidden_image_term = a_;
  auto homs = FindAllHomomorphisms(pattern, target, options);
  ASSERT_EQ(homs.size(), 1u);
  EXPECT_EQ(homs[0].Apply(x_), b_);
}

TEST_F(MatcherTest, InjectiveModeRejectsMerging) {
  AtomSet target = Edges({{a_, a_}});
  AtomSet pattern = Edges({{x_, y_}});
  EXPECT_TRUE(ExistsHomomorphism(pattern, target));
  HomOptions options;
  options.injective = true;
  EXPECT_FALSE(FindHomomorphism(pattern, target, options).has_value());
}

TEST_F(MatcherTest, VarsToVarsRejectsConstants) {
  AtomSet target = Edges({{a_, b_}});
  AtomSet pattern = Edges({{x_, y_}});
  HomOptions options;
  options.vars_to_vars = true;
  EXPECT_FALSE(FindHomomorphism(pattern, target, options).has_value());
  target.Insert(Atom(e_, {z_, z_}));
  EXPECT_TRUE(FindHomomorphism(pattern, target, options).has_value());
}

TEST_F(MatcherTest, EmptyPatternHasExactlyTheSeed) {
  AtomSet target = Edges({{a_, b_}});
  AtomSet pattern;
  HomOptions options;
  options.limit = 0;
  auto homs = FindAllHomomorphisms(pattern, target, options);
  ASSERT_EQ(homs.size(), 1u);
  EXPECT_TRUE(homs[0].empty());
}

TEST_F(MatcherTest, EntailsHelper) {
  AtomSet target = Edges({{a_, b_}, {b_, a_}});
  AtomSet query = Edges({{x_, y_}, {y_, x_}});
  EXPECT_TRUE(Entails(target, query));
}

// Estimate-cache parity. The matcher keeps each pattern atom's candidate
// estimate and re-scores only the atoms a binding touches; the cached values
// equal a full re-score, so every search visits the same nodes in the same
// order. The pinned counts were taken from the matcher that re-scored every
// atom at every node: any drift means the search order changed.
struct SearchCounts {
  uint64_t nodes = 0;
  uint64_t index_probes = 0;
  uint64_t column_scans = 0;
  uint64_t join_fallbacks = 0;
  uint64_t index_builds = 0;
};

void ExpectCounts(const SearchCounts& got, const SearchCounts& want) {
  EXPECT_EQ(got.nodes, want.nodes);
  EXPECT_EQ(got.index_probes, want.index_probes);
  EXPECT_EQ(got.column_scans, want.column_scans);
  EXPECT_EQ(got.join_fallbacks, want.join_fallbacks);
  EXPECT_EQ(got.index_builds, want.index_builds);
}

// ComputeCore on the last element of a 40-step restricted chase.
SearchCounts ComputeCoreCounts(const KnowledgeBase& kb) {
  ChaseOptions options;
  options.variant = ChaseVariant::kRestricted;
  options.limits.max_steps = 40;
  auto run = RunChase(kb, options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  if (!run.ok()) return {};
  FaultInjector injector;
  MatchCounters counters;
  ResourceGovernor governor{ResourceLimits{}};
  GovernorScope ambient(&governor);
  FaultInjectorScope faults(&injector);
  MatchCountersScope scope(&counters);
  ComputeCore(run->derivation.Last());
  return {injector.visits(FaultSite::kHomNode), counters.index_probes,
          counters.column_scans, counters.join_fallbacks,
          counters.index_builds};
}

TEST(EstimateCacheParity, ComputeCoreFoldingTheRestrictedStaircase) {
  ExpectCounts(ComputeCoreCounts(StaircaseWorld().kb()),
               {2490, 2257, 228, 0, 22});
}

TEST(EstimateCacheParity, ComputeCoreProvingTheRestrictedElevatorIsACore) {
  ExpectCounts(ComputeCoreCounts(ElevatorWorld().kb()),
               {79149, 77111, 2038, 0, 5});
}

// The core chase's searches: trigger matching, satisfaction, the still-core
// guard and the ComputeCore calls it does not certify away. Recorded with
// the estimate cache; the two cases above pin the full re-score.
TEST(EstimateCacheParity, StaircaseCoreChase) {
  StaircaseWorld world;
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 30;
  FaultInjector injector;
  StatusOr<ChaseResult> run = Status::Internal("not run");
  {
    FaultInjectorScope faults(&injector);
    run = RunChase(world.kb(), options);
  }
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const ChaseStats& stats = run->stats;
  ExpectCounts({injector.visits(FaultSite::kHomNode), stats.match_index_probes,
                stats.match_column_scans, stats.match_join_fallbacks,
                stats.match_index_builds},
               {4791, 4016, 389, 0, 0});
}

}  // namespace
}  // namespace twchase
