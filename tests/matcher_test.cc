#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "core/chase.h"
#include "hom/core.h"
#include "hom/matcher.h"
#include "kb/examples.h"
#include "kb/generators.h"
#include "model/predicate.h"
#include "util/fault.h"
#include "util/governor.h"
#include "reference_matcher.h"

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

TEST_F(MatcherTest, BooleanQueryHoldsIffItMaps) {
  AtomSet target = Edges({{a_, b_}, {b_, a_}});
  AtomSet query = Edges({{x_, y_}, {y_, x_}});
  EXPECT_TRUE(ExistsHomomorphism(query, target));
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
struct CoreChaseCounts {
  SearchCounts outside_guard;
  SearchCounts guard;
};

CoreChaseCounts StaircaseCoreChaseCounts() {
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
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  if (!run.ok()) return {};
  const ChaseStats& stats = run->stats;
  EXPECT_EQ(stats.match_search_nodes, injector.visits(FaultSite::kHomNode));
  return {{stats.match_search_nodes - stats.guard_search_nodes,
           stats.match_index_probes - stats.guard_index_probes,
           stats.match_column_scans - stats.guard_column_scans,
           stats.match_join_fallbacks, stats.match_index_builds},
          {stats.guard_search_nodes, stats.guard_index_probes,
           stats.guard_column_scans, 0, 0}};
}

// Trigger matching, satisfaction and ComputeCore: the counts of the
// whole-run pin taken before the guard's search was bounded by the frontier
// (nodes, probes and scans 4791, 4016, 389 in all), less the guard's share.
TEST(EstimateCacheParity, StaircaseCoreChaseOutsideTheGuard) {
  ExpectCounts(StaircaseCoreChaseCounts().outside_guard,
               {2333, 1873, 78, 0, 0});
}

// The still-core guard, whose case-(i) search stops once every atom the
// retraction moves has an image (plan/core_guard.h).
TEST(EstimateCacheParity, StaircaseCoreChaseGuard) {
  ExpectCounts(StaircaseCoreChaseCounts().guard, {794, 782, 8, 0, 0});
}

// RetractionSearch::MapsOnto against the brute-force enumerator of
// tests/reference_matcher.h, for every d in `ontos` and every other atom a
// of `instance` with d's predicate. Returns the seeds that have a
// retraction; `seeds` counts all of them.
size_t ExpectMapsOntoMatchesReference(const AtomSet& instance,
                                      const std::vector<Atom>& ontos,
                                      size_t* seeds) {
  RetractionSearch search(instance);
  size_t hits = 0;
  for (const Atom& d : ontos) {
    for (const Atom* a : instance.ByPredicate(d.predicate())) {
      if (*a == d) continue;
      const bool want = reference::ExistsRetractionOnto(instance, *a, d);
      EXPECT_EQ(search.MapsOnto(*a, d), want)
          << "seed " << *seeds << " of an instance of " << instance.size()
          << " atoms";
      ++*seeds;
      hits += want;
    }
  }
  return hits;
}

TEST_F(MatcherTest, RetractionSearchMatchesReferenceOnRandomInstances) {
  const PredicateId s = vocab_.MustPredicate("s", 3);
  const PredicateId u = vocab_.MustPredicate("u", 1);
  const std::vector<std::pair<PredicateId, size_t>> predicates = {
      {e_, 2}, {e_, 2}, {s, 3}, {u, 1}};
  std::vector<Term> terms;
  for (int i = 0; i < 6; ++i) {
    terms.push_back(vocab_.NamedVariable("V" + std::to_string(i)));
  }
  terms.push_back(a_);
  terms.push_back(b_);
  std::mt19937 rng(20231);
  size_t seeds = 0;
  size_t hits = 0;
  for (int round = 0; round < 400; ++round) {
    AtomSet instance;
    const size_t atoms = 3 + rng() % 8;
    for (size_t i = 0; i < atoms; ++i) {
      const auto& [predicate, arity] = predicates[rng() % predicates.size()];
      std::vector<Term> args;
      for (size_t k = 0; k < arity; ++k) {
        args.push_back(terms[rng() % terms.size()]);
      }
      instance.Insert(Atom(predicate, args));
    }
    hits += ExpectMapsOntoMatchesReference(instance, instance.Atoms(), &seeds);
  }
  // Both verdicts occur often enough for the comparison to mean something.
  EXPECT_GT(hits, seeds / 20);
  EXPECT_LT(hits, seeds - seeds / 20);
}

// The guard's inputs, A_i = F_{i-1} ∪ added atoms of a core chase, and the
// cored F_i, a core (no hits), at every `stride`-th step from `first`, on
// every seed. Returns the seeds of the A_i that have a retraction.
size_t ExpectMapsOntoMatchesReferenceOnCoreChase(const KnowledgeBase& kb,
                                                 size_t steps, size_t first,
                                                 size_t stride) {
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = steps;
  auto run = RunChase(kb, options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  if (!run.ok()) return 0;
  const Derivation& derivation = run->derivation;
  EXPECT_EQ(derivation.size(), steps + 1);
  size_t seeds = 0;
  size_t hits = 0;
  for (size_t i = first; i < derivation.size(); i += stride) {
    const AtomSet pre = derivation.PreSimplification(i);
    hits += ExpectMapsOntoMatchesReference(pre, pre.Atoms(), &seeds);
    const AtomSet cored = derivation.Instance(i);
    EXPECT_EQ(ExpectMapsOntoMatchesReference(cored, cored.Atoms(), &seeds),
              0u);
  }
  EXPECT_GT(seeds, hits);
  return hits;
}

TEST(RetractionSearchReference, StaircaseCoreChaseElements) {
  EXPECT_GT(ExpectMapsOntoMatchesReferenceOnCoreChase(StaircaseWorld().kb(),
                                                      60, 1, 2),
            0u);
}

TEST(RetractionSearchReference, ElevatorCoreChaseElements) {
  ExpectMapsOntoMatchesReferenceOnCoreChase(ElevatorWorld().kb(), 48, 6, 6);
}

}  // namespace
}  // namespace twchase
