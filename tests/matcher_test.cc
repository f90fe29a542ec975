#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <set>
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

// Counting allocator for the allocation pins below: every operator new of
// this test binary counts while the calling thread's flag is up, and
// g_live_bytes follows the heap bytes held by all threads. All the
// unaligned forms are replaced, so that each pair allocates with malloc and
// frees with free.
namespace {
thread_local bool g_count_allocations = false;
thread_local size_t g_allocations = 0;
std::atomic<int64_t> g_live_bytes{0};

void* CountedAllocation(std::size_t size) noexcept {
  if (g_count_allocations) ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) {
    g_live_bytes += static_cast<int64_t>(malloc_usable_size(p));
  }
  return p;
}

void CountedFree(void* p) noexcept {
  if (p != nullptr) {
    g_live_bytes -= static_cast<int64_t>(malloc_usable_size(p));
  }
  std::free(p);
}
}  // namespace

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  void* p = CountedAllocation(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocation(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocation(size);
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
#pragma GCC diagnostic pop

namespace twchase {
namespace {

// The operator new calls `fn` makes on this thread.
template <typename Fn>
size_t AllocationsOf(Fn fn) {
  g_allocations = 0;
  g_count_allocations = true;
  fn();
  g_count_allocations = false;
  return g_allocations;
}

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
// retraction moves has an image (plan/core_guard.h). The consistency pass
// refutes most seeds before their search starts: without it the guard
// visited 794 nodes with 782 probes and 8 scans.
TEST(EstimateCacheParity, StaircaseCoreChaseGuard) {
  ExpectCounts(StaircaseCoreChaseCounts().guard, {120, 108, 8, 0, 0});
}

// Seeds a ↦ d of RetractionSearch checked against the brute-force
// enumerator of tests/reference_matcher.h.
struct SeedTally {
  size_t seeds = 0;
  size_t hits = 0;     // seeds some retraction extends
  size_t refuted = 0;  // seeds the consistency pass alone refutes
  size_t by_signature = 0;  // seeds the signature rule alone refutes
  size_t by_pairs = 0;  // seeds the rule refutes on exact pair sets
};

// sig(t) by definition: the (predicate, position) pairs at which t occurs
// in a live atom of `instance`.
std::set<std::pair<PredicateId, size_t>> PairsOf(const AtomSet& instance,
                                                  Term t) {
  std::set<std::pair<PredicateId, size_t>> pairs;
  for (const Atom* atom : instance.ByTerm(t)) {
    for (size_t k = 0; k < atom->arity(); ++k) {
      if (atom->arg(k) == t) pairs.emplace(atom->predicate(), k);
    }
  }
  return pairs;
}

// The signature rule on exact pair sets, where no two pairs share a bit.
bool RefutedByPairs(const AtomSet& instance, const Atom& from,
                    const Atom& onto) {
  for (size_t k = 0; k < from.arity(); ++k) {
    if (!from.arg(k).is_variable()) continue;
    const auto need = PairsOf(instance, from.arg(k));
    const auto have = PairsOf(instance, onto.arg(k));
    if (!std::includes(have.begin(), have.end(), need.begin(), need.end())) {
      return true;
    }
  }
  return false;
}

// For every d in `ontos` and every other atom a of `instance` with d's
// predicate: MapsOnto agrees with the reference; the consistency pass and
// the signature rule, called directly, never refute a seed the reference
// extends (the soundness rules of plan/core_guard.h); and every seed the
// signature rule refutes, the pass refutes too, so the rule saves the pass
// and the compile but never a search node. The rule's masks refute no seed
// that the exact pair sets keep.
void ExpectMapsOntoMatchesReference(const AtomSet& instance,
                                    const std::vector<Atom>& ontos,
                                    SeedTally* tally) {
  RetractionSearch search(instance);
  for (const Atom& d : ontos) {
    for (const Atom* a : instance.ByPredicate(d.predicate())) {
      if (*a == d) continue;
      const bool want = reference::ExistsRetractionOnto(instance, *a, d);
      const bool by_signature = search.RefutedBySignature(*a, d);
      const bool refuted = search.RefutedByConsistency(*a, d);
      EXPECT_EQ(search.MapsOnto(*a, d), want)
          << "seed " << tally->seeds << " of an instance of "
          << instance.size() << " atoms";
      EXPECT_FALSE(want && refuted)
          << "the consistency pass refuted seed " << tally->seeds
          << ", which a retraction extends";
      EXPECT_FALSE(want && by_signature)
          << "the signature rule refuted seed " << tally->seeds
          << ", which a retraction extends";
      EXPECT_TRUE(refuted || !by_signature)
          << "the signature rule refuted seed " << tally->seeds
          << ", which the consistency pass keeps";
      const bool by_pairs = RefutedByPairs(instance, *a, d);
      EXPECT_TRUE(by_pairs || !by_signature)
          << "the signature masks refuted seed " << tally->seeds
          << ", which the exact pair sets keep";
      ++tally->seeds;
      tally->hits += want;
      tally->refuted += refuted;
      tally->by_signature += by_signature;
      tally->by_pairs += by_pairs;
    }
  }
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
  std::mt19937 erase_rng(7);
  SeedTally tally;
  SeedTally erased;
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
    ExpectMapsOntoMatchesReference(instance, instance.Atoms(), &tally);
    // Again with one atom erased: its slot stays in the postings as a
    // tombstone, which neither the search nor the pass may use.
    const std::vector<Atom> live = instance.Atoms();
    instance.Erase(live[erase_rng() % live.size()]);
    ExpectMapsOntoMatchesReference(instance, instance.Atoms(), &erased);
  }
  // Both verdicts occur often enough for the comparison to mean something.
  EXPECT_GT(tally.hits, tally.seeds / 20);
  EXPECT_LT(tally.hits, tally.seeds - tally.seeds / 20);
  // On these instances the pass refutes every seed that has no retraction
  // (5,192 of 5,664), so a pass that drops a constraint fails here too.
  EXPECT_EQ(tally.refuted, tally.seeds - tally.hits);
  EXPECT_EQ(erased.refuted, erased.seeds - erased.hits);
}

// Random instances over 11 predicates of arity 6: 66 (predicate, position)
// pairs, more than a signature has bits, so some pairs share a bit. A shared
// bit only weakens the signature rule, which must stay sound. Each instance
// uses two of the predicates, and the rounds go through every pair of them.
TEST_F(MatcherTest, SignaturesStaySoundWithMoreThan64PredicatePositions) {
  std::vector<PredicateId> predicates;
  for (int i = 0; i < 11; ++i) {
    predicates.push_back(vocab_.MustPredicate("w" + std::to_string(i), 6));
  }
  std::vector<Term> terms;
  for (int i = 0; i < 5; ++i) {
    terms.push_back(vocab_.NamedVariable("W" + std::to_string(i)));
  }
  terms.push_back(a_);
  std::mt19937 rng(64);
  SeedTally tally;
  for (int round = 0; round < 300; ++round) {
    AtomSet instance;
    const size_t atoms = 3 + rng() % 6;
    for (size_t i = 0; i < atoms; ++i) {
      const size_t offset = rng() % 2 == 0 ? 0 : 1 + (round / 11) % 10;
      const PredicateId predicate =
          predicates[(round + offset) % predicates.size()];
      std::vector<Term> args;
      for (size_t k = 0; k < 6; ++k) {
        args.push_back(terms[rng() % terms.size()]);
      }
      instance.Insert(Atom(predicate, args));
      // Now and then a copy with one argument replaced by a variable of its
      // own, which a retraction may fold back onto the original.
      if (rng() % 3 == 0) {
        args[rng() % 6] = vocab_.FreshVariable();
        instance.Insert(Atom(predicate, args));
      }
    }
    ExpectMapsOntoMatchesReference(instance, instance.Atoms(), &tally);
  }
  EXPECT_GT(tally.hits, 0u);
  EXPECT_GT(tally.by_signature, 0u);
  // Some seeds are kept only because two pairs share a bit (3 of 8,792;
  // the masks refute 8,114, the exact pair sets 8,117).
  EXPECT_LT(tally.by_signature, tally.by_pairs);
  EXPECT_EQ(tally.refuted, tally.seeds - tally.hits);
}

// The signature rule around constants and repeated variables: a constant
// of the seed atom is never tested (the unifier checks it), a variable may
// map onto a constant, and a repeated variable is tested at each of its
// positions.
TEST_F(MatcherTest, SignaturesWithConstantsAndRepeatedVariables) {
  const PredicateId p = vocab_.MustPredicate("p", 3);
  const PredicateId u = vocab_.MustPredicate("u", 1);
  const Term v = vocab_.NamedVariable("V");
  const Term t = vocab_.NamedVariable("T");
  const Term w = vocab_.NamedVariable("W");
  const Atom loop(p, {x_, x_, a_});  // p(X, X, a)
  const Atom open(p, {y_, z_, a_});  // p(Y, Z, a)
  const Atom to_b(p, {v, b_, a_});   // p(V, b, a)
  const Atom free(p, {v, t, a_});    // p(V, T, a)
  const Atom other(p, {w, w, b_});   // p(W, W, b)
  AtomSet instance;
  for (const Atom& atom : {loop, open, to_b, free, other}) {
    instance.Insert(atom);
  }
  instance.Insert(Atom(u, {x_}));
  instance.Insert(Atom(u, {y_}));
  SeedTally tally;
  ExpectMapsOntoMatchesReference(instance, instance.Atoms(), &tally);
  EXPECT_EQ(tally.refuted, tally.seeds - tally.hits);
  RetractionSearch search(instance);
  // Y, Z ↦ X: sig(Y) = {(p,0), (u,0)} and sig(Z) = {(p,1)} both lie in
  // sig(X), and the retraction exists.
  EXPECT_FALSE(search.RefutedBySignature(open, loop));
  EXPECT_TRUE(search.MapsOnto(open, loop));
  // X ↦ Y at positions 0 and 1: Y never occurs at (p,1).
  EXPECT_TRUE(search.RefutedBySignature(loop, open));
  EXPECT_FALSE(search.MapsOnto(loop, open));
  // T ↦ b: the constant b occurs at (p,1), and the map exists.
  EXPECT_FALSE(search.RefutedBySignature(free, to_b));
  EXPECT_TRUE(search.MapsOnto(free, to_b));
  // Y ↦ V: V does not occur at (u,0).
  EXPECT_TRUE(search.RefutedBySignature(open, to_b));
  EXPECT_FALSE(search.MapsOnto(open, to_b));
  // W ↦ X passes the signatures, but the constants b and a differ, which
  // only the unifier sees.
  EXPECT_FALSE(search.RefutedBySignature(other, loop));
  EXPECT_FALSE(search.MapsOnto(other, loop));
  EXPECT_TRUE(search.RefutedBySignature(loop, other));  // (u,0) again
}

// The guard's inputs, A_i = F_{i-1} ∪ added atoms of a core chase, and the
// cored F_i, a core (no hits), at every `stride`-th step from `first`, on
// every seed. Returns the tally over the A_i.
SeedTally ExpectMapsOntoMatchesReferenceOnCoreChase(const KnowledgeBase& kb,
                                                    size_t steps, size_t first,
                                                    size_t stride) {
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = steps;
  auto run = RunChase(kb, options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  if (!run.ok()) return {};
  const Derivation& derivation = run->derivation;
  EXPECT_EQ(derivation.size(), steps + 1);
  SeedTally tally;
  for (size_t i = first; i < derivation.size(); i += stride) {
    const AtomSet pre = derivation.PreSimplification(i);
    ExpectMapsOntoMatchesReference(pre, pre.Atoms(), &tally);
    const AtomSet cored = derivation.Instance(i);
    const size_t hits = tally.hits;
    ExpectMapsOntoMatchesReference(cored, cored.Atoms(), &tally);
    EXPECT_EQ(tally.hits, hits);
  }
  EXPECT_GT(tally.seeds, tally.hits);
  return tally;
}

TEST(RetractionSearchReference, StaircaseCoreChaseElements) {
  const SeedTally tally =
      ExpectMapsOntoMatchesReferenceOnCoreChase(StaircaseWorld().kb(), 60, 1, 2);
  EXPECT_GT(tally.hits, 0u);
  EXPECT_EQ(tally.refuted, tally.seeds - tally.hits);  // 15,471 of 15,510
  EXPECT_EQ(tally.by_signature, 7082u);  // 46% of the seeds
  EXPECT_EQ(tally.by_pairs, tally.by_signature);
}

TEST(RetractionSearchReference, ElevatorCoreChaseElements) {
  const SeedTally tally =
      ExpectMapsOntoMatchesReferenceOnCoreChase(ElevatorWorld().kb(), 48, 6, 6);
  EXPECT_EQ(tally.refuted, tally.seeds - tally.hits);  // all 13,928
  EXPECT_EQ(tally.by_signature, 11258u);  // 81% of the seeds
  EXPECT_EQ(tally.by_pairs, tally.by_signature);
}

// Allocation pins. A search compiles its pattern on buffers the thread
// keeps, so once warm it allocates only what it returns. Before the compiled
// patterns, the rule-body searches below made 45-51 allocations each and a
// RetractionSearch over |F| = 93 made 432 per guard call.
class SearchAllocationTest : public ::testing::Test {
 protected:
  static const AtomSet& ElevatorF() {
    static const AtomSet* f = [] {
      ElevatorWorld world;
      ChaseOptions options;
      options.variant = ChaseVariant::kCore;
      options.limits.max_steps = 50;
      auto run = RunChase(world.kb(), options);
      EXPECT_TRUE(run.ok()) << run.status().ToString();
      return new AtomSet(run->derivation.Last());
    }();
    return *f;
  }
};

TEST_F(SearchAllocationTest, RuleBodySearchAllocatesOnlyItsResult) {
  ElevatorWorld world;
  const AtomSet& f = ElevatorF();
  size_t matched = 0;
  for (const Rule& rule : world.kb().rules) {
    SCOPED_TRACE(rule.label());
    // Warm-up: the thread's search buffers and the instance's lazily built
    // column indexes.
    const bool exists = ExistsHomomorphism(rule.body(), f);
    EXPECT_EQ(FindHomomorphism(rule.body(), f).has_value(), exists);
    // An existence check returns nothing, so it allocates nothing.
    EXPECT_EQ(AllocationsOf([&] { ExistsHomomorphism(rule.body(), f); }), 0u);
    if (!exists) continue;
    ++matched;
    // A first match allocates the result vector and the substitution only:
    // its hash map's buckets and one node per body variable.
    const size_t vars = rule.body().Variables().size();
    EXPECT_LE(AllocationsOf([&] { FindHomomorphism(rule.body(), f); }),
              vars + 3);
  }
  EXPECT_GT(matched, 0u);
}

TEST_F(SearchAllocationTest, RetractionSearchQueriesAfterTheFirstAllocateNothing) {
  const AtomSet& f = ElevatorF();
  ASSERT_EQ(f.size(), 93u);
  std::vector<std::pair<Atom, Atom>> seeds;  // a ↦ d, a ≠ d
  f.ForEach([&](const Atom& d) {
    for (const Atom* a : f.ByPredicate(d.predicate())) {
      if (*a != d) seeds.emplace_back(*a, d);
    }
  });
  RetractionSearch search(f);
  auto hits = [&] {
    size_t n = 0;
    for (const auto& [a, d] : seeds) n += search.MapsOnto(a, d);
    return n;
  };
  // The first pass compiles F and grows the buffers to the deepest search;
  // the second, over the same seeds, allocates nothing.
  EXPECT_EQ(hits(), 0u);  // F is a core
  size_t second = 1;
  EXPECT_EQ(AllocationsOf([&] { second = hits(); }), 0u);
  EXPECT_EQ(second, 0u);
}

// A search over a large pattern gives its buffers back when it ends, so a
// thread that once ran one keeps no more than a small search's worth. The
// path below is 1,000 atoms over variables numbered past 100,000: its
// compiled atoms and the variable table, which is indexed by vocabulary
// index, come to about 0.9 MB. (The search recurses once per pattern atom,
// so the path is kept short enough for a sanitizer build's stack.)
TEST_F(SearchAllocationTest, LargeSearchGivesItsBuffersBack) {
  const AtomSet& f = ElevatorF();
  ASSERT_TRUE(ExistsHomomorphism(f, f));  // a chase-sized search
  const int64_t before = g_live_bytes.load();
  {
    Vocabulary vocab;
    const PredicateId e = vocab.MustPredicate("e", 2);
    for (int i = 0; i < 100000; ++i) vocab.FreshVariable();
    AtomSet path;
    Term from = vocab.FreshVariable();
    for (int i = 0; i < 1000; ++i) {
      const Term to = vocab.FreshVariable();
      path.Insert(Atom(e, {from, to}));
      from = to;
    }
    ASSERT_TRUE(ExistsHomomorphism(path, path));
  }
  EXPECT_LT(g_live_bytes.load() - before, int64_t{64} << 10);
}

// A RetractionSearch that follows its instance through inserts and an
// erase answers every seed as a fresh one over the same instance does,
// with the same search nodes: each change of the instance's generation
// recompiles it.
TEST(RetractionSearchSync, FollowsTheInstanceLikeAFreshCompile) {
  ElevatorWorld world;
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 30;
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const Derivation& derivation = run->derivation;
  auto expect_same = [](RetractionSearch& kept, const AtomSet& instance) {
    RetractionSearch fresh(instance);
    size_t seeds = 0;
    for (const Atom& d : instance.Atoms()) {
      for (const Atom* a : instance.ByPredicate(d.predicate())) {
        if (*a == d) continue;
        MatchCounters kept_counters;
        MatchCounters fresh_counters;
        bool kept_hit = false;
        bool fresh_hit = false;
        {
          MatchCountersScope scope(&kept_counters);
          kept_hit = kept.MapsOnto(*a, d);
        }
        {
          MatchCountersScope scope(&fresh_counters);
          fresh_hit = fresh.MapsOnto(*a, d);
        }
        EXPECT_EQ(kept_hit, fresh_hit) << "seed " << seeds;
        EXPECT_EQ(kept_counters.search_nodes.load(),
                  fresh_counters.search_nodes.load())
            << "seed " << seeds;
        EXPECT_EQ(kept.RefutedByConsistency(*a, d),
                  fresh.RefutedByConsistency(*a, d))
            << "seed " << seeds;
        EXPECT_EQ(kept.RefutedBySignature(*a, d),
                  fresh.RefutedBySignature(*a, d))
            << "seed " << seeds;
        ++seeds;
      }
    }
    EXPECT_GT(seeds, 0u);
  };
  AtomSet instance = derivation.Instance(10);
  RetractionSearch kept(instance);
  for (size_t i = 11; i <= 20; ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    // F_{i-1} plus the atoms step i added: appends only.
    derivation.PreSimplification(i).ForEach(
        [&](const Atom& atom) { instance.Insert(atom); });
    expect_same(kept, instance);
  }
  // An erase moves the generation on; so does replacing the contents.
  instance.Erase(instance.Atoms().front());
  expect_same(kept, instance);
  instance = derivation.Instance(25);
  expect_same(kept, instance);
  // Even by a set whose own generation equals the kept one's: erasing and
  // re-inserting one atom adds 2 to a generation, erasing one adds 1.
  auto pad = [](AtomSet& set, uint64_t to) {
    const Atom atom = set.Atoms().front();
    while (set.generation() + 2 <= to) {
      set.Erase(atom);
      set.Insert(atom);
    }
    if (set.generation() < to) set.Erase(set.Atoms().back());
  };
  AtomSet replacement = derivation.Instance(28);
  pad(instance, replacement.generation());
  expect_same(kept, instance);
  pad(replacement, instance.generation());
  ASSERT_EQ(replacement.generation(), instance.generation());
  ASSERT_FALSE(replacement == instance);
  instance = replacement;
  expect_same(kept, instance);
}

// An erase can take a (predicate, position) pair away from a term, and a
// kept signature must then shrink: a stale sig(X) is a superset, which
// refutes seeds that a retraction extends.
TEST_F(MatcherTest, RetractionSearchSignaturesFollowErases) {
  const PredicateId u = vocab_.MustPredicate("u", 1);
  const Atom from(e_, {x_, z_});  // e(X, Z)
  const Atom onto(e_, {y_, z_});  // e(Y, Z)
  const Atom marks_x(u, {x_});    // u(X): puts (u,0) into sig(X) only
  AtomSet instance;
  for (const Atom& atom : {from, onto, marks_x}) instance.Insert(atom);
  RetractionSearch kept(instance);
  ASSERT_TRUE(kept.RefutedBySignature(from, onto));
  EXPECT_FALSE(kept.MapsOnto(from, onto));  // u(Y) is missing
  instance.Erase(marks_x);
  RetractionSearch fresh(instance);
  ASSERT_FALSE(fresh.RefutedBySignature(from, onto));
  ASSERT_TRUE(fresh.MapsOnto(from, onto));  // X ↦ Y
  EXPECT_FALSE(kept.RefutedBySignature(from, onto));
  EXPECT_TRUE(kept.MapsOnto(from, onto));
  EXPECT_FALSE(kept.RefutedByConsistency(from, onto));
  // Inserting it again gives (u,0) back to X.
  instance.Insert(marks_x);
  EXPECT_TRUE(kept.RefutedBySignature(from, onto));
  EXPECT_FALSE(kept.MapsOnto(from, onto));
}

}  // namespace
}  // namespace twchase
