// Property-based sweeps over randomly generated instances and graphs
// (deterministic seeds), exercising cross-module invariants:
//   * cores: idempotence, hom-equivalence with the original, retraction
//     validity, uniqueness up to isomorphism;
//   * homomorphisms: closure under composition, reflexivity;
//   * treewidth: lb ≤ exact ≤ ub, subset monotonicity (Fact 1), grid lower
//     bound consistency (Fact 2), decomposition validity;
//   * chase: datalog chases terminate and produce models on which all
//     variants agree.
#include <gtest/gtest.h>

#include "core/chase.h"
#include "hom/core.h"
#include "hom/isomorphism.h"
#include "hom/matcher.h"
#include "kb/generators.h"
#include "kb/knowledge_base.h"
#include "tw/exact.h"
#include "tw/grid.h"
#include "tw/heuristics.h"
#include "tw/lower_bounds.h"
#include "tw/treewidth.h"
#include "util/random.h"

namespace twchase {
namespace {

class RandomInstanceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomInstanceProperty, CoreInvariants) {
  Rng rng(GetParam());
  Vocabulary vocab;
  AtomSet instance = MakeRandomBinaryInstance(&vocab, "e", 8, 14, &rng);
  CoreResult result = ComputeCore(instance);
  // The retraction maps the instance onto the core and fixes it.
  EXPECT_TRUE(result.retraction.IsRetractionOf(instance) ||
              result.retraction.empty());
  EXPECT_TRUE(result.core.IsSubsetOf(instance));
  // Hom-equivalence with the original.
  EXPECT_TRUE(AreHomEquivalent(result.core, instance));
  // Idempotence.
  EXPECT_TRUE(IsCore(result.core));
  CoreResult again = ComputeCore(result.core);
  EXPECT_EQ(again.core, result.core);
}

TEST_P(RandomInstanceProperty, CoreUniqueUpToIso) {
  Rng rng(GetParam());
  Vocabulary vocab;
  AtomSet instance = MakeRandomBinaryInstance(&vocab, "e", 7, 12, &rng);
  // Shuffle insertion order to change fold order; cores must be isomorphic.
  std::vector<Atom> atoms = instance.Atoms();
  Rng rng2(GetParam() ^ 0xabcdef);
  rng2.Shuffle(&atoms);
  AtomSet shuffled = AtomSet::FromAtoms(atoms);
  EXPECT_TRUE(
      AreIsomorphic(ComputeCore(instance).core, ComputeCore(shuffled).core));
}

TEST_P(RandomInstanceProperty, HomomorphismComposition) {
  Rng rng(GetParam());
  Vocabulary vocab;
  AtomSet a = MakeRandomBinaryInstance(&vocab, "e", 5, 7, &rng);
  AtomSet b = MakeRandomBinaryInstance(&vocab, "e", 6, 20, &rng);
  // Reflexivity.
  EXPECT_TRUE(ExistsHomomorphism(a, a));
  auto ab = FindHomomorphism(a, b);
  if (ab.has_value()) {
    // Image correctness: h(a) ⊆ b.
    EXPECT_TRUE(ab->Apply(a).IsSubsetOf(b));
    // Composition with b's core retraction is a hom a → core(b).
    CoreResult core_b = ComputeCore(b);
    Substitution composed = Substitution::Compose(core_b.retraction, *ab);
    EXPECT_TRUE(composed.Apply(a).IsSubsetOf(core_b.core));
  }
}

TEST_P(RandomInstanceProperty, TreewidthBoundsAndMonotonicity) {
  Rng rng(GetParam());
  Vocabulary vocab;
  AtomSet instance = MakeRandomBinaryInstance(&vocab, "e", 10, 16, &rng);
  Graph g = Graph::GaifmanOf(instance, nullptr);
  int exact = ExactTreewidth(g).value();
  EXPECT_LE(BestLowerBound(g), exact);
  EXPECT_GE(HeuristicUpperBound(g, EliminationHeuristic::kMinFill), exact);
  EXPECT_GE(HeuristicUpperBound(g, EliminationHeuristic::kMinDegree), exact);
  // Facade certifies within bounds and yields a valid decomposition.
  TreewidthResult r = ComputeTreewidth(instance);
  EXPECT_LE(r.lower_bound, exact);
  EXPECT_GE(r.upper_bound, exact);
  EXPECT_TRUE(r.decomposition.Validate(g).ok());
  // Fact 1: removing atoms cannot increase treewidth.
  AtomSet subset;
  int keep = 0;
  instance.ForEach([&](const Atom& atom) {
    if (keep++ % 3 != 0) subset.Insert(atom);
  });
  Graph sg = Graph::GaifmanOf(subset, nullptr);
  EXPECT_LE(ExactTreewidth(sg).value(), exact);
}

TEST_P(RandomInstanceProperty, GridBoundIsTreewidthLowerBound) {
  Rng rng(GetParam());
  Vocabulary vocab;
  AtomSet instance = MakeRandomBinaryInstance(&vocab, "e", 9, 18, &rng);
  Graph g = Graph::GaifmanOf(instance, nullptr);
  int exact = ExactTreewidth(g).value();
  int grid = GridLowerBound(instance, 4);
  EXPECT_LE(grid, std::max(exact, 1));  // Fact 2 (1×1 grids give bound 1)
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomInstanceProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

class RandomDatalogProperty : public ::testing::TestWithParam<uint64_t> {};

// Random datalog KB: facts over a small domain plus guarded propagation
// rules (no existentials): every chase variant terminates and agrees.
KnowledgeBase RandomDatalogKb(uint64_t seed) {
  Rng rng(seed);
  KbBuilder b;
  const int domain = 4;
  auto c = [&](int i) { return b.C("d" + std::to_string(i)); };
  for (int i = 0; i < 6; ++i) {
    b.Fact("e", {c(static_cast<int>(rng.Uniform(0, domain - 1))),
                 c(static_cast<int>(rng.Uniform(0, domain - 1)))});
  }
  Term x = b.V("X"), y = b.V("Y"), z = b.V("Z");
  b.AddRule("copy", {b.A("e", {x, y})}, {b.A("t", {x, y})});
  if (rng.Bernoulli(0.5)) {
    b.AddRule("trans", {b.A("t", {x, y}), b.A("e", {y, z})},
              {b.A("t", {x, z})});
  }
  if (rng.Bernoulli(0.5)) {
    b.AddRule("sym", {b.A("t", {x, y})}, {b.A("t", {y, x})});
  }
  return b.Build();
}

TEST_P(RandomDatalogProperty, AllVariantsTerminateOnSameModel) {
  auto kb = RandomDatalogKb(GetParam());
  AtomSet reference;
  bool first = true;
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
        ChaseVariant::kRestricted, ChaseVariant::kCore}) {
    ChaseOptions options;
    options.variant = variant;
    options.limits.max_steps = 500;
    auto run = RunChase(kb, options);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run->stop_reason, StopReason::kFixpoint)
        << ChaseVariantName(variant);
    EXPECT_TRUE(kb.IsModel(run->derivation.Last()))
        << ChaseVariantName(variant);
    // Datalog chases produce the same saturation for every variant (ground
    // atoms only, no nulls).
    if (first) {
      reference = run->derivation.Last();
      first = false;
    } else {
      EXPECT_EQ(run->derivation.Last(), reference) << ChaseVariantName(variant);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDatalogProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

class EliminationOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(EliminationOrderProperty, AnyPermutationGivesValidDecomposition) {
  int n = GetParam();
  Rng rng(n * 7919);
  Graph g(n);
  for (int i = 0; i < 2 * n; ++i) {
    int u = static_cast<int>(rng.Uniform(0, n - 1));
    int v = static_cast<int>(rng.Uniform(0, n - 1));
    g.AddEdge(u, v);
  }
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  rng.Shuffle(&order);
  TreeDecomposition td = DecompositionFromEliminationOrder(g, order);
  EXPECT_TRUE(td.Validate(g).ok());
  EXPECT_EQ(td.Width(), WidthOfEliminationOrder(g, order));
  EXPECT_GE(td.Width(), ExactTreewidth(g).value());
}

INSTANTIATE_TEST_SUITE_P(Sizes, EliminationOrderProperty,
                         ::testing::Values(4, 6, 8, 10, 12, 14));

}  // namespace
}  // namespace twchase
