// Unit and integration tests for the robust aggregation machinery
// (Section 8, Definitions 14–16, Propositions 10–12).
#include <gtest/gtest.h>

#include "core/chase.h"
#include "core/robust.h"
#include "hom/isomorphism.h"
#include "hom/matcher.h"
#include "kb/examples.h"
#include "kb/knowledge_base.h"
#include "tw/treewidth.h"

namespace twchase {
namespace {

TEST(RobustRenamingTest, MapsImageVarToSmallestPreimage) {
  Vocabulary vocab;
  PredicateId p = vocab.MustPredicate("p", 2);
  Term x = vocab.NamedVariable("X");  // rank 0
  Term y = vocab.NamedVariable("Y");  // rank 1
  AtomSet a;
  a.Insert(Atom(p, {x, y}));
  a.Insert(Atom(p, {y, y}));
  Substitution sigma;  // retraction folding X onto Y
  sigma.Bind(x, y);
  sigma.Bind(y, y);
  ASSERT_TRUE(sigma.IsRetractionOf(a));
  Substitution rho = RobustRenaming(a, sigma);
  // σ⁻¹(Y) = {X, Y}; X has the smaller rank, so ρ(Y) = X.
  EXPECT_EQ(rho.Apply(y), x);
}

TEST(RobustRenamingTest, IdentityRetractionKeepsNames) {
  Vocabulary vocab;
  PredicateId p = vocab.MustPredicate("p", 1);
  Term x = vocab.NamedVariable("X");
  AtomSet a;
  a.Insert(Atom(p, {x}));
  Substitution identity;
  identity.Bind(x, x);
  Substitution rho = RobustRenaming(a, identity);
  EXPECT_EQ(rho.Apply(x), x);
}

TEST(RobustAggregatorTest, TerminatedChaseAggregateIsModel) {
  // Proposition 11(2): for a fair derivation, D⊛ is a model of the KB. A
  // terminated core chase is fair outright.
  auto kb = MakeFesNotBts();
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 2000;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->stop_reason, StopReason::kFixpoint);
  RobustAggregator agg = RobustAggregator::FromDerivation(run->derivation);
  const AtomSet& aggregate = agg.Aggregate();
  EXPECT_TRUE(kb.IsModel(aggregate));
  // And hom-equivalent to the chase fixpoint (the finite universal model).
  EXPECT_TRUE(AreHomEquivalent(aggregate, run->derivation.Last()));
}

TEST(RobustAggregatorTest, GIsomorphicToFThroughout) {
  // Each G_i is isomorphic to F_i (Definition 15's invariant).
  StaircaseWorld world;
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 25;
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok());
  const Derivation& d = run->derivation;
  RobustAggregator agg;
  DerivationCursor c(d);
  agg.Begin(c.instance(), c.step().simplification);
  EXPECT_TRUE(AreIsomorphic(agg.CurrentG(), c.instance()));
  for (c.Next(); !c.done(); c.Next()) {
    agg.Step(c.pre_simplification(), c.step().simplification);
    EXPECT_TRUE(AreIsomorphic(agg.CurrentG(), c.instance()))
        << "step " << c.index();
    // ρ_i maps F_i onto G_i.
    EXPECT_EQ(agg.CurrentRho().Apply(c.instance()), agg.CurrentG())
        << "step " << c.index();
  }
}

TEST(RobustAggregatorTest, AggregateFinitelyUniversalOnStaircase) {
  // Proposition 11(1): every finite subset of D⊛ is universal, i.e. maps
  // into every model. We check against two very different models of K_h:
  // a large universal-model prefix and the infinite-column model.
  StaircaseWorld world;
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 40;
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok());
  RobustAggregator agg = RobustAggregator::FromDerivation(run->derivation);
  const AtomSet& aggregate = agg.Aggregate();
  EXPECT_TRUE(ExistsHomomorphism(aggregate, world.UniversalModelPrefix(10)));
  EXPECT_TRUE(
      ExistsHomomorphism(aggregate, world.InfiniteColumnPrefix(60)));
}

TEST(RobustAggregatorTest, NaturalVsRobustOnStaircase) {
  // The paper's central contrast (Sections 8–9): the natural aggregation of
  // the same derivation has unbounded treewidth, the robust one inherits
  // the sequence's bound (Proposition 12).
  StaircaseWorld world;
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 55;
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok());
  AtomSet natural = run->derivation.NaturalAggregation();
  RobustAggregator agg = RobustAggregator::FromDerivation(run->derivation);
  TreewidthResult natural_tw = ComputeTreewidth(natural);
  TreewidthResult robust_tw = ComputeTreewidth(agg.Aggregate());
  EXPECT_GE(natural_tw.lower_bound, 3);
  EXPECT_LE(robust_tw.upper_bound, 2);
}

TEST(RobustAggregatorTest, UnionGrowsAcrossCollapses) {
  // The forwarded union shrinks transiently when a simplification merges
  // history into a smaller core — only the limit images τ(G_i) are monotone
  // (Lemma 1(i)). Across comparable points (the local minima after each
  // collapse) the union grows, tracking the column.
  StaircaseWorld world;
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 50;
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok());
  RobustAggregator agg = RobustAggregator::FromDerivation(run->derivation);
  const auto& stats = agg.stats();
  std::vector<size_t> minima;
  for (size_t i = 1; i + 1 < stats.size(); ++i) {
    if (stats[i].union_size < stats[i - 1].union_size) {
      minima.push_back(stats[i].union_size);
    }
  }
  ASSERT_GE(minima.size(), 3u);
  for (size_t i = 1; i < minima.size(); ++i) {
    EXPECT_GT(minima[i], minima[i - 1]) << "collapse " << i;
  }
}

TEST(RobustAggregatorTest, StableSinceTracksOldVariables) {
  // Proposition 10: variables are renamed finitely often; on the staircase
  // the bottom of the column stabilises early and stays stable.
  StaircaseWorld world;
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 40;
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok());
  RobustAggregator agg = RobustAggregator::FromDerivation(run->derivation);
  size_t last_step = agg.steps() - 1;
  size_t old_stable = 0;
  for (const auto& [var, since] : agg.stable_since()) {
    if (since + 10 <= last_step) ++old_stable;
  }
  EXPECT_GE(old_stable, 3u);
}

TEST(RobustAggregatorTest, ForwardedUnionIsSubsetOfCurrentG) {
  // Lemma 1(i) implies U_i = ∪_k τ^i_k(G_k) ⊆ G_i on every finite prefix
  // (each π maps the previous G into the next). Check on both counterexample
  // KBs — the elevator exercises deep, row-wide retractions.
  for (int which : {0, 1}) {
    KnowledgeBase kb;
    StaircaseWorld staircase;
    ElevatorWorld elevator;
    kb = which == 0 ? staircase.kb() : elevator.kb();
    ChaseOptions options;
    options.variant = ChaseVariant::kCore;
    options.limits.max_steps = which == 0 ? 30 : 25;
    auto run = RunChase(kb, options);
    ASSERT_TRUE(run.ok());
    const Derivation& d = run->derivation;
    RobustAggregator agg;
    DerivationCursor c(d);
    agg.Begin(c.instance(), c.step().simplification);
    for (c.Next(); !c.done(); c.Next()) {
      agg.Step(c.pre_simplification(), c.step().simplification);
      EXPECT_TRUE(agg.Aggregate().IsSubsetOf(agg.CurrentG()))
          << "kb " << which << " step " << c.index();
      EXPECT_TRUE(AreIsomorphic(agg.CurrentG(), c.instance()))
          << "kb " << which << " step " << c.index();
    }
  }
}

TEST(RobustAggregatorTest, MonotonicDerivationRobustEqualsNatural) {
  // For a monotonic derivation all simplifications are the identity, so the
  // robust sequence never renames and D⊛ = D*.
  auto kb = MakeTransitiveClosure(3);
  ChaseOptions options;
  options.variant = ChaseVariant::kRestricted;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->stop_reason, StopReason::kFixpoint);
  ASSERT_TRUE(run->derivation.IsMonotonic());
  RobustAggregator agg = RobustAggregator::FromDerivation(run->derivation);
  EXPECT_EQ(agg.Aggregate(), run->derivation.NaturalAggregation());
  for (const RobustStepStats& s : agg.stats()) {
    EXPECT_EQ(s.renamed_variables, 0u);
  }
}

// Per-step robust statistics (|G_i|, |U_i|, renamed, stable) of 60-step
// core chases, recorded while every step kept a copy of F_i. Replaying the
// derivation journal must reproduce them exactly: the digest is FNV-1a over
// the four counts of every step, in order.
TEST(RobustAggregatorTest, StatsArePinned) {
  struct Pin {
    const char* name;
    KnowledgeBase kb;
    uint64_t digest;
    RobustStepStats last;
  };
  const Pin pins[] = {
      {"staircase", StaircaseWorld().kb(), 0xfcc941f96c520339ull,
       {49, 49, 0, 16}},
      {"elevator", ElevatorWorld().kb(), 0xa4a4bae2a3c58c3eull,
       {113, 113, 0, 48}},
  };
  for (const Pin& pin : pins) {
    ChaseOptions options;
    options.variant = ChaseVariant::kCore;
    options.limits.max_steps = 60;
    auto run = RunChase(pin.kb, options);
    ASSERT_TRUE(run.ok());
    RobustAggregator agg = RobustAggregator::FromDerivation(run->derivation);
    ASSERT_EQ(agg.stats().size(), 61u) << pin.name;
    uint64_t digest = 1469598103934665603ull;
    for (const RobustStepStats& s : agg.stats()) {
      for (uint64_t value : {s.g_size, s.union_size, s.renamed_variables,
                             s.stable_variables}) {
        for (int i = 0; i < 8; ++i) {
          digest ^= (value >> (8 * i)) & 0xFF;
          digest *= 1099511628211ull;
        }
      }
    }
    EXPECT_EQ(digest, pin.digest) << pin.name;
    const RobustStepStats& last = agg.stats().back();
    EXPECT_EQ(last.g_size, pin.last.g_size) << pin.name;
    EXPECT_EQ(last.union_size, pin.last.union_size) << pin.name;
    EXPECT_EQ(last.renamed_variables, pin.last.renamed_variables) << pin.name;
    EXPECT_EQ(last.stable_variables, pin.last.stable_variables) << pin.name;
  }
}

}  // namespace
}  // namespace twchase
