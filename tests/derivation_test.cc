#include <gtest/gtest.h>

#include "core/aggregation.h"
#include "core/chase.h"
#include "core/derivation.h"
#include "kb/examples.h"
#include "kb/knowledge_base.h"

namespace twchase {
namespace {

TEST(DerivationTest, SigmaCompositionTracesVariables) {
  Vocabulary vocab;
  PredicateId p = vocab.MustPredicate("p", 1);
  Term x = vocab.NamedVariable("X"), y = vocab.NamedVariable("Y"),
       z = vocab.NamedVariable("Z");
  Derivation d(true);
  AtomSet f0;
  f0.Insert(Atom(p, {x}));
  d.AddInitial(f0, Substitution());

  AtomSet f1;
  f1.Insert(Atom(p, {y}));
  Substitution s1;
  s1.Bind(x, y);
  d.AddStep(0, "r", Substitution(), s1, {Atom(p, {y})}, f1);

  AtomSet f2;
  f2.Insert(Atom(p, {z}));
  Substitution s2;
  s2.Bind(y, z);
  d.AddStep(0, "r", Substitution(), s2, {Atom(p, {z})}, f2);

  EXPECT_EQ(d.SigmaBetween(0, 0).Apply(x), x);
  EXPECT_EQ(d.SigmaBetween(0, 1).Apply(x), y);
  EXPECT_EQ(d.SigmaBetween(0, 2).Apply(x), z);
  EXPECT_EQ(d.SigmaBetween(1, 2).Apply(y), z);
}

TEST(DerivationTest, MonotonicityDetection) {
  auto kb = MakeTransitiveClosure(3);
  ChaseOptions options;
  options.variant = ChaseVariant::kRestricted;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->stop_reason, StopReason::kFixpoint);
  EXPECT_TRUE(run->derivation.IsMonotonic());
}

TEST(DerivationTest, NaturalAggregationOfMonotonicIsLast) {
  auto kb = MakeTransitiveClosure(3);
  ChaseOptions options;
  options.variant = ChaseVariant::kRestricted;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->derivation.NaturalAggregation(), run->derivation.Last());
}

TEST(DerivationTest, PreSimplificationReconstructsAlpha) {
  auto kb = MakeBtsNotFes();
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 5;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  ASSERT_GE(run->derivation.size(), 2u);
  for (size_t i = 1; i < run->derivation.size(); ++i) {
    AtomSet alpha = run->derivation.PreSimplification(i);
    // σ_i(A_i) = F_i.
    const Substitution& sigma = run->derivation.step(i).simplification;
    EXPECT_EQ(sigma.Apply(alpha), run->derivation.Instance(i)) << "step " << i;
    // A_i ⊇ F_{i-1}.
    EXPECT_TRUE(run->derivation.Instance(i - 1).IsSubsetOf(alpha));
  }
}

TEST(DerivationTest, ProvenanceCoversNaturalAggregation) {
  StaircaseWorld world;
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 20;
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok());
  auto provenance = run->derivation.ProvenanceIndex();
  AtomSet natural = run->derivation.NaturalAggregation();
  natural.ForEach([&](const Atom& atom) {
    auto it = provenance.find(atom);
    ASSERT_NE(it, provenance.end());
    EXPECT_LT(it->second, run->derivation.size());
  });
  // Initial atoms carry provenance 0.
  run->derivation.Instance(0).ForEach([&](const Atom& atom) {
    EXPECT_EQ(provenance.at(atom), 0u);
  });
}

TEST(DerivationTest, InstanceSizesRecordedWithoutSnapshots) {
  auto kb = MakeTransitiveClosure(3);
  ChaseOptions options;
  options.keep_snapshots = false;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(run->derivation.keeps_snapshots());
  EXPECT_GT(run->derivation.size(), 1u);
  EXPECT_EQ(run->derivation.step(run->derivation.size() - 1).instance_size,
            run->derivation.Last().size());
}

}  // namespace
}  // namespace twchase
