#include <gtest/gtest.h>

#include "core/chase.h"
#include "core/entailment.h"
#include "fair_prefix.h"
#include "hom/core.h"
#include "hom/matcher.h"
#include "kb/examples.h"
#include "parser/parser.h"

namespace twchase {
namespace {

TEST(ChaseTest, TransitiveClosureTerminatesForAllVariants) {
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
        ChaseVariant::kRestricted, ChaseVariant::kCore}) {
    auto kb = MakeTransitiveClosure(4);
    ChaseOptions options;
    options.variant = variant;
    options.limits.max_steps = 200;
    auto run = RunChase(kb, options);
    ASSERT_TRUE(run.ok()) << ChaseVariantName(variant);
    EXPECT_EQ(run->stop_reason, StopReason::kFixpoint)
        << ChaseVariantName(variant);
    // t closure over a 4-path: 4+3+2+1 = 10 t-atoms + 4 e-atoms.
    EXPECT_EQ(run->derivation.Last().size(), 14u) << ChaseVariantName(variant);
    EXPECT_TRUE(kb.IsModel(run->derivation.Last()))
        << ChaseVariantName(variant);
  }
}

TEST(ChaseTest, BtsNotFesDoesNotTerminate) {
  auto kb = MakeBtsNotFes();
  for (ChaseVariant variant :
       {ChaseVariant::kSemiOblivious, ChaseVariant::kRestricted,
        ChaseVariant::kCore}) {
    ChaseOptions options;
    options.variant = variant;
    options.limits.max_steps = 60;
    auto run = RunChase(kb, options);
    ASSERT_TRUE(run.ok());
    EXPECT_NE(run->stop_reason, StopReason::kFixpoint)
        << ChaseVariantName(variant);
  }
}

TEST(ChaseTest, FesNotBtsCoreChaseTerminates) {
  auto kb = MakeFesNotBts();
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 2000;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->stop_reason, StopReason::kFixpoint);
  EXPECT_TRUE(kb.IsModel(run->derivation.Last()));
  // The terminal instance of a core chase is a core: the finite universal
  // model (unique up to isomorphism).
  EXPECT_TRUE(IsCore(run->derivation.Last()));
}

TEST(ChaseTest, CoreChaseElementsAreCores) {
  auto kb = MakeBtsNotFes();
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 10;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  for (DerivationCursor c(run->derivation); !c.done(); c.Next()) {
    EXPECT_TRUE(IsCore(c.instance())) << "step " << c.index();
  }
}

TEST(ChaseTest, SimplificationsAreRetractions) {
  auto kb = MakeFesNotBts();
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 100;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  DerivationCursor c(run->derivation);
  for (c.Next(); !c.done(); c.Next()) {
    EXPECT_TRUE(c.step().simplification.IsRetractionOf(c.pre_simplification()))
        << "step " << c.index();
  }
}

TEST(ChaseTest, RestrictedChaseIsMonotone) {
  auto kb = MakeBtsNotFes();
  ChaseOptions options;
  options.variant = ChaseVariant::kRestricted;
  options.limits.max_steps = 20;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->derivation.IsMonotonic());
}

TEST(ChaseTest, ObliviousProducesMoreAtomsThanRestricted) {
  // On r(X,Y) → ∃Z r(Y,Z) with a loop fact r(a,a), the restricted chase
  // terminates immediately (trigger satisfied by Z ↦ a) while the oblivious
  // chase runs forever.
  auto program = ParseProgram("r(a, a). r(Y, Z) :- r(X, Y).");
  ASSERT_TRUE(program.ok());
  ChaseOptions restricted;
  restricted.variant = ChaseVariant::kRestricted;
  auto r1 = RunChase(program->kb, restricted);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->stop_reason, StopReason::kFixpoint);
  EXPECT_EQ(r1->derivation.Last().size(), 1u);

  ChaseOptions oblivious;
  oblivious.variant = ChaseVariant::kOblivious;
  oblivious.limits.max_steps = 30;
  auto r2 = RunChase(program->kb, oblivious);
  ASSERT_TRUE(r2.ok());
  EXPECT_NE(r2->stop_reason, StopReason::kFixpoint);
  EXPECT_GT(r2->derivation.Last().size(), 10u);
}

TEST(ChaseTest, SemiObliviousReusesFrontierKeys) {
  // r(X,Y) → ∃Z r(Y,Z): two facts sharing the second component give two
  // oblivious triggers but one semi-oblivious trigger (same frontier Y).
  auto program = ParseProgram("e(a, c), e(b, c). r(Y, Z) :- e(X, Y).");
  ASSERT_TRUE(program.ok());
  ChaseOptions semi;
  semi.variant = ChaseVariant::kSemiOblivious;
  semi.limits.max_steps = 50;
  auto r_semi = RunChase(program->kb, semi);
  ASSERT_TRUE(r_semi.ok());
  ChaseOptions obl;
  obl.variant = ChaseVariant::kOblivious;
  obl.limits.max_steps = 50;
  auto r_obl = RunChase(program->kb, obl);
  ASSERT_TRUE(r_obl.ok());
  EXPECT_EQ(r_semi->stop_reason, StopReason::kFixpoint);
  EXPECT_EQ(r_obl->stop_reason, StopReason::kFixpoint);
  // Semi-oblivious: one r-atom; oblivious: two.
  EXPECT_EQ(r_semi->derivation.Last().size(), 3u);
  EXPECT_EQ(r_obl->derivation.Last().size(), 4u);
}

TEST(ChaseTest, FairnessOnPrefixes) {
  auto kb = MakeBtsNotFes();
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 8;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  // The truncated run leaves the last element's fresh trigger open; every
  // earlier element's triggers must be resolved within the prefix.
  EXPECT_TRUE(IsFairPrefix(run->derivation, kb, /*skip_tail=*/1));

  // A terminated chase is fair with no tail allowance.
  auto tc = MakeTransitiveClosure(3);
  ChaseOptions tc_options;
  auto tc_run = RunChase(tc, tc_options);
  ASSERT_TRUE(tc_run.ok());
  ASSERT_EQ(tc_run->stop_reason, StopReason::kFixpoint);
  EXPECT_TRUE(IsFairPrefix(tc_run->derivation, tc, 0));
}

TEST(ChaseTest, CoreEveryTwoStillProducesCoreChase) {
  auto kb = MakeFesNotBts();
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.core.core_every = 2;
  options.limits.max_steps = 2000;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->stop_reason, StopReason::kFixpoint);
  EXPECT_TRUE(kb.IsModel(run->derivation.Last()));
}

TEST(ChaseTest, ChaseVariantsAgreeOnEntailedQueries) {
  auto program = ParseProgram(R"(
    e(a, b). e(b, c).
    [tc1] t(X, Y) :- e(X, Y).
    [tc2] t(X, Z) :- t(X, Y), e(Y, Z).
    [succ] s(Y, W) :- t(X, Y).
  )");
  ASSERT_TRUE(program.ok()) << program.status();
  // Queries must share the KB's vocabulary (predicate/constant ids).
  auto q_yes = ParseProgram("? :- t(a, c).", program->kb.vocab);
  auto q_yes2 = ParseProgram("? :- s(c, W).", program->kb.vocab);
  auto q_no = ParseProgram("? :- t(c, a).", program->kb.vocab);
  ASSERT_TRUE(q_yes.ok() && q_yes2.ok() && q_no.ok());
  for (ChaseVariant variant :
       {ChaseVariant::kSemiOblivious, ChaseVariant::kRestricted,
        ChaseVariant::kCore}) {
    ChaseOptions options;
    options.variant = variant;
    options.limits.max_steps = 300;
    auto run = RunChase(program->kb, options);
    ASSERT_TRUE(run.ok());
    const AtomSet& result = run->derivation.Last();
    EXPECT_TRUE(ExistsHomomorphism(q_yes->queries[0].atoms, result))
        << ChaseVariantName(variant);
    EXPECT_TRUE(ExistsHomomorphism(q_yes2->queries[0].atoms, result))
        << ChaseVariantName(variant);
    EXPECT_FALSE(ExistsHomomorphism(q_no->queries[0].atoms, result))
        << ChaseVariantName(variant);
  }
}

TEST(ChaseTest, DeterministicAcrossRuns) {
  // Same KB, same options → identical derivation skeletons.
  StaircaseWorld w1, w2;
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 25;
  auto r1 = RunChase(w1.kb(), options);
  auto r2 = RunChase(w2.kb(), options);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_EQ(r1->derivation.size(), r2->derivation.size());
  for (size_t i = 0; i < r1->derivation.size(); ++i) {
    EXPECT_EQ(r1->derivation.step(i).rule_label,
              r2->derivation.step(i).rule_label)
        << "step " << i;
    EXPECT_EQ(r1->derivation.step(i).instance_size,
              r2->derivation.step(i).instance_size)
        << "step " << i;
  }
}

TEST(ChaseTest, SizeGuardStopsRunawayChase) {
  auto kb = MakeBtsNotFes();
  ChaseOptions options;
  options.variant = ChaseVariant::kOblivious;
  options.limits.max_steps = 100000;
  options.limits.max_instance_size = 25;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->stop_reason, StopReason::kInstanceSizeGuard);
  EXPECT_LE(run->derivation.Last().size(), 30u);
}

TEST(ChaseTest, InvalidOptionsRejected) {
  auto kb = MakeTransitiveClosure(2);
  ChaseOptions options;
  options.core.core_every = 0;
  EXPECT_FALSE(RunChase(kb, options).ok());
  KnowledgeBase no_vocab;
  EXPECT_FALSE(RunChase(no_vocab, ChaseOptions()).ok());
}

}  // namespace
}  // namespace twchase
