// Tests of the frugal chase variant: redundancy removal limited to the
// freshly introduced nulls (a derivation "between" the restricted and core
// chases in the sense of Section 3 — its simplifications are retractions
// that fix all pre-existing terms).
#include <gtest/gtest.h>

#include "core/chase.h"
#include "hom/core.h"
#include "hom/endomorphism.h"
#include "hom/matcher.h"
#include "kb/examples.h"
#include "parser/parser.h"

namespace twchase {
namespace {

TEST(FoldFreshTest, FoldsRedundantFreshNull) {
  Vocabulary vocab;
  PredicateId e = vocab.MustPredicate("e", 2);
  Term a = vocab.Constant("a"), b = vocab.Constant("b");
  Term fresh = vocab.FreshVariable();
  AtomSet atoms;
  atoms.Insert(Atom(e, {a, b}));
  atoms.Insert(Atom(e, {a, fresh}));  // redundant copy of e(a, b)
  Substitution sigma = FoldVariablesKeepingRestFixed(&atoms, {fresh});
  EXPECT_EQ(atoms.size(), 1u);
  EXPECT_EQ(sigma.Apply(fresh), b);
}

TEST(FoldFreshTest, KeepsNonRedundantFreshNull) {
  Vocabulary vocab;
  PredicateId e = vocab.MustPredicate("e", 2);
  Term a = vocab.Constant("a"), b = vocab.Constant("b");
  Term fresh = vocab.FreshVariable();
  AtomSet atoms;
  atoms.Insert(Atom(e, {a, b}));
  atoms.Insert(Atom(e, {b, fresh}));  // not redundant: no other e(b, _)
  Substitution sigma = FoldVariablesKeepingRestFixed(&atoms, {fresh});
  EXPECT_EQ(atoms.size(), 2u);
  EXPECT_TRUE(sigma.IsIdentity() || sigma.empty());
}

TEST(FoldFreshTest, NeverMovesOldTerms) {
  // Even when folding the old structure would shrink more, only the listed
  // variables may move.
  Vocabulary vocab;
  PredicateId e = vocab.MustPredicate("e", 2);
  Term x = vocab.NamedVariable("X");
  Term y = vocab.NamedVariable("Y");
  Term fresh = vocab.FreshVariable();
  AtomSet atoms;
  atoms.Insert(Atom(e, {x, y}));
  atoms.Insert(Atom(e, {y, y}));      // X would fold onto Y in a full core
  atoms.Insert(Atom(e, {y, fresh}));  // fresh folds onto Y
  Substitution sigma = FoldVariablesKeepingRestFixed(&atoms, {fresh});
  EXPECT_TRUE(atoms.ContainsTerm(x));
  EXPECT_EQ(sigma.Apply(x), x);
  EXPECT_EQ(atoms.size(), 2u);  // e(X,Y), e(Y,Y)
}

TEST(FrugalChaseTest, TerminatesWithRestrictedOnDatalog) {
  auto kb = MakeTransitiveClosure(4);
  ChaseOptions options;
  options.variant = ChaseVariant::kFrugal;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->stop_reason, StopReason::kFixpoint);
  EXPECT_TRUE(kb.IsModel(run->derivation.Last()));
}

TEST(FrugalChaseTest, PrunesRedundantNullsThatRestrictedKeeps) {
  // e(a,b) with rules creating a "successor" for every node and a ground
  // edge making the fresh successor redundant afterwards is hard to set up
  // declaratively; instead compare sizes on a KB where the restricted chase
  // provably overshoots: the oblivious-style redundancy of FesNotBts.
  auto kb = MakeFesNotBts();
  ChaseOptions restricted;
  restricted.variant = ChaseVariant::kRestricted;
  restricted.limits.max_steps = 400;
  auto r = RunChase(kb, restricted);
  ASSERT_TRUE(r.ok());

  ChaseOptions frugal;
  frugal.variant = ChaseVariant::kFrugal;
  frugal.limits.max_steps = 400;
  auto f = RunChase(kb, frugal);
  ASSERT_TRUE(f.ok());

  ChaseOptions core;
  core.variant = ChaseVariant::kCore;
  core.limits.max_steps = 2000;
  auto c = RunChase(kb, core);
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c->stop_reason, StopReason::kFixpoint);

  // Frugal result is between core and restricted in size.
  EXPECT_LE(c->derivation.Last().size(), f->derivation.Last().size());
  EXPECT_LE(f->derivation.Last().size(), r->derivation.Last().size());
  // All agree on entailed CQs: each result maps into the core fixpoint and
  // receives the facts.
  if (f->stop_reason == StopReason::kFixpoint) {
    EXPECT_TRUE(
        ExistsHomomorphism(f->derivation.Last(), c->derivation.Last()));
  }
}

TEST(FrugalChaseTest, SimplificationsFixOldTerms) {
  StaircaseWorld world;
  ChaseOptions options;
  options.variant = ChaseVariant::kFrugal;
  options.limits.max_steps = 30;
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok());
  const Derivation& d = run->derivation;
  DerivationCursor c(d);
  std::vector<Term> previous_terms = c.instance().Terms();
  for (c.Next(); !c.done(); c.Next()) {
    const size_t i = c.index();
    const Substitution& sigma = c.step().simplification;
    if (!sigma.empty()) {
      // σ_i is a retraction of A_i fixing all terms of F_{i-1}.
      EXPECT_TRUE(sigma.IsRetractionOf(c.pre_simplification()))
          << "step " << i;
      for (Term t : previous_terms) {
        EXPECT_EQ(sigma.Apply(t), t) << "step " << i;
      }
    }
    previous_terms = c.instance().Terms();
  }
}

TEST(FrugalChaseTest, StaircaseFrugalStaysLeanerThanRestricted) {
  StaircaseWorld world;
  ChaseOptions frugal;
  frugal.variant = ChaseVariant::kFrugal;
  frugal.limits.max_steps = 40;
  auto f = RunChase(world.kb(), frugal);
  ASSERT_TRUE(f.ok());

  StaircaseWorld world2;
  ChaseOptions restricted;
  restricted.variant = ChaseVariant::kRestricted;
  restricted.limits.max_steps = 40;
  auto r = RunChase(world2.kb(), restricted);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(f->derivation.Last().size(), r->derivation.Last().size());
}

}  // namespace
}  // namespace twchase
