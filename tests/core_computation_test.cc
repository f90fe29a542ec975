#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hom/core.h"
#include "hom/endomorphism.h"
#include "hom/isomorphism.h"
#include "kb/generators.h"
#include "model/predicate.h"

namespace twchase {
namespace {

class CoreComputationTest : public ::testing::Test {
 protected:
  CoreComputationTest() {
    e_ = vocab_.MustPredicate("e", 2);
    a_ = vocab_.Constant("a");
    x_ = vocab_.NamedVariable("X");
    y_ = vocab_.NamedVariable("Y");
    z_ = vocab_.NamedVariable("Z");
  }

  Vocabulary vocab_;
  PredicateId e_;
  Term a_, x_, y_, z_;
};

TEST_F(CoreComputationTest, SelfLoopAbsorbsPath) {
  // e(X, Y), e(Y, Y): the core is the loop e(Y, Y)... X folds to Y.
  AtomSet a;
  a.Insert(Atom(e_, {x_, y_}));
  a.Insert(Atom(e_, {y_, y_}));
  CoreResult result = ComputeCore(a);
  EXPECT_EQ(result.core.size(), 1u);
  EXPECT_TRUE(result.core.Contains(Atom(e_, {y_, y_})));
  EXPECT_TRUE(result.retraction.IsRetractionOf(a));
}

TEST_F(CoreComputationTest, CoreOfCoreIsIdentity) {
  Vocabulary vocab;
  AtomSet cycle = MakeCycleInstance(&vocab, "e", 3);
  EXPECT_TRUE(IsCore(cycle));
  CoreResult result = ComputeCore(cycle);
  EXPECT_EQ(result.core, cycle);
}

TEST_F(CoreComputationTest, DirectedCyclesAreCores) {
  // Unlike undirected even cycles, every *directed* cycle is a core: its
  // proper subsets are unions of paths, and a cycle cannot map into an
  // acyclic structure.
  for (int n : {2, 4, 6}) {
    Vocabulary vocab;
    AtomSet cn = MakeCycleInstance(&vocab, "e", n);
    EXPECT_TRUE(IsCore(cn)) << "C" << n;
    EXPECT_EQ(ComputeCore(cn).core, cn) << "C" << n;
  }
}

TEST_F(CoreComputationTest, DisjointDivisorCyclesFold) {
  // C6 ⊎ C2 over one predicate: the six-cycle folds into the two-cycle
  // (2 divides 6), so the core is C2 alone.
  Vocabulary vocab;
  AtomSet both = MakeCycleInstance(&vocab, "e", 6);
  PredicateId e = vocab.MustPredicate("e", 2);
  Term u = vocab.NamedVariable("U"), w = vocab.NamedVariable("W");
  both.Insert(Atom(e, {u, w}));
  both.Insert(Atom(e, {w, u}));
  CoreResult result = ComputeCore(both);
  EXPECT_EQ(result.core.size(), 2u);
  EXPECT_EQ(result.core.Terms().size(), 2u);
}

TEST_F(CoreComputationTest, OddCycleIsCore) {
  Vocabulary vocab;
  AtomSet c5 = MakeCycleInstance(&vocab, "e", 5);
  EXPECT_TRUE(IsCore(c5));
}

TEST_F(CoreComputationTest, RedundantInstanceFoldsToPlantedCore) {
  Vocabulary vocab;
  AtomSet inst = MakeRedundantInstance(&vocab, "e", 3, 4);
  AtomSet planted = MakeCycleInstance(&vocab, "e", 3);
  CoreResult result = ComputeCore(inst);
  EXPECT_TRUE(AreIsomorphic(result.core, planted));
  EXPECT_TRUE(result.retraction.IsRetractionOf(inst));
}

TEST_F(CoreComputationTest, ConstantsNeverFold) {
  AtomSet a;
  Term b = vocab_.Constant("b");
  a.Insert(Atom(e_, {a_, b}));
  a.Insert(Atom(e_, {b, b}));
  // Looks like the loop-absorption case, but a is a constant: nothing folds.
  EXPECT_TRUE(IsCore(a));
  CoreResult result = ComputeCore(a);
  EXPECT_EQ(result.core, a);
}

TEST_F(CoreComputationTest, CoreIsUniqueUpToIsomorphismAcrossFoldOrders) {
  // Two disjoint redundant blobs around the same planted core shape: cores
  // computed from differently-permuted copies must be isomorphic.
  Vocabulary vocab1, vocab2;
  AtomSet i1 = MakeRedundantInstance(&vocab1, "e", 4, 2);
  AtomSet i2 = MakeRedundantInstance(&vocab2, "e", 4, 2);
  AtomSet core1 = ComputeCore(i1).core;
  AtomSet core2 = ComputeCore(i2).core;
  EXPECT_TRUE(AreIsomorphic(core1, core2));
}

TEST_F(CoreComputationTest, RetractionFromRotationEndomorphism) {
  // On a 2-cycle, the rotation endomorphism is not a retraction, but
  // iterating it must produce one (here: the identity, since the rotation is
  // an automorphism and the 2-cycle is a core).
  AtomSet a;
  a.Insert(Atom(e_, {x_, y_}));
  a.Insert(Atom(e_, {y_, x_}));
  Substitution rot;
  rot.Bind(x_, y_);
  rot.Bind(y_, x_);
  Substitution retraction = RetractionFromEndomorphism(a, rot);
  EXPECT_TRUE(retraction.IsRetractionOf(a));
  EXPECT_TRUE(retraction.IsIdentity());
}

TEST_F(CoreComputationTest, RetractionFromShiftingEndomorphism) {
  // Path X→Y→Z→loop(Z): endo shifting everything toward the loop needs
  // iteration before becoming a retraction.
  AtomSet a;
  a.Insert(Atom(e_, {x_, y_}));
  a.Insert(Atom(e_, {y_, z_}));
  a.Insert(Atom(e_, {z_, z_}));
  Substitution shift;
  shift.Bind(x_, y_);
  shift.Bind(y_, z_);
  shift.Bind(z_, z_);
  ASSERT_TRUE(shift.IsEndomorphismOf(a));
  EXPECT_FALSE(shift.IsRetractionOf(a));
  Substitution retraction = RetractionFromEndomorphism(a, shift);
  EXPECT_TRUE(retraction.IsRetractionOf(a));
  // The stable image is the loop alone.
  AtomSet image = retraction.Apply(a);
  EXPECT_EQ(image.size(), 1u);
  EXPECT_TRUE(image.Contains(Atom(e_, {z_, z_})));
}

TEST_F(CoreComputationTest, GridIsCore) {
  Vocabulary vocab;
  AtomSet grid = MakeGridInstance(&vocab, "h", "v", 3, 3);
  EXPECT_TRUE(IsCore(grid));
}

}  // namespace
}  // namespace twchase
