#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "model/atom_set.h"
#include "model/predicate.h"

namespace twchase {
namespace {

class AtomSetTest : public ::testing::Test {
 protected:
  AtomSetTest() {
    p_ = vocab_.MustPredicate("p", 2);
    q_ = vocab_.MustPredicate("q", 1);
    a_ = vocab_.Constant("a");
    b_ = vocab_.Constant("b");
    x_ = vocab_.NamedVariable("X");
  }

  Vocabulary vocab_;
  PredicateId p_, q_;
  Term a_, b_, x_;
};

TEST_F(AtomSetTest, InsertDeduplicates) {
  AtomSet s;
  EXPECT_TRUE(s.Insert(Atom(p_, {a_, b_})));
  EXPECT_FALSE(s.Insert(Atom(p_, {a_, b_})));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.Contains(Atom(p_, {a_, b_})));
}

TEST_F(AtomSetTest, EraseRemoves) {
  AtomSet s;
  s.Insert(Atom(p_, {a_, b_}));
  s.Insert(Atom(q_, {a_}));
  EXPECT_TRUE(s.Erase(Atom(p_, {a_, b_})));
  EXPECT_FALSE(s.Erase(Atom(p_, {a_, b_})));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_FALSE(s.Contains(Atom(p_, {a_, b_})));
  EXPECT_TRUE(s.Contains(Atom(q_, {a_})));
}

TEST_F(AtomSetTest, ReinsertAfterErase) {
  AtomSet s;
  s.Insert(Atom(q_, {a_}));
  s.Erase(Atom(q_, {a_}));
  EXPECT_TRUE(s.Insert(Atom(q_, {a_})));
  EXPECT_EQ(s.size(), 1u);
}

TEST_F(AtomSetTest, PostingsFilterDeadSlots) {
  AtomSet s;
  s.Insert(Atom(p_, {a_, b_}));
  s.Insert(Atom(p_, {a_, x_}));
  s.Erase(Atom(p_, {a_, b_}));
  auto by_pred = s.ByPredicate(p_);
  ASSERT_EQ(by_pred.size(), 1u);
  EXPECT_EQ(*by_pred[0], Atom(p_, {a_, x_}));
  auto by_term = s.ByTerm(a_);
  ASSERT_EQ(by_term.size(), 1u);
  EXPECT_EQ(s.CountByTerm(b_), 0u);
  EXPECT_EQ(s.CountByTerm(x_), 1u);
}

TEST_F(AtomSetTest, TermsAndVariables) {
  AtomSet s;
  s.Insert(Atom(p_, {a_, x_}));
  s.Insert(Atom(q_, {b_}));
  auto terms = s.Terms();
  EXPECT_EQ(terms.size(), 3u);
  auto vars = s.Variables();
  ASSERT_EQ(vars.size(), 1u);
  EXPECT_EQ(vars[0], x_);
  EXPECT_TRUE(s.ContainsTerm(a_));
  s.Erase(Atom(p_, {a_, x_}));
  EXPECT_FALSE(s.ContainsTerm(a_));
}

TEST_F(AtomSetTest, EqualityIgnoresInsertionOrder) {
  AtomSet s1, s2;
  s1.Insert(Atom(p_, {a_, b_}));
  s1.Insert(Atom(q_, {a_}));
  s2.Insert(Atom(q_, {a_}));
  s2.Insert(Atom(p_, {a_, b_}));
  EXPECT_EQ(s1, s2);
  s2.Erase(Atom(q_, {a_}));
  EXPECT_FALSE(s1 == s2);
}

TEST_F(AtomSetTest, SubsetAndUnion) {
  AtomSet s1, s2;
  s1.Insert(Atom(q_, {a_}));
  s2.Insert(Atom(q_, {a_}));
  s2.Insert(Atom(q_, {b_}));
  EXPECT_TRUE(s1.IsSubsetOf(s2));
  EXPECT_FALSE(s2.IsSubsetOf(s1));
  s1.InsertAll(s2);
  EXPECT_EQ(s1, s2);
}

TEST_F(AtomSetTest, CompactionPreservesContent) {
  AtomSet s;
  // Enough churn to trigger compaction (≥64 tombstones ≥ live count).
  for (int i = 0; i < 200; ++i) {
    s.Insert(Atom(p_, {vocab_.FreshVariable(), vocab_.FreshVariable()}));
  }
  std::vector<Atom> atoms = s.Atoms();
  for (int i = 0; i < 150; ++i) s.Erase(atoms[i]);
  EXPECT_EQ(s.size(), 50u);
  for (int i = 150; i < 200; ++i) {
    EXPECT_TRUE(s.Contains(atoms[i]));
    EXPECT_EQ(s.ByTerm(atoms[i].arg(0)).size(), 1u);
  }
  EXPECT_EQ(s.ByPredicate(p_).size(), 50u);
}

TEST_F(AtomSetTest, ForEachVisitsExactlyLiveAtoms) {
  AtomSet s;
  s.Insert(Atom(q_, {a_}));
  s.Insert(Atom(q_, {b_}));
  s.Erase(Atom(q_, {a_}));
  int count = 0;
  s.ForEach([&](const Atom& atom) {
    ++count;
    EXPECT_EQ(atom, Atom(q_, {b_}));
  });
  EXPECT_EQ(count, 1);
}

TEST_F(AtomSetTest, FromAtomsDeduplicates) {
  AtomSet s = AtomSet::FromAtoms({Atom(q_, {a_}), Atom(q_, {a_}), Atom(q_, {b_})});
  EXPECT_EQ(s.size(), 2u);
}

TEST_F(AtomSetTest, GenerationCountsOnlySuccessfulMutations) {
  AtomSet s;
  EXPECT_EQ(s.generation(), 0u);
  s.Insert(Atom(q_, {a_}));
  EXPECT_EQ(s.generation(), 1u);
  s.Insert(Atom(q_, {a_}));  // duplicate: no change
  EXPECT_EQ(s.generation(), 1u);
  s.Erase(Atom(q_, {b_}));  // absent: no change
  EXPECT_EQ(s.generation(), 1u);
  s.Erase(Atom(q_, {a_}));
  EXPECT_EQ(s.generation(), 2u);
}

TEST_F(AtomSetTest, AssignmentAndMovingOutAdvanceTheGeneration) {
  // A set's generation never returns to an earlier value, so a consumer
  // that remembers it sees every change of contents, replacements too.
  AtomSet s;
  s.Insert(Atom(q_, {a_}));
  AtomSet other;
  other.Insert(Atom(q_, {b_}));
  ASSERT_EQ(s.generation(), other.generation());
  AtomSet copy(other);
  EXPECT_EQ(copy.generation(), 1u);  // a copy starts from the source's
  s = other;
  EXPECT_EQ(s.generation(), 2u);  // past both sides'
  s = AtomSet();
  EXPECT_EQ(s.generation(), 3u);
  AtomSet moved(std::move(other));
  EXPECT_EQ(moved.generation(), 1u);
  EXPECT_EQ(other.generation(), 2u);
  s = std::move(moved);
  EXPECT_EQ(s.generation(), 4u);
  EXPECT_EQ(moved.generation(), 2u);
}

TEST_F(AtomSetTest, DeltaJournalRecordsNetMutations) {
  AtomSet s;
  s.Insert(Atom(q_, {a_}));  // before enabling: not journaled
  s.EnableDeltaJournal();
  s.Insert(Atom(q_, {b_}));
  s.Insert(Atom(q_, {b_}));  // duplicate: not journaled
  s.Erase(Atom(q_, {a_}));
  AtomSet::Delta delta = s.DrainDelta();
  ASSERT_EQ(delta.inserted.size(), 1u);
  EXPECT_EQ(delta.inserted[0], Atom(q_, {b_}));
  ASSERT_EQ(delta.erased.size(), 1u);
  EXPECT_EQ(delta.erased[0], Atom(q_, {a_}));
  EXPECT_TRUE(s.DrainDelta().empty());  // drain clears
}

TEST_F(AtomSetTest, DeltaJournalEraseThenReinsertAppearsInBothLists) {
  AtomSet s;
  s.Insert(Atom(q_, {a_}));
  s.EnableDeltaJournal();
  s.Erase(Atom(q_, {a_}));
  s.Insert(Atom(q_, {a_}));
  AtomSet::Delta delta = s.DrainDelta();
  ASSERT_EQ(delta.erased.size(), 1u);
  ASSERT_EQ(delta.inserted.size(), 1u);
  EXPECT_EQ(delta.erased[0], delta.inserted[0]);
}

TEST_F(AtomSetTest, DeltaJournalDisabledHasNoEntries) {
  AtomSet s;
  s.Insert(Atom(q_, {a_}));
  s.Erase(Atom(q_, {a_}));
  EXPECT_FALSE(s.delta_journal_enabled());
  EXPECT_TRUE(s.DrainDelta().empty());
}

TEST_F(AtomSetTest, NoteExternalEntriesNeedEnabledJournal) {
  AtomSet s;
  s.NoteExternalInsert(Atom(q_, {a_}));  // disabled: dropped
  EXPECT_TRUE(s.DrainDelta().empty());
  s.EnableDeltaJournal();
  s.NoteExternalInsert(Atom(q_, {a_}));
  s.NoteExternalErase(Atom(q_, {b_}));
  AtomSet::Delta delta = s.DrainDelta();
  ASSERT_EQ(delta.inserted.size(), 1u);
  ASSERT_EQ(delta.erased.size(), 1u);
  EXPECT_EQ(s.size(), 0u);  // notes never mutate the set itself
}

TEST_F(AtomSetTest, CompactionPreservesJournalAndGeneration) {
  // The journal stores atom values, not slots, so tombstone compaction must
  // neither lose nor duplicate entries; the generation counter counts
  // mutations only, not the (content-preserving) compaction.
  AtomSet s;
  s.EnableDeltaJournal();
  std::vector<Atom> atoms;
  for (int i = 0; i < 200; ++i) {
    Atom atom(p_, {vocab_.FreshVariable(), vocab_.FreshVariable()});
    atoms.push_back(atom);
    s.Insert(std::move(atom));
  }
  EXPECT_EQ(s.compactions(), 0u);
  for (int i = 0; i < 150; ++i) s.Erase(atoms[i]);
  EXPECT_GE(s.compactions(), 1u);  // churn crossed the compaction threshold
  EXPECT_LT(s.dead_slots(), 64u);  // compaction reclaimed the tombstones
  EXPECT_EQ(s.generation(), 350u);
  AtomSet::Delta delta = s.DrainDelta();
  EXPECT_EQ(delta.inserted.size(), 200u);
  EXPECT_EQ(delta.erased.size(), 150u);
  // Postings survive compaction with the journal intact.
  EXPECT_EQ(s.ByPredicate(p_).size(), 50u);
  for (int i = 150; i < 200; ++i) EXPECT_TRUE(s.Contains(atoms[i]));
}

TEST_F(AtomSetTest, JournalSurvivesMoveAssignment) {
  AtomSet s;
  s.EnableDeltaJournal();
  s.Insert(Atom(q_, {a_}));
  AtomSet moved = std::move(s);
  EXPECT_TRUE(moved.delta_journal_enabled());
  AtomSet::Delta delta = moved.DrainDelta();
  ASSERT_EQ(delta.inserted.size(), 1u);
  EXPECT_EQ(delta.inserted[0], Atom(q_, {a_}));
}

}  // namespace
}  // namespace twchase
