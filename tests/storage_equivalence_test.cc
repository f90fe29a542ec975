// Storage-equivalence oracle for the columnar matching backend (tentpole of
// the columnar-storage PR): candidate generation over dictionary-encoded
// ColumnSegments must be BIT-IDENTICAL to the legacy posting-list walk —
// same final instance, same derivation journal, same observer event
// stream — for every chase variant, on both worked example families. The
// suite also unit-tests the two new model-layer
// pieces (TermDictionary, ColumnSegment) and the AtomSet fallbacks the
// matcher's join path relies on (mixed arity, compaction).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/chase.h"
#include "hom/matcher.h"
#include "kb/examples.h"
#include "model/atom_set.h"
#include "model/column_segment.h"
#include "model/term_dictionary.h"
#include "obs/observer.h"
#include "obs/stock_observers.h"

namespace twchase {
namespace {

// --------------------------------------------------------------------------
// Backend bit-identity oracle.

const ChaseVariant kAllVariants[] = {
    ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
    ChaseVariant::kRestricted, ChaseVariant::kFrugal, ChaseVariant::kCore};

enum class Family { kStaircase, kElevator };

KnowledgeBase FreshKb(Family family) {
  // Fresh world per run so fresh-null minting starts from the same
  // vocabulary state (construction is deterministic).
  if (family == Family::kStaircase) return StaircaseWorld().kb();
  return ElevatorWorld().kb();
}

std::string FamilyName(Family family) {
  return family == Family::kStaircase ? "staircase" : "elevator";
}

const char* BackendName(MatchBackend backend) {
  return backend == MatchBackend::kColumnar ? "columnar" : "legacy";
}

// Scoped backend switch: restores the previous backend even on test failure
// so a failing case cannot poison the rest of the binary.
struct BackendGuard {
  explicit BackendGuard(MatchBackend backend)
      : previous(CurrentMatchBackend()) {
    SetMatchBackend(backend);
  }
  ~BackendGuard() { SetMatchBackend(previous); }
  MatchBackend previous;
};

struct RunOutput {
  ChaseResult result;
  std::string events;
};

RunOutput RunVariant(Family family, ChaseVariant variant, size_t max_steps,
                     MatchBackend backend) {
  BackendGuard guard(backend);
  KnowledgeBase kb = FreshKb(family);
  std::ostringstream events;
  EventLogObserver log(&events);
  ChaseOptions options;
  options.variant = variant;
  options.limits.max_steps = max_steps;
  options.observer = &log;
  auto run = RunChase(kb, options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return {std::move(run).value(), events.str()};
}

// Step-by-step derivation journal equality: rule sequence, trigger
// matches, simplifications, added atoms and every instance snapshot.
void ExpectSameJournal(const Derivation& got, const Derivation& want,
                       const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(context + ", step " + std::to_string(i));
    const DerivationStep& g = got.step(i);
    const DerivationStep& w = want.step(i);
    EXPECT_EQ(g.rule_index, w.rule_index);
    EXPECT_EQ(g.rule_label, w.rule_label);
    EXPECT_EQ(g.match, w.match);
    EXPECT_EQ(g.simplification, w.simplification);
    EXPECT_EQ(g.added_atoms, w.added_atoms);
    EXPECT_EQ(g.instance_size, w.instance_size);
    EXPECT_EQ(g.instance.ContentHash(), w.instance.ContentHash());
  }
}

void ExpectBitIdentical(const RunOutput& got, const RunOutput& golden,
                        const std::string& context) {
  EXPECT_EQ(got.result.stop_reason, golden.result.stop_reason) << context;
  EXPECT_EQ(got.result.steps, golden.result.steps) << context;
  EXPECT_EQ(got.result.rounds, golden.result.rounds) << context;
  EXPECT_EQ(got.result.derivation.Last().size(),
            golden.result.derivation.Last().size())
      << context;
  EXPECT_EQ(got.result.derivation.Last().ContentHash(),
            golden.result.derivation.Last().ContentHash())
      << context;
  ExpectSameJournal(got.result.derivation, golden.result.derivation, context);
  EXPECT_EQ(got.events, golden.events) << context;
}

void SweepFamily(Family family, size_t max_steps) {
  for (ChaseVariant variant : kAllVariants) {
    RunOutput golden =
        RunVariant(family, variant, max_steps, MatchBackend::kLegacy);
    RunOutput run =
        RunVariant(family, variant, max_steps, MatchBackend::kColumnar);
    ExpectBitIdentical(run, golden,
                       FamilyName(family) + "/" + ChaseVariantName(variant) +
                           "/" + BackendName(MatchBackend::kColumnar));
  }
}

TEST(BackendBitIdentity, AllVariantsStaircase) {
  SweepFamily(Family::kStaircase, /*max_steps=*/16);
}

TEST(BackendBitIdentity, AllVariantsElevator) {
  SweepFamily(Family::kElevator, /*max_steps=*/12);
}

// --------------------------------------------------------------------------
// chase.match.* counters.

TEST(MatchCountersTest, ColumnarRunsPopulateCountersLegacyStaysZero) {
  RunOutput columnar =
      RunVariant(Family::kStaircase, ChaseVariant::kRestricted,
                 /*max_steps=*/16, MatchBackend::kColumnar);
  EXPECT_GT(columnar.result.stats.match_index_probes +
                columnar.result.stats.match_column_scans,
            0u);
  EXPECT_GT(columnar.result.stats.match_index_builds, 0u);
  EXPECT_GT(columnar.result.stats.match_index_build_bytes, 0u);

  RunOutput legacy =
      RunVariant(Family::kStaircase, ChaseVariant::kRestricted,
                 /*max_steps=*/16, MatchBackend::kLegacy);
  EXPECT_EQ(legacy.result.stats.match_index_probes, 0u);
  EXPECT_EQ(legacy.result.stats.match_column_scans, 0u);
  EXPECT_EQ(legacy.result.stats.match_join_fallbacks, 0u);
  EXPECT_EQ(legacy.result.stats.match_index_builds, 0u);
  EXPECT_EQ(legacy.result.stats.match_index_build_bytes, 0u);
}

TEST(MatchCountersTest, CountersAreDeterministicAcrossRuns) {
  // Each counter is a per-search total and lazy index builds happen exactly
  // once per stale-to-ready transition, so two runs of the same chase
  // report the same sums.
  for (ChaseVariant variant : {ChaseVariant::kRestricted, ChaseVariant::kCore}) {
    RunOutput first = RunVariant(Family::kStaircase, variant,
                                 /*max_steps=*/16, MatchBackend::kColumnar);
    RunOutput second = RunVariant(Family::kStaircase, variant,
                                  /*max_steps=*/16, MatchBackend::kColumnar);
    const ChaseStats& a = first.result.stats;
    const ChaseStats& b = second.result.stats;
    std::string context = std::string(ChaseVariantName(variant));
    EXPECT_EQ(a.match_index_probes, b.match_index_probes) << context;
    EXPECT_EQ(a.match_column_scans, b.match_column_scans) << context;
    EXPECT_EQ(a.match_join_fallbacks, b.match_join_fallbacks) << context;
    EXPECT_EQ(a.match_index_builds, b.match_index_builds) << context;
    EXPECT_EQ(a.match_index_build_bytes, b.match_index_build_bytes) << context;
  }
}

TEST(MatchCountersTest, InjectiveSearchFallsBackToLegacyPath) {
  Vocabulary vocab;
  PredicateId p = vocab.MustPredicate("p", 2);
  Term a = vocab.Constant("a");
  Term b = vocab.Constant("b");
  Term x = vocab.NamedVariable("X");
  Term y = vocab.NamedVariable("Y");

  AtomSet target;
  target.Insert(Atom(p, {a, b}));
  AtomSet pattern;
  pattern.Insert(Atom(p, {x, y}));

  BackendGuard guard(MatchBackend::kColumnar);
  MatchCounters counters;
  MatchCountersScope scope(&counters);

  HomOptions plain;
  plain.limit = 0;
  EXPECT_EQ(FindAllHomomorphisms(pattern, target, plain).size(), 1u);
  EXPECT_EQ(counters.join_fallbacks.load(), 0u);

  HomOptions injective = plain;
  injective.injective = true;
  EXPECT_EQ(FindAllHomomorphisms(pattern, target, injective).size(), 1u);
  EXPECT_GT(counters.join_fallbacks.load(), 0u);
}

// --------------------------------------------------------------------------
// TermDictionary.

TEST(TermDictionaryTest, InterningIsStableAndDense) {
  TermDictionary dict;
  Term c0 = Term::Constant(0);
  Term c7 = Term::Constant(7);
  Term v3 = Term::Variable(3);

  EXPECT_EQ(dict.Intern(c0), 0u);
  EXPECT_EQ(dict.Intern(c7), 1u);
  EXPECT_EQ(dict.Intern(v3), 2u);
  // Re-interning returns the existing id.
  EXPECT_EQ(dict.Intern(c7), 1u);
  EXPECT_EQ(dict.size(), 3u);

  EXPECT_EQ(dict.Find(c0), 0u);
  EXPECT_EQ(dict.Find(v3), 2u);
  EXPECT_EQ(dict.Find(Term::Constant(3)), TermDictionary::kNoId);
  EXPECT_EQ(dict.Find(Term::Variable(7)), TermDictionary::kNoId);

  EXPECT_EQ(dict.term(0), c0);
  EXPECT_EQ(dict.term(1), c7);
  EXPECT_EQ(dict.term(2), v3);
}

TEST(TermDictionaryTest, SurvivesBlockBoundariesAndCopies) {
  TermDictionary dict;
  constexpr size_t kCount = 10000;  // > 2 reverse-map blocks of 4096
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(dict.Intern(Term::Variable(static_cast<uint32_t>(i))),
              static_cast<TermId>(i));
  }
  TermDictionary copy = dict;
  // Copies are independent: interning into one does not affect the other.
  EXPECT_EQ(copy.Intern(Term::Constant(5)), static_cast<TermId>(kCount));
  EXPECT_EQ(dict.Find(Term::Constant(5)), TermDictionary::kNoId);
  for (size_t i = 0; i < kCount; i += 977) {
    EXPECT_EQ(copy.term(static_cast<TermId>(i)),
              Term::Variable(static_cast<uint32_t>(i)));
    EXPECT_EQ(dict.Find(Term::Variable(static_cast<uint32_t>(i))),
              static_cast<TermId>(i));
  }
}

// --------------------------------------------------------------------------
// ColumnSegment.

// Resolves a probe the way the matcher does: the sorted range first, then a
// linear filter over the unmerged tail. The combined list is ascending.
std::vector<uint32_t> RowsOf(const ColumnSegment& seg, uint32_t col, TermId id,
                             IndexBuildStats* build) {
  ColumnSegment::ProbeResult range = seg.EqualRange(col, id, build);
  std::vector<uint32_t> out(range.begin, range.end);
  for (uint32_t row = range.tail_begin; row != range.tail_end; ++row) {
    if (seg.cell(row, col) == id) out.push_back(row);
  }
  return out;
}

TEST(ColumnSegmentTest, EqualRangeFindsDuplicatesInRowOrder) {
  ColumnSegment seg(/*arity=*/2);
  const TermId rows[][2] = {{5, 1}, {3, 2}, {5, 3}, {5, 1}, {3, 1}};
  for (uint32_t i = 0; i < 5; ++i) seg.Append(/*slot=*/i * 2, rows[i]);

  // Five rows sit comfortably inside the tail threshold: probes answer from
  // the linear tail scan without ever paying for a sort.
  IndexBuildStats build;
  EXPECT_EQ(RowsOf(seg, 0, 5, &build), (std::vector<uint32_t>{0, 2, 3}));
  EXPECT_EQ(build.builds, 0u);
  EXPECT_EQ(seg.index_builds(), 0u);
  EXPECT_EQ(seg.IndexBytes(), 0u);
  EXPECT_EQ(RowsOf(seg, 0, 3, &build), (std::vector<uint32_t>{1, 4}));
  EXPECT_EQ(RowsOf(seg, 0, 4, &build).size(), 0u);
  EXPECT_EQ(RowsOf(seg, 1, 1, &build), (std::vector<uint32_t>{0, 3, 4}));

  // Rows preserve slots and cells.
  EXPECT_EQ(seg.slot(3), 6u);
  EXPECT_EQ(seg.cell(3, 0), 5u);
  EXPECT_EQ(seg.cell(3, 1), 1u);
}

TEST(ColumnSegmentTest, TailMergesOnlyPastThreshold) {
  ColumnSegment seg(/*arity=*/1);
  for (uint32_t i = 0; i < ColumnSegment::kTailMergeThreshold; ++i) {
    const TermId v = i % 3;
    seg.Append(i, &v);
  }
  // A threshold-sized tail is still scanned linearly: no build.
  IndexBuildStats build;
  std::vector<uint32_t> expect{0, 3, 6, 9, 12, 15};
  EXPECT_EQ(RowsOf(seg, 0, 0, &build), expect);
  EXPECT_EQ(build.builds, 0u);
  EXPECT_EQ(seg.index_builds(), 0u);

  // One more row pushes the tail over the threshold: the next probe merges
  // everything into the sorted index, and the tail comes back empty.
  const TermId zero = 0;
  seg.Append(16, &zero);
  expect.push_back(16);
  EXPECT_EQ(RowsOf(seg, 0, 0, &build), expect);
  EXPECT_EQ(seg.index_builds(), 1u);
  EXPECT_EQ(build.builds, 1u);
  EXPECT_GT(build.bytes, 0u);
  EXPECT_GT(seg.IndexBytes(), 0u);

  // A small batch of fresh appends rides in the tail without re-merging...
  seg.Append(17, &zero);
  expect.push_back(17);
  EXPECT_EQ(RowsOf(seg, 0, 0, &build), expect);
  EXPECT_EQ(seg.index_builds(), 1u);

  // ...until the tail outgrows the threshold again, forcing exactly one
  // incremental merge that absorbs the whole batch.
  for (uint32_t i = 18; i < 18 + ColumnSegment::kTailMergeThreshold + 1; ++i) {
    seg.Append(i, &zero);
    expect.push_back(i);
  }
  EXPECT_EQ(RowsOf(seg, 0, 0, &build), expect);
  EXPECT_EQ(seg.index_builds(), 2u);
}

TEST(ColumnSegmentTest, EmptySegmentProbesAreEmpty) {
  ColumnSegment seg(/*arity=*/3);
  EXPECT_EQ(seg.rows(), 0u);
  IndexBuildStats build;
  EXPECT_EQ(RowsOf(seg, 2, 0, &build).size(), 0u);
}

TEST(ColumnSegmentTest, CopiesDropIndexesButKeepRows) {
  ColumnSegment seg(/*arity=*/1);
  const size_t kRows = ColumnSegment::kTailMergeThreshold + 1;
  for (uint32_t i = 0; i < kRows; ++i) {
    const TermId v = 7;
    seg.Append(i, &v);
  }
  IndexBuildStats build;
  std::vector<uint32_t> expect;
  for (uint32_t i = 0; i < kRows; ++i) expect.push_back(i);
  EXPECT_EQ(RowsOf(seg, 0, 7, &build), expect);
  EXPECT_GT(seg.IndexBytes(), 0u);

  ColumnSegment copy(seg);
  EXPECT_EQ(copy.rows(), kRows);
  EXPECT_EQ(copy.IndexBytes(), 0u);  // rebuilt lazily on first probe
  EXPECT_EQ(RowsOf(copy, 0, 7, &build), expect);
  // Content-deterministic estimate: identical for original and copy even
  // though they hold different resident index state.
  EXPECT_EQ(copy.ApproxMemoryBytes(), seg.ApproxMemoryBytes());
}

// --------------------------------------------------------------------------
// AtomSet integration: segments, fallbacks, compaction.

class AtomSetSegmentTest : public ::testing::Test {
 protected:
  AtomSetSegmentTest() {
    p_ = vocab_.MustPredicate("p", 2);
    q_ = vocab_.MustPredicate("q", 1);
    a_ = vocab_.Constant("a");
    b_ = vocab_.Constant("b");
    c_ = vocab_.Constant("c");
  }

  Vocabulary vocab_;
  PredicateId p_, q_;
  Term a_, b_, c_;
};

TEST_F(AtomSetSegmentTest, SegmentTracksInsertionsByPredicate) {
  AtomSet s;
  EXPECT_EQ(s.SegmentFor(p_), nullptr);  // never inserted
  s.Insert(Atom(p_, {a_, b_}));
  s.Insert(Atom(p_, {b_, c_}));
  s.Insert(Atom(q_, {a_}));
  const ColumnSegment* seg = s.SegmentFor(p_);
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(seg->arity(), 2u);
  EXPECT_EQ(seg->rows(), 2u);
  const TermDictionary& dict = s.dictionary();
  EXPECT_EQ(seg->cell(0, 0), dict.Find(a_));
  EXPECT_EQ(seg->cell(1, 0), dict.Find(b_));
  EXPECT_EQ(seg->cell(1, 1), dict.Find(c_));
}

TEST_F(AtomSetSegmentTest, MixedArityPredicateOptsOutOfColumnarStorage) {
  // Atom does not enforce the declared arity, so a predicate can show up
  // with two widths; such predicates permanently fall back to the per-atom
  // path (SegmentFor == nullptr) rather than storing ragged rows.
  AtomSet s;
  s.Insert(Atom(p_, {a_, b_}));
  ASSERT_NE(s.SegmentFor(p_), nullptr);
  s.Insert(Atom(p_, {a_}));
  EXPECT_EQ(s.SegmentFor(p_), nullptr);

  // Matching still works through the fallback, counted as such.
  BackendGuard guard(MatchBackend::kColumnar);
  MatchCounters counters;
  MatchCountersScope scope(&counters);
  AtomSet pattern;
  Term x = vocab_.NamedVariable("X");
  Term y = vocab_.NamedVariable("Y");
  pattern.Insert(Atom(p_, {x, y}));
  HomOptions options;
  options.limit = 0;
  EXPECT_EQ(FindAllHomomorphisms(pattern, s, options).size(), 1u);
  EXPECT_GT(counters.join_fallbacks.load(), 0u);
}

TEST_F(AtomSetSegmentTest, EraseFiltersRowsAndCompactionRebuildsSegments) {
  AtomSet s;
  s.Insert(Atom(p_, {a_, b_}));
  s.Insert(Atom(p_, {a_, c_}));
  s.Insert(Atom(p_, {b_, c_}));
  s.Erase(Atom(p_, {a_, c_}));

  // Erased rows stay in the segment (liveness is filtered at read time by
  // the matcher), so joins must not resurrect them.
  AtomSet pattern;
  Term x = vocab_.NamedVariable("X");
  pattern.Insert(Atom(p_, {a_, x}));
  HomOptions options;
  options.limit = 0;
  BackendGuard guard(MatchBackend::kColumnar);
  EXPECT_EQ(FindAllHomomorphisms(pattern, s, options).size(), 1u);

  // Drive the tombstone ratio past the internal compaction threshold
  // (>= 64 dead and dead >= live); the segments are rebuilt from the live
  // slots and matching and content are unchanged.
  for (uint32_t i = 0; i < 70; ++i) {
    Atom filler(q_, {vocab_.Constant("f" + std::to_string(i))});
    s.Insert(filler);
    s.Erase(filler);
  }
  uint64_t hash = s.ContentHash();
  const ColumnSegment* seg = s.SegmentFor(p_);
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(seg->rows(), 2u);  // a_c tombstone dropped by the compaction
  EXPECT_EQ(s.ContentHash(), hash);
  EXPECT_EQ(FindAllHomomorphisms(pattern, s, options).size(), 1u);
}

TEST_F(AtomSetSegmentTest, CopiedSetsMatchIdenticallyAndReportSameBytes) {
  AtomSet s;
  s.Insert(Atom(p_, {a_, b_}));
  s.Insert(Atom(p_, {b_, c_}));
  AtomSet copy = s;
  EXPECT_EQ(copy.ContentHash(), s.ContentHash());
  EXPECT_EQ(copy.ApproxMemoryBytes(), s.ApproxMemoryBytes());

  AtomSet pattern;
  Term x = vocab_.NamedVariable("X");
  Term y = vocab_.NamedVariable("Y");
  pattern.Insert(Atom(p_, {x, y}));
  HomOptions options;
  options.limit = 0;
  BackendGuard guard(MatchBackend::kColumnar);
  EXPECT_EQ(FindAllHomomorphisms(pattern, copy, options),
            FindAllHomomorphisms(pattern, s, options));

  // Divergence after the copy stays local to each set.
  copy.Insert(Atom(p_, {c_, a_}));
  EXPECT_EQ(FindAllHomomorphisms(pattern, copy, options).size(), 3u);
  EXPECT_EQ(FindAllHomomorphisms(pattern, s, options).size(), 2u);
}

}  // namespace
}  // namespace twchase
