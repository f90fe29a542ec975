// Oracle suite for the columnar matcher — the only candidate generator of
// the homomorphism search (hom/matcher.cc):
//   * pinned runs: every chase variant on both worked example families must
//     reproduce recorded constants (stop reason, steps, rounds, final size
//     and content hash, the per-step content-hash sequence and the observer
//     event stream), so candidate order and hence every decision of the
//     chase stay exactly as recorded;
//   * reference property: on random small instances — seeds, forbidden
//     image terms, injective and vars-to-vars modes, mixed-arity targets —
//     FindAllHomomorphisms returns exactly the result set of a brute-force
//     enumeration (tests/reference_matcher.h), and its result ORDER plus the
//     first isomorphism / grid verdicts reproduce recorded digests;
//   * the model-layer pieces the join path reads: TermDictionary,
//     ColumnSegment, and AtomSet's one segment per (predicate, arity).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/chase.h"
#include "core/checkpoint.h"
#include "hom/isomorphism.h"
#include "hom/matcher.h"
#include "kb/examples.h"
#include "model/atom_set.h"
#include "model/column_segment.h"
#include "model/term_dictionary.h"
#include "obs/observer.h"
#include "obs/stock_observers.h"
#include "reference_matcher.h"
#include "tw/graph.h"
#include "tw/grid.h"

namespace twchase {
namespace {

uint64_t Fnv(uint64_t h, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}

constexpr uint64_t kFnvBasis = 1469598103934665603ull;

uint64_t FnvString(const std::string& s) {
  uint64_t h = kFnvBasis;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// --------------------------------------------------------------------------
// Pinned chase runs.

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

struct RunOutput {
  ChaseResult result;
  std::string events;
};

RunOutput RunVariant(Family family, ChaseVariant variant, size_t max_steps) {
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

// What a run must reproduce. The step-hash digest folds the content hash of
// every recorded instance F_0, F_1, ... in order; the event digest is FNV-1a
// over the whole JSONL event log.
struct RunDigest {
  int stop_reason;
  size_t steps;
  size_t rounds;
  size_t final_size;
  uint64_t final_hash;
  uint64_t step_hashes;
  uint64_t events;

  bool operator==(const RunDigest&) const = default;
};

RunDigest DigestOf(const RunOutput& run) {
  const Derivation& d = run.result.derivation;
  uint64_t step_hashes = kFnvBasis;
  for (DerivationCursor c(d); !c.done(); c.Next()) {
    step_hashes = Fnv(step_hashes, c.instance().ContentHash());
  }
  return {static_cast<int>(run.result.stop_reason),
          run.result.steps,
          run.result.rounds,
          d.Last().size(),
          d.Last().ContentHash(),
          step_hashes,
          FnvString(run.events)};
}

std::string ToString(const RunDigest& d) {
  std::ostringstream out;
  out << "{" << d.stop_reason << ", " << d.steps << ", " << d.rounds << ", "
      << d.final_size << ", 0x" << std::hex << d.final_hash << "ull, 0x"
      << d.step_hashes << "ull, 0x" << d.events << "ull}";
  return out.str();
}

void ExpectPinned(Family family, size_t max_steps,
                  const RunDigest (&pinned)[5]) {
  for (size_t i = 0; i < 5; ++i) {
    RunDigest got = DigestOf(RunVariant(family, kAllVariants[i], max_steps));
    EXPECT_TRUE(got == pinned[i])
        << ChaseVariantName(kAllVariants[i]) << ": got " << ToString(got)
        << ", pinned " << ToString(pinned[i]);
  }
}

// Recorded before the legacy candidate path was deleted, when that path and
// the join path were held bit-identical; order: oblivious, semi-oblivious,
// restricted, frugal, core.
TEST(PinnedRuns, AllVariantsStaircase) {
  const RunDigest pinned[5] = {
      {1, 16, 6, 39, 0xec17a7121fb75c11ull,
       0x97ce985cb7f8f0f2ull, 0xa0d8014da35d5629ull},
      {1, 16, 6, 49, 0xbea5a7b01d68670cull,
       0x65f94389f9c011ccull, 0x3b606b7efd62032cull},
      {1, 16, 16, 43, 0x441d1606de9a7910ull,
       0x901e226d187fc537ull, 0x4413435464a81b7bull},
      {1, 16, 16, 43, 0x441d1606de9a7910ull,
       0x901e226d187fc537ull, 0xa961c0af40bff23cull},
      {1, 16, 16, 16, 0x60dd20645ad39b38ull,
       0xf527de40a055dc3eull, 0x5b08bca4c002d18bull},
  };
  ExpectPinned(Family::kStaircase, /*max_steps=*/16, pinned);
}

TEST(PinnedRuns, AllVariantsElevator) {
  const RunDigest pinned[5] = {
      {1, 12, 7, 23, 0x307023ff94ea1f8ull,
       0xd70055118a3cac81ull, 0x47c4cc9aacea40c2ull},
      {1, 12, 7, 23, 0x307023ff94ea1f8ull,
       0xd70055118a3cac81ull, 0xc84a7c3399f63dfdull},
      {1, 12, 7, 28, 0x90d4400f55530138ull,
       0xa59707763d2c7bb1ull, 0x1adbec9f502b1614ull},
      {1, 12, 7, 28, 0x90d4400f55530138ull,
       0xa59707763d2c7bb1ull, 0x28c0f9d14b142868ull},
      {1, 12, 7, 28, 0x90d4400f55530138ull,
       0xa59707763d2c7bb1ull, 0x1b9ffefa63f538d3ull},
  };
  ExpectPinned(Family::kElevator, /*max_steps=*/12, pinned);
}

// A checkpoint or state directory written before the backend switch was
// removed must keep resuming: the fingerprint folds the constant the
// switch's default contributed.
TEST(PinnedRuns, CheckpointFingerprintOfTheStaircaseAtDefaults) {
  StaircaseWorld world;
  EXPECT_EQ(CheckpointFingerprint(world.kb(), ChaseOptions{}),
            2975195307304529993ull);
}

// --------------------------------------------------------------------------
// Reference property: random small instances against the brute force.

// splitmix64: a fixed, library-independent stream for instance generation.
class Stream {
 public:
  explicit Stream(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  bool Chance(size_t percent) { return Below(100) < percent; }

 private:
  uint64_t state_;
};

// Target vocabulary: constants c0..c2 and variables V0..V3. Patterns use
// their own variables P0..P3 (plus, occasionally, a target term).
constexpr uint32_t kConstants = 3;
constexpr uint32_t kTargetVars = 4;
constexpr uint32_t kPatternVarBase = 100;
constexpr uint32_t kPatternVars = 4;
// Base arity per raw predicate id; mixed-arity instances ignore it.
constexpr uint32_t kBaseArity[] = {2, 3, 1};

Term TargetTerm(Stream& s) {
  size_t i = s.Below(kConstants + kTargetVars);
  return i < kConstants ? Term::Constant(static_cast<uint32_t>(i))
                        : Term::Variable(static_cast<uint32_t>(i - kConstants));
}

uint32_t ArityOf(Stream& s, PredicateId p, bool mixed) {
  return mixed ? static_cast<uint32_t>(1 + s.Below(3)) : kBaseArity[p];
}

AtomSet RandomTarget(Stream& s, bool mixed) {
  AtomSet out;
  size_t atoms = 8 + s.Below(8);
  for (size_t i = 0; i < atoms; ++i) {
    PredicateId p = static_cast<PredicateId>(s.Below(3));
    std::vector<Term> args;
    for (uint32_t k = ArityOf(s, p, mixed); k > 0; --k) {
      args.push_back(TargetTerm(s));
    }
    out.Insert(Atom(p, std::move(args)));
  }
  return out;
}

AtomSet RandomPattern(Stream& s, bool mixed) {
  AtomSet out;
  size_t atoms = 1 + s.Below(3);
  for (size_t i = 0; i < atoms; ++i) {
    PredicateId p = static_cast<PredicateId>(s.Below(3));
    std::vector<Term> args;
    for (uint32_t k = ArityOf(s, p, mixed); k > 0; --k) {
      args.push_back(s.Chance(12) ? TargetTerm(s)
                                  : Term::Variable(kPatternVarBase +
                                                   static_cast<uint32_t>(
                                                       s.Below(kPatternVars))));
    }
    out.Insert(Atom(p, std::move(args)));
  }
  return out;
}

enum class Mode {
  kPlain,
  kSeed,
  kForbidden,
  kInjective,
  kVarsToVars,
  kIsomorphismStyle,  // injective + vars-to-vars, as hom/isomorphism.cc
  kFold,              // pattern = target, forbidden variable, as hom/core.cc
  kCount
};

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kPlain: return "plain";
    case Mode::kSeed: return "seed";
    case Mode::kForbidden: return "forbidden";
    case Mode::kInjective: return "injective";
    case Mode::kVarsToVars: return "vars-to-vars";
    case Mode::kIsomorphismStyle: return "injective+vars-to-vars";
    case Mode::kFold: return "fold";
    case Mode::kCount: break;
  }
  return "?";
}

struct Query {
  AtomSet pattern;
  AtomSet target;
  HomOptions options;
};

Query MakeQuery(uint64_t seed, Mode mode) {
  Stream s(seed * 0x100 + static_cast<uint64_t>(mode));
  const bool mixed = s.Chance(35);
  Query q;
  q.target = RandomTarget(s, mixed);
  q.pattern = mode == Mode::kFold ? q.target : RandomPattern(s, mixed);
  q.options.limit = 0;
  // Once the draw that switched identity-first ordering off; the order is
  // fixed now, and the draw stays so every later query is unchanged.
  s.Chance(25);
  switch (mode) {
    case Mode::kSeed: {
      std::vector<Term> vars = q.pattern.Variables();
      if (!vars.empty()) {
        q.options.seed.Bind(vars[s.Below(vars.size())], TargetTerm(s));
      }
      // A seed entry outside the pattern rides along into every result.
      if (s.Chance(50)) q.options.seed.Bind(Term::Variable(999), TargetTerm(s));
      break;
    }
    case Mode::kForbidden:
      q.options.forbidden_image_term = TargetTerm(s);
      break;
    case Mode::kInjective:
      q.options.injective = true;
      if (s.Chance(30)) {
        std::vector<Term> vars = q.pattern.Variables();
        if (!vars.empty()) {
          q.options.seed.Bind(vars[s.Below(vars.size())], TargetTerm(s));
        }
      }
      break;
    case Mode::kVarsToVars:
      q.options.vars_to_vars = true;
      break;
    case Mode::kIsomorphismStyle:
      q.options.injective = true;
      q.options.vars_to_vars = true;
      break;
    case Mode::kFold:
      q.options.forbidden_image_term = Term::Variable(
          static_cast<uint32_t>(s.Below(kTargetVars)));
      break;
    case Mode::kPlain:
    case Mode::kCount:
      break;
  }
  return q;
}

constexpr uint64_t kPropertySeeds = 150;

// FNV over every query's results in the order the matcher returned them,
// per mode; recorded before the legacy candidate path was deleted, and
// recorded again with identity-first ordering on for every query before
// its switch was deleted, with the same values.
const uint64_t kPinnedOrderDigest[] = {
    0xbcd78ba2bcecb761ull,  // plain
    0xf59565317c7a21cdull,  // seed
    0x08ad447002f0d128ull,  // forbidden
    0xd420fa66eb38e584ull,  // injective
    0xc8c47e3c4ca4c898ull,  // vars-to-vars
    0x82853dea57479509ull,  // injective + vars-to-vars
    0xa01e705dc443cf6eull,  // fold
};

TEST(ReferenceMatcherProperty, ResultSetsEqualTheBruteForceInEveryMode) {
  for (size_t m = 0; m < static_cast<size_t>(Mode::kCount); ++m) {
    const Mode mode = static_cast<Mode>(m);
    uint64_t order = kFnvBasis;
    size_t nonempty = 0;
    for (uint64_t seed = 0; seed < kPropertySeeds; ++seed) {
      Query q = MakeQuery(seed, mode);
      std::vector<Substitution> found =
          FindAllHomomorphisms(q.pattern, q.target, q.options);
      std::vector<reference::Binding> got;
      for (const Substitution& h : found) {
        got.push_back(reference::Canonical(h));
        for (const auto& [var, image] : got.back()) {
          order = Fnv(Fnv(order, var), image);
        }
        order = Fnv(order, 0xFFFFFFFFull);  // result separator
      }
      order = Fnv(order, 0xFFFFFFFEull);  // query separator
      std::sort(got.begin(), got.end());
      EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end())
          << ModeName(mode) << " seed " << seed << ": duplicate result";
      EXPECT_EQ(got, reference::AllHomomorphisms(q.pattern, q.target,
                                                 q.options))
          << ModeName(mode) << " seed " << seed;
      nonempty += !got.empty();
    }
    // The generator must exercise both outcomes in every mode.
    EXPECT_GT(nonempty, 0u) << ModeName(mode);
    EXPECT_LT(nonempty, kPropertySeeds) << ModeName(mode);
    EXPECT_EQ(order, kPinnedOrderDigest[m])
        << ModeName(mode) << ": got 0x" << std::hex << order;
  }
}

// J is I with its variables renamed by a random permutation and its atoms
// inserted in a shuffled order, so an isomorphism always exists.
AtomSet RenamedShuffle(const AtomSet& instance, Stream& s) {
  std::vector<uint32_t> perm = {0, 1, 2, 3};
  for (size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[s.Below(i)]);
  }
  std::vector<Atom> atoms;
  for (const Atom& atom : instance.Atoms()) {
    std::vector<Term> args;
    for (Term t : atom.args()) {
      args.push_back(t.is_variable() ? Term::Variable(50 + perm[t.index()])
                                     : t);
    }
    atoms.emplace_back(atom.predicate(), std::move(args));
  }
  for (size_t i = atoms.size(); i > 1; --i) {
    std::swap(atoms[i - 1], atoms[s.Below(i)]);
  }
  return AtomSet::FromAtoms(atoms);
}

// The two injective vars-to-vars clients, pinned on the property-test
// targets: which isomorphism FindIsomorphism returns first (to itself, to a
// renamed shuffle, to a perturbed copy) and GraphContainsGrid's verdicts.
TEST(ReferenceMatcherProperty, IsomorphismAndGridResultsArePinned) {
  uint64_t iso = kFnvBasis;
  uint64_t grid = kFnvBasis;
  size_t isomorphic = 0;
  size_t grids = 0;
  for (uint64_t seed = 0; seed < kPropertySeeds; ++seed) {
    Stream s(seed ^ 0x5EED5EEDull);
    AtomSet target = MakeQuery(seed, Mode::kPlain).target;
    AtomSet renamed = RenamedShuffle(target, s);
    AtomSet perturbed = renamed;
    std::vector<Atom> atoms = perturbed.Atoms();
    perturbed.Erase(atoms[s.Below(atoms.size())]);
    perturbed.Insert(Atom(0, {Term::Variable(50), Term::Variable(50)}));
    for (const AtomSet* other : {&target, &renamed, &perturbed}) {
      std::optional<Substitution> h = FindIsomorphism(target, *other);
      iso = Fnv(iso, h.has_value());
      isomorphic += h.has_value();
      if (!h.has_value()) continue;
      for (const auto& [var, image] : reference::Canonical(*h)) {
        iso = Fnv(Fnv(iso, var), image);
      }
    }
    // Gaifman graph of the target (the 2×2 grid is a 4-cycle), and a random
    // graph big enough to hold a 3×3 grid.
    Graph gaifman = Graph::GaifmanOf(target, nullptr);
    Graph random(9 + static_cast<int>(s.Below(4)));
    const size_t density = 25 + s.Below(45);
    for (int u = 0; u < random.num_vertices(); ++u) {
      for (int v = u + 1; v < random.num_vertices(); ++v) {
        if (s.Chance(density)) random.AddEdge(u, v);
      }
    }
    for (bool contains : {GraphContainsGrid(gaifman, 2),
                          GraphContainsGrid(random, 2),
                          GraphContainsGrid(random, 3)}) {
      grid = Fnv(grid, contains);
      grids += contains;
    }
  }
  EXPECT_EQ(isomorphic, 302u);
  EXPECT_EQ(iso, 0x2db9fb9cfda82f07ull) << "got 0x" << std::hex << iso;
  EXPECT_EQ(grids, 369u);
  EXPECT_EQ(grid, 0xb9e45b7756670de2ull) << "got 0x" << std::hex << grid;
}

// --------------------------------------------------------------------------
// chase.match.* counters.

TEST(MatchCountersTest, RunsPopulateTheJoinCounters) {
  RunOutput run = RunVariant(Family::kStaircase, ChaseVariant::kRestricted,
                             /*max_steps=*/16);
  EXPECT_GT(run.result.stats.match_index_probes +
                run.result.stats.match_column_scans,
            0u);
  EXPECT_GT(run.result.stats.match_index_builds, 0u);
  EXPECT_GT(run.result.stats.match_index_build_bytes, 0u);
  EXPECT_EQ(run.result.stats.match_join_fallbacks, 0u);
}

TEST(MatchCountersTest, CountersAreDeterministicAcrossRuns) {
  // Each counter is a per-search total and lazy index builds happen exactly
  // once per stale-to-ready transition, so two runs of the same chase
  // report the same sums.
  for (ChaseVariant variant : {ChaseVariant::kRestricted, ChaseVariant::kCore}) {
    RunOutput first =
        RunVariant(Family::kStaircase, variant, /*max_steps=*/16);
    RunOutput second =
        RunVariant(Family::kStaircase, variant, /*max_steps=*/16);
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

TEST(MatchCountersTest, InjectiveSearchProbesTheJoinPath) {
  Vocabulary vocab;
  PredicateId p = vocab.MustPredicate("p", 2);
  Term a = vocab.Constant("a");
  Term b = vocab.Constant("b");
  Term x = vocab.NamedVariable("X");
  Term y = vocab.NamedVariable("Y");

  AtomSet target;
  target.Insert(Atom(p, {a, b}));
  target.Insert(Atom(p, {b, b}));
  AtomSet pattern;
  pattern.Insert(Atom(p, {x, y}));
  pattern.Insert(Atom(p, {y, y}));

  MatchCounters counters;
  MatchCountersScope scope(&counters);
  HomOptions injective;
  injective.limit = 0;
  injective.injective = true;
  // X ↦ b would merge X and Y; only X ↦ a, Y ↦ b survives.
  EXPECT_EQ(FindAllHomomorphisms(pattern, target, injective).size(), 1u);
  EXPECT_GT(counters.index_probes.load(), 0u);
  EXPECT_EQ(counters.join_fallbacks.load(), 0u);
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
  EXPECT_EQ(dict.Find(c7), 1u);
}

TEST(TermDictionaryTest, StaysDenseAcrossManyTermsAndCopies) {
  TermDictionary dict;
  constexpr size_t kCount = 10000;
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(dict.Intern(Term::Variable(static_cast<uint32_t>(i))),
              static_cast<TermId>(i));
  }
  TermDictionary copy = dict;
  // Copies are independent: interning into one does not affect the other.
  EXPECT_EQ(copy.Intern(Term::Constant(5)), static_cast<TermId>(kCount));
  EXPECT_EQ(copy.size(), kCount + 1);
  EXPECT_EQ(dict.size(), kCount);
  EXPECT_EQ(dict.Find(Term::Constant(5)), TermDictionary::kNoId);
  for (size_t i = 0; i < kCount; i += 977) {
    const Term v = Term::Variable(static_cast<uint32_t>(i));
    EXPECT_EQ(copy.Find(v), static_cast<TermId>(i));
    EXPECT_EQ(dict.Find(v), static_cast<TermId>(i));
  }
}

// The dictionary costs a few bytes per interned term, not a fixed block:
// a one-atom set stays small (it once allocated a 16 KB reverse table).
TEST(TermDictionaryTest, OneAtomSetStaysSmall) {
  AtomSet s;
  s.Insert(Atom(0, {Term::Constant(0), Term::Variable(1)}));
  EXPECT_LT(s.ApproxMemoryBytes(), 4096u);
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
// AtomSet integration: segments, compaction.

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
  EXPECT_EQ(s.SegmentFor(p_, 2), nullptr);  // never inserted
  s.Insert(Atom(p_, {a_, b_}));
  s.Insert(Atom(p_, {b_, c_}));
  s.Insert(Atom(q_, {a_}));
  const ColumnSegment* seg = s.SegmentFor(p_, 2);
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(seg->arity(), 2u);
  EXPECT_EQ(seg->rows(), 2u);
  const TermDictionary& dict = s.dictionary();
  EXPECT_EQ(seg->cell(0, 0), dict.Find(a_));
  EXPECT_EQ(seg->cell(1, 0), dict.Find(b_));
  EXPECT_EQ(seg->cell(1, 1), dict.Find(c_));
}

TEST_F(AtomSetSegmentTest, OneSegmentPerPredicateAndArity) {
  // Atom does not enforce the declared arity, so a predicate can show up
  // with several widths; each (predicate, arity) pair gets its own segment
  // and every atom lives in exactly one of them.
  AtomSet s;
  s.Insert(Atom(p_, {a_, b_}));
  s.Insert(Atom(p_, {a_}));
  s.Insert(Atom(p_, {b_, c_}));
  const ColumnSegment* binary = s.SegmentFor(p_, 2);
  const ColumnSegment* unary = s.SegmentFor(p_, 1);
  ASSERT_NE(binary, nullptr);
  ASSERT_NE(unary, nullptr);
  EXPECT_NE(binary, unary);
  EXPECT_EQ(binary->arity(), 2u);
  EXPECT_EQ(binary->rows(), 2u);
  EXPECT_EQ(unary->arity(), 1u);
  EXPECT_EQ(unary->rows(), 1u);
  EXPECT_EQ(unary->slot(0), 1u);
  EXPECT_EQ(s.SegmentFor(p_, 3), nullptr);

  // Both widths match through the join path.
  MatchCounters counters;
  MatchCountersScope scope(&counters);
  Term x = vocab_.NamedVariable("X");
  Term y = vocab_.NamedVariable("Y");
  HomOptions options;
  options.limit = 0;
  AtomSet binary_pattern;
  binary_pattern.Insert(Atom(p_, {x, y}));
  EXPECT_EQ(FindAllHomomorphisms(binary_pattern, s, options).size(), 2u);
  AtomSet unary_pattern;
  unary_pattern.Insert(Atom(p_, {x}));
  EXPECT_EQ(FindAllHomomorphisms(unary_pattern, s, options).size(), 1u);
  AtomSet ternary_pattern;
  ternary_pattern.Insert(Atom(p_, {x, y, x}));
  EXPECT_TRUE(FindAllHomomorphisms(ternary_pattern, s, options).empty());
  EXPECT_GT(counters.column_scans.load(), 0u);
  EXPECT_EQ(counters.join_fallbacks.load(), 0u);
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
  const ColumnSegment* seg = s.SegmentFor(p_, 2);
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
  EXPECT_EQ(FindAllHomomorphisms(pattern, copy, options),
            FindAllHomomorphisms(pattern, s, options));

  // Divergence after the copy stays local to each set.
  copy.Insert(Atom(p_, {c_, a_}));
  EXPECT_EQ(FindAllHomomorphisms(pattern, copy, options).size(), 3u);
  EXPECT_EQ(FindAllHomomorphisms(pattern, s, options).size(), 2u);
}

}  // namespace
}  // namespace twchase
