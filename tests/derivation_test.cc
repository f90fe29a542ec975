#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/chase.h"
#include "core/derivation.h"
#include "kb/examples.h"
#include "kb/knowledge_base.h"
#include "obs/observer.h"
#include "parser/parser.h"

namespace twchase {
namespace {

TEST(DerivationTest, SigmaCompositionTracesVariables) {
  Vocabulary vocab;
  PredicateId p = vocab.MustPredicate("p", 1);
  Term x = vocab.NamedVariable("X"), y = vocab.NamedVariable("Y"),
       z = vocab.NamedVariable("Z");
  Derivation d;
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
  DerivationCursor cursor(run->derivation);
  AtomSet previous = cursor.instance();
  for (cursor.Next(); !cursor.done(); cursor.Next()) {
    const size_t i = cursor.index();
    const AtomSet& alpha = cursor.pre_simplification();
    // The random-access accessors rebuild the same sets.
    EXPECT_EQ(run->derivation.PreSimplification(i), alpha) << "step " << i;
    EXPECT_EQ(run->derivation.Instance(i), cursor.instance()) << "step " << i;
    // σ_i(A_i) = F_i.
    const Substitution& sigma = cursor.step().simplification;
    EXPECT_EQ(sigma.Apply(alpha), cursor.instance()) << "step " << i;
    // A_i ⊇ F_{i-1}.
    EXPECT_TRUE(previous.IsSubsetOf(alpha));
    previous = cursor.instance();
  }
}

TEST(DerivationTest, InstanceSizesRecorded) {
  auto kb = MakeTransitiveClosure(3);
  auto run = RunChase(kb, ChaseOptions());
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->derivation.size(), 1u);
  EXPECT_EQ(run->derivation.step(run->derivation.size() - 1).instance_size,
            run->derivation.Last().size());
}

TEST(DerivationTest, CursorCopiesWalkIndependently) {
  StaircaseWorld world;
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 12;
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok());
  const Derivation& d = run->derivation;
  DerivationCursor first(d);
  for (int k = 0; k < 5; ++k) first.Next();
  DerivationCursor second = first;
  const AtomSet held = first.instance();
  for (second.Next(); !second.done(); second.Next()) {
    EXPECT_EQ(second.instance().size(), second.step().instance_size);
  }
  // Walking the copy to the end left the original where it was.
  EXPECT_EQ(first.index(), 5u);
  EXPECT_EQ(first.instance(), held);
  EXPECT_EQ(first.instance(), d.Instance(5));
}

// The live run's elements: F_0 at run begin, F_i at each applied step, and
// the last step's element again at round end.
class LiveElements : public ChaseObserver {
 public:
  struct Element {
    uint64_t hash = 0;
    size_t size = 0;
    std::vector<Atom> atoms;  // in the live instance's order
  };

  void OnRunBegin(const RunBeginEvent& event) override {
    elements.assign(1, Of(*event.instance));
  }
  void OnTriggerApplied(const TriggerAppliedEvent& event) override {
    elements.resize(event.step + 1);
    elements[event.step] = Of(*event.instance);
  }
  void OnRoundEnd(const RoundEndEvent& event) override {
    elements.back() = Of(*event.instance);
  }

  std::vector<Element> elements;

 private:
  static Element Of(const AtomSet& instance) {
    return {instance.ContentHash(), instance.size(), instance.Atoms()};
  }
};

std::vector<std::filesystem::path> DataPrograms() {
  std::vector<std::filesystem::path> out;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(TWCHASE_DATA_DIR)) {
    if (entry.path().extension() == ".twc") out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Every F_i rebuilt from the journal is the live run's F_i: same content
// hash, same size, and the same atoms in the same order (the order trace
// and measure output print in). Covers every bundled program, variant and
// coring schedule (after every step, and after every third).
TEST(DerivationJournalTest, JournalMatchesTheLiveRun) {
  const std::vector<std::filesystem::path> programs = DataPrograms();
  ASSERT_GE(programs.size(), 3u);
  const ChaseVariant variants[] = {
      ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
      ChaseVariant::kRestricted, ChaseVariant::kFrugal, ChaseVariant::kCore};
  for (const std::filesystem::path& path : programs) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    for (ChaseVariant variant : variants) {
      for (int schedule = 0; schedule < 2; ++schedule) {
        auto parsed = ParseProgram(text.str());
        ASSERT_TRUE(parsed.ok()) << path << ": " << parsed.status().ToString();
        LiveElements live;
        ChaseOptions options;
        options.variant = variant;
        options.limits.max_steps = 60;
        options.core.core_every = schedule == 1 ? 3 : 1;
        options.observer = &live;
        auto run = RunChase(parsed->kb, options);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        const Derivation& d = run->derivation;
        const std::string context = path.filename().string() + "/" +
                                    ChaseVariantName(variant) + "/schedule " +
                                    std::to_string(schedule);
        ASSERT_EQ(live.elements.size(), d.size()) << context;
        for (DerivationCursor c(d); !c.done(); c.Next()) {
          const LiveElements::Element& want = live.elements[c.index()];
          ASSERT_EQ(c.instance().ContentHash(), want.hash)
              << context << ", F_" << c.index();
          ASSERT_EQ(c.instance().size(), want.size)
              << context << ", F_" << c.index();
          ASSERT_EQ(c.instance().Atoms(), want.atoms)
              << context << ", F_" << c.index() << " lists its atoms in "
              << "another order";
        }
        EXPECT_EQ(d.Instance(d.size() - 1), d.Last()) << context;
      }
    }
  }
}

}  // namespace
}  // namespace twchase
