// Deterministic fault injection and the consistency invariant (tentpole of
// the robustness PR): a fault injected at ANY governed boundary stops the
// run with a consistent, checkpointable prefix, and resuming that
// checkpoint reproduces the uninterrupted golden run bit-identically —
// same final instance, same derivation journal, same observer event
// stream — across all five chase variants on the staircase and elevator
// families.
#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/chase.h"
#include "core/checkpoint.h"
#include "kb/examples.h"
#include "obs/observer.h"
#include "obs/stock_observers.h"
#include "util/fault.h"

namespace twchase {
namespace {

const ChaseVariant kAllVariants[] = {
    ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
    ChaseVariant::kRestricted, ChaseVariant::kFrugal, ChaseVariant::kCore};

enum class Family { kStaircase, kElevator };

KnowledgeBase FreshKb(Family family) {
  // Each run gets a freshly constructed world so fresh-null minting starts
  // from the same vocabulary state; construction is deterministic, so two
  // fresh worlds have identical term-id assignment (and thus identical
  // ProgramFingerprint).
  if (family == Family::kStaircase) return StaircaseWorld().kb();
  return ElevatorWorld().kb();
}

// A coring schedule layered over the default options. The default schedule
// cores after every step; the others exercise the replay of per-step
// corings skipped by the schedule.
struct Schedule {
  const char* name = "default";
  size_t core_every = 1;
};

const Schedule kDefaultSchedule;
const Schedule kOffDefaultSchedules[] = {
    {"core-every-3", 3},
};

ChaseOptions OptionsFor(ChaseVariant variant, size_t max_steps,
                        const Schedule& schedule) {
  ChaseOptions options;
  options.variant = variant;
  options.limits.max_steps = max_steps;
  options.core.core_every = schedule.core_every;
  return options;
}

struct RunOutput {
  ChaseResult result;
  std::string events;
};

RunOutput RunVariant(Family family, ChaseVariant variant, size_t max_steps,
                     bool record_log, FaultInjector* injector,
                     const Schedule& schedule = kDefaultSchedule) {
  KnowledgeBase kb = FreshKb(family);
  std::ostringstream events;
  EventLogObserver log(&events);
  ChaseOptions options = OptionsFor(variant, max_steps, schedule);
  options.resume.record_log = record_log;
  options.observer = &log;
  StatusOr<ChaseResult> run = Status::Internal("not run");
  if (injector != nullptr) {
    FaultInjectorScope scope(injector);
    run = RunChase(kb, options);
  } else {
    run = RunChase(kb, options);
  }
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return {std::move(run).value(), events.str()};
}

RunOutput Resume(Family family, ChaseVariant variant, size_t max_steps,
                 const ChaseCheckpoint& checkpoint, const Schedule& schedule) {
  KnowledgeBase kb = FreshKb(family);
  std::ostringstream events;
  EventLogObserver log(&events);
  ChaseOptions options = OptionsFor(variant, max_steps, schedule);
  options.observer = &log;
  auto run = ResumeChase(kb, options, checkpoint);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return {std::move(run).value(), events.str()};
}

// Step-by-step derivation journal equality: rule sequence, trigger
// matches, simplifications, added atoms and every element F_i rebuilt from
// the journal.
void ExpectSameJournal(const Derivation& got, const Derivation& want,
                       const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  DerivationCursor gc(got), wc(want);
  for (; !gc.done(); gc.Next(), wc.Next()) {
    SCOPED_TRACE(context + ", step " + std::to_string(gc.index()));
    const DerivationStep& g = gc.step();
    const DerivationStep& w = wc.step();
    EXPECT_EQ(g.rule_index, w.rule_index);
    EXPECT_EQ(g.rule_label, w.rule_label);
    EXPECT_EQ(g.match, w.match);
    EXPECT_EQ(g.simplification, w.simplification);
    EXPECT_EQ(g.added_atoms, w.added_atoms);
    EXPECT_EQ(g.instance_size, w.instance_size);
    EXPECT_EQ(gc.instance().ContentHash(), wc.instance().ContentHash());
  }
}

void ExpectBitIdentical(const RunOutput& resumed, const RunOutput& golden,
                        const std::string& context) {
  EXPECT_EQ(resumed.result.stop_reason, golden.result.stop_reason) << context;
  EXPECT_EQ(resumed.result.steps, golden.result.steps) << context;
  EXPECT_EQ(resumed.result.rounds, golden.result.rounds) << context;
  EXPECT_EQ(resumed.result.derivation.Last().size(),
            golden.result.derivation.Last().size())
      << context;
  EXPECT_EQ(resumed.result.derivation.Last().ContentHash(),
            golden.result.derivation.Last().ContentHash())
      << context;
  ExpectSameJournal(resumed.result.derivation, golden.result.derivation,
                    context);
  EXPECT_EQ(resumed.events, golden.events) << context;
}

// Interrupts a recording run with `injector`, checkpoints it through the
// serialized text format, resumes, and demands bit-identity with the
// uninterrupted golden run. Returns false when the fault never fired (the
// run finished first), so sweeps know to stop probing deeper visits.
bool CheckInterruptResumeRoundTrip(Family family, ChaseVariant variant,
                                   size_t max_steps, FaultInjector injector,
                                   const RunOutput& golden,
                                   const std::string& context,
                                   const Schedule& schedule = kDefaultSchedule) {
  RunOutput interrupted = RunVariant(family, variant, max_steps,
                                     /*record_log=*/true, &injector, schedule);
  if (injector.fired_count() == 0) {
    // Budget reached before the armed visit; nothing was injected.
    EXPECT_EQ(interrupted.result.stop_reason, golden.result.stop_reason)
        << context;
    return false;
  }
  EXPECT_TRUE(interrupted.result.stop_reason == StopReason::kCancelled ||
              interrupted.result.stop_reason == StopReason::kMemoryBudget)
      << context;
  EXPECT_NE(interrupted.result.stop_reason, StopReason::kFixpoint) << context;
  // Injected stops are observer-visible.
  EXPECT_NE(interrupted.events.find("\"event\": \"fault_injected\""),
            std::string::npos)
      << context;

  ChaseOptions recorded_options = OptionsFor(variant, max_steps, schedule);
  recorded_options.resume.record_log = true;
  KnowledgeBase kb = FreshKb(family);
  ChaseCheckpoint checkpoint =
      MakeCheckpoint(kb, recorded_options, interrupted.result);

  // Round-trip through the text format, as the CLI does.
  auto parsed = ParseCheckpoint(SerializeCheckpoint(checkpoint));
  EXPECT_TRUE(parsed.ok()) << context << ": " << parsed.status().ToString();
  if (!parsed.ok()) return true;

  RunOutput resumed =
      Resume(family, variant, max_steps, parsed.value(), schedule);
  ExpectBitIdentical(resumed, golden, context);
  return true;
}

std::string Context(Family family, ChaseVariant variant,
                    const std::string& what,
                    const Schedule& schedule = kDefaultSchedule) {
  return std::string(family == Family::kStaircase ? "staircase" : "elevator") +
         "/" + ChaseVariantName(variant) + "/" + schedule.name + "/" + what;
}

// Sweep every trigger boundary of a short prefix run: for visit v = 1, 2,
// ... arm a cancellation (odd v) or an allocation failure (even v) at the
// v-th trigger boundary and prove the stop is resumable.
void SweepTriggerBoundaries(Family family, ChaseVariant variant,
                            size_t max_steps, const Schedule& schedule) {
  RunOutput golden = RunVariant(family, variant, max_steps,
                                /*record_log=*/false, nullptr, schedule);
  int verified = 0;
  for (uint64_t visit = 1;; ++visit) {
    FaultInjector injector;
    injector.Arm(FaultSite::kTriggerBoundary, visit,
                 visit % 2 == 1 ? FaultAction::kCancel
                                : FaultAction::kAllocationFailure);
    if (!CheckInterruptResumeRoundTrip(
            family, variant, max_steps, injector, golden,
            Context(family, variant, "trigger-visit-" + std::to_string(visit),
                    schedule),
            schedule)) {
      break;
    }
    ++verified;
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The sweep must not pass vacuously: a run with max_steps applications
  // crosses at least max_steps trigger boundaries.
  EXPECT_GE(verified, static_cast<int>(max_steps))
      << Context(family, variant, "sweep-coverage", schedule);
}

TEST(FaultInjectionTest, EveryTriggerBoundaryIsResumableOnStaircase) {
  for (ChaseVariant variant : kAllVariants) {
    SweepTriggerBoundaries(Family::kStaircase, variant, /*max_steps=*/6,
                           kDefaultSchedule);
  }
}

TEST(FaultInjectionTest, EveryTriggerBoundaryIsResumableOnElevator) {
  for (ChaseVariant variant : kAllVariants) {
    SweepTriggerBoundaries(Family::kElevator, variant, /*max_steps=*/5,
                           kDefaultSchedule);
  }
}

// The retracting variants under the schedule the default sweep never
// replays: a coring every third step.
TEST(FaultInjectionTest, EveryTriggerBoundaryIsResumableUnderCoringSchedules) {
  for (const Schedule& schedule : kOffDefaultSchedules) {
    for (Family family : {Family::kStaircase, Family::kElevator}) {
      for (ChaseVariant variant :
           {ChaseVariant::kFrugal, ChaseVariant::kCore}) {
        SweepTriggerBoundaries(family, variant, /*max_steps=*/8, schedule);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(FaultInjectionTest, RoundBoundaryStopsAreResumable) {
  std::vector<Schedule> schedules = {kDefaultSchedule};
  schedules.insert(schedules.end(), std::begin(kOffDefaultSchedules),
                   std::end(kOffDefaultSchedules));
  for (const Schedule& schedule : schedules) {
    for (ChaseVariant variant : kAllVariants) {
      for (Family family : {Family::kStaircase, Family::kElevator}) {
        const size_t max_steps = 6;
        RunOutput golden = RunVariant(family, variant, max_steps,
                                      /*record_log=*/false, nullptr, schedule);
        FaultInjector injector;
        injector.Arm(FaultSite::kRoundBoundary, 2, FaultAction::kCancel);
        CheckInterruptResumeRoundTrip(
            family, variant, max_steps, injector, golden,
            Context(family, variant, "round-2", schedule), schedule);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(FaultInjectionTest, SeededSchedulesAreResumable) {
  // Seed-derived schedules hit arbitrary sites (hom search nodes, core
  // folds, ...), exercising the interrupted-search degradation paths; a
  // failing seed printed by gtest reproduces the schedule exactly.
  for (ChaseVariant variant :
       {ChaseVariant::kRestricted, ChaseVariant::kFrugal,
        ChaseVariant::kCore}) {
    const size_t max_steps = 5;
    RunOutput golden = RunVariant(Family::kElevator, variant, max_steps,
                           /*record_log=*/false, nullptr);
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      FaultInjector injector = FaultInjector::FromSeed(seed, /*max_visit=*/40);
      CheckInterruptResumeRoundTrip(
          Family::kElevator, variant, max_steps, injector, golden,
          Context(Family::kElevator, variant,
                  "seed-" + std::to_string(seed)));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(FaultInjectionTest, SeededSchedulesAreResumableUnderCoringSchedules) {
  for (const Schedule& schedule : kOffDefaultSchedules) {
    for (ChaseVariant variant : {ChaseVariant::kFrugal, ChaseVariant::kCore}) {
      const size_t max_steps = 8;
      RunOutput golden = RunVariant(Family::kStaircase, variant, max_steps,
                                    /*record_log=*/false, nullptr, schedule);
      for (uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        FaultInjector injector =
            FaultInjector::FromSeed(seed, /*max_visit=*/40);
        CheckInterruptResumeRoundTrip(
            Family::kStaircase, variant, max_steps, injector, golden,
            Context(Family::kStaircase, variant,
                    "seed-" + std::to_string(seed), schedule),
            schedule);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(FaultInjectionTest, InjectorIsInertWithoutScope) {
  // An armed injector that is never installed must not perturb a run.
  FaultInjector injector;
  injector.Arm(FaultSite::kTriggerBoundary, 1, FaultAction::kCancel);
  RunOutput golden = RunVariant(Family::kStaircase, ChaseVariant::kRestricted, 4,
                         /*record_log=*/false, nullptr);
  // Note: injector deliberately NOT passed — no scope installed.
  RunOutput plain = RunVariant(Family::kStaircase, ChaseVariant::kRestricted, 4,
                        /*record_log=*/false, nullptr);
  EXPECT_EQ(injector.fired_count(), 0u);
  ExpectBitIdentical(plain, golden, "inert-injector");
}

TEST(FaultInjectionTest, SeedScheduleIsDeterministic) {
  for (uint64_t seed : {1ull, 7ull, 123456789ull}) {
    FaultInjector a = FaultInjector::FromSeed(seed, 10);
    FaultInjector b = FaultInjector::FromSeed(seed, 10);
    // Identical schedules fire at the same visit of the same site.
    for (size_t site = 0; site < kNumFaultSites; ++site) {
      for (uint64_t visit = 1; visit <= 10; ++visit) {
        FaultAction action_a;
        FaultAction action_b;
        bool fired_a = a.Poll(static_cast<FaultSite>(site), &action_a);
        bool fired_b = b.Poll(static_cast<FaultSite>(site), &action_b);
        ASSERT_EQ(fired_a, fired_b) << "seed " << seed;
        if (fired_a) {
          ASSERT_EQ(action_a, action_b) << "seed " << seed;
        }
      }
    }
  }
}

}  // namespace
}  // namespace twchase
