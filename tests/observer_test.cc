// Tests for the observability layer (obs/): golden event streams for every
// chase variant on the paper's two worlds, the observers-are-read-only-taps
// parity contract, replay/live equivalence and the Validate() surface of the
// regrouped ChaseOptions.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/chase.h"
#include "core/robust.h"
#include "core/trace.h"
#include "kb/examples.h"
#include "obs/observer.h"
#include "obs/stock_observers.h"

namespace twchase {
namespace {

// ---------------------------------------------------------------------------
// Golden event streams. Two-step prefixes of the staircase and elevator
// worlds for all five variants, captured as the exact --events-out JSONL.
// These pin the event schema AND the ordering contract: delta_repair before
// round_begin, considered -> [retired] -> applied per application,
// core_retraction right after its application, round_end last in the round.
// ---------------------------------------------------------------------------

std::string CaptureEventStream(const KnowledgeBase& kb, ChaseVariant variant) {
  std::ostringstream out;
  EventLogObserver log(&out);
  ChaseOptions options;
  options.variant = variant;
  options.limits.max_steps = 2;
  options.observer = &log;
  auto run = RunChase(kb, options);
  EXPECT_TRUE(run.ok()) << ChaseVariantName(variant);
  return out.str();
}

struct GoldenCase {
  ChaseVariant variant;
  const char* expected;
};

TEST(ObserverGoldenTest, StaircasePrefixStreams) {
  const GoldenCase kCases[] = {
      {ChaseVariant::kOblivious,
       R"evt({"event": "run_begin", "variant": "oblivious", "rules": 4, "initial_size": 2}
{"event": "round_begin", "round": 1, "pending": 2, "size": 2}
{"event": "trigger_considered", "round": 1, "rule": 2}
{"event": "trigger_retired", "round": 1, "rule": 2, "reason": "applied"}
{"event": "trigger_applied", "step": 1, "round": 1, "rule": 2, "label": "Rh3", "added": 0, "size": 2}
{"event": "trigger_considered", "round": 1, "rule": 0}
{"event": "trigger_retired", "round": 1, "rule": 0, "reason": "applied"}
{"event": "trigger_applied", "step": 2, "round": 1, "rule": 0, "label": "Rh1", "added": 5, "size": 7}
{"event": "round_end", "round": 1, "steps": 2, "size": 7, "progressed": true}
{"event": "run_end", "steps": 2, "rounds": 1, "terminated": false, "size_guard": false, "stop_reason": "step-budget", "final_size": 7}
)evt"},
      {ChaseVariant::kSemiOblivious,
       R"evt({"event": "run_begin", "variant": "semi-oblivious", "rules": 4, "initial_size": 2}
{"event": "round_begin", "round": 1, "pending": 2, "size": 2}
{"event": "trigger_considered", "round": 1, "rule": 2}
{"event": "trigger_retired", "round": 1, "rule": 2, "reason": "applied"}
{"event": "trigger_applied", "step": 1, "round": 1, "rule": 2, "label": "Rh3", "added": 0, "size": 2}
{"event": "trigger_considered", "round": 1, "rule": 0}
{"event": "trigger_retired", "round": 1, "rule": 0, "reason": "applied"}
{"event": "trigger_applied", "step": 2, "round": 1, "rule": 0, "label": "Rh1", "added": 5, "size": 7}
{"event": "round_end", "round": 1, "steps": 2, "size": 7, "progressed": true}
{"event": "run_end", "steps": 2, "rounds": 1, "terminated": false, "size_guard": false, "stop_reason": "step-budget", "final_size": 7}
)evt"},
      {ChaseVariant::kRestricted,
       R"evt({"event": "run_begin", "variant": "restricted", "rules": 4, "initial_size": 2}
{"event": "round_begin", "round": 1, "pending": 2, "size": 2}
{"event": "trigger_considered", "round": 1, "rule": 2}
{"event": "trigger_retired", "round": 1, "rule": 2, "reason": "satisfied"}
{"event": "trigger_considered", "round": 1, "rule": 0}
{"event": "trigger_retired", "round": 1, "rule": 0, "reason": "applied"}
{"event": "trigger_applied", "step": 1, "round": 1, "rule": 0, "label": "Rh1", "added": 5, "size": 7}
{"event": "round_end", "round": 1, "steps": 1, "size": 7, "progressed": true}
{"event": "delta_repair", "round": 2, "inserted": 5, "erased": 0, "invalidated": 0, "seed_probes": 13, "matches_added": 1}
{"event": "round_begin", "round": 2, "pending": 1, "size": 7}
{"event": "trigger_considered", "round": 2, "rule": 2}
{"event": "trigger_retired", "round": 2, "rule": 2, "reason": "applied"}
{"event": "trigger_applied", "step": 2, "round": 2, "rule": 2, "label": "Rh3", "added": 2, "size": 9}
{"event": "round_end", "round": 2, "steps": 1, "size": 9, "progressed": true}
{"event": "run_end", "steps": 2, "rounds": 2, "terminated": false, "size_guard": false, "stop_reason": "step-budget", "final_size": 9}
)evt"},
      {ChaseVariant::kFrugal,
       R"evt({"event": "run_begin", "variant": "frugal", "rules": 4, "initial_size": 2}
{"event": "round_begin", "round": 1, "pending": 2, "size": 2}
{"event": "trigger_considered", "round": 1, "rule": 2}
{"event": "trigger_considered", "round": 1, "rule": 0}
{"event": "trigger_applied", "step": 1, "round": 1, "rule": 0, "label": "Rh1", "added": 5, "size": 7}
{"event": "round_end", "round": 1, "steps": 1, "size": 7, "progressed": true}
{"event": "delta_repair", "round": 2, "inserted": 5, "erased": 0, "invalidated": 0, "seed_probes": 13, "matches_added": 1}
{"event": "round_begin", "round": 2, "pending": 3, "size": 7}
{"event": "trigger_considered", "round": 2, "rule": 2}
{"event": "trigger_considered", "round": 2, "rule": 2}
{"event": "trigger_applied", "step": 2, "round": 2, "rule": 2, "label": "Rh3", "added": 2, "size": 9}
{"event": "round_end", "round": 2, "steps": 1, "size": 9, "progressed": true}
{"event": "run_end", "steps": 2, "rounds": 2, "terminated": false, "size_guard": false, "stop_reason": "step-budget", "final_size": 9}
)evt"},
      {ChaseVariant::kCore,
       R"evt({"event": "run_begin", "variant": "core", "rules": 4, "initial_size": 2}
{"event": "core_retraction", "step": 0, "folds": 0, "before": 2, "after": 2}
{"event": "round_begin", "round": 1, "pending": 2, "size": 2}
{"event": "trigger_considered", "round": 1, "rule": 2}
{"event": "trigger_considered", "round": 1, "rule": 0}
{"event": "trigger_applied", "step": 1, "round": 1, "rule": 0, "label": "Rh1", "added": 5, "size": 7}
{"event": "core_retraction", "step": 1, "folds": 0, "before": 7, "after": 7}
{"event": "round_end", "round": 1, "steps": 1, "size": 7, "progressed": true}
{"event": "delta_repair", "round": 2, "inserted": 5, "erased": 0, "invalidated": 0, "seed_probes": 13, "matches_added": 1}
{"event": "round_begin", "round": 2, "pending": 3, "size": 7}
{"event": "trigger_considered", "round": 2, "rule": 2}
{"event": "trigger_considered", "round": 2, "rule": 2}
{"event": "trigger_applied", "step": 2, "round": 2, "rule": 2, "label": "Rh3", "added": 2, "size": 9}
{"event": "core_retraction", "step": 2, "folds": 0, "before": 9, "after": 9}
{"event": "round_end", "round": 2, "steps": 1, "size": 9, "progressed": true}
{"event": "run_end", "steps": 2, "rounds": 2, "terminated": false, "size_guard": false, "stop_reason": "step-budget", "final_size": 9}
)evt"},
  };
  for (const GoldenCase& c : kCases) {
    StaircaseWorld world;
    EXPECT_EQ(CaptureEventStream(world.kb(), c.variant), c.expected)
        << ChaseVariantName(c.variant);
  }
}

TEST(ObserverGoldenTest, ElevatorPrefixStreams) {
  const GoldenCase kCases[] = {
      {ChaseVariant::kOblivious,
       R"evt({"event": "run_begin", "variant": "oblivious", "rules": 7, "initial_size": 4}
{"event": "round_begin", "round": 1, "pending": 2, "size": 4}
{"event": "trigger_considered", "round": 1, "rule": 3}
{"event": "trigger_retired", "round": 1, "rule": 3, "reason": "applied"}
{"event": "trigger_applied", "step": 1, "round": 1, "rule": 3, "label": "Rv4", "added": 0, "size": 4}
{"event": "trigger_considered", "round": 1, "rule": 0}
{"event": "trigger_retired", "round": 1, "rule": 0, "reason": "applied"}
{"event": "trigger_applied", "step": 2, "round": 1, "rule": 0, "label": "Rv1", "added": 3, "size": 7}
{"event": "round_end", "round": 1, "steps": 2, "size": 7, "progressed": true}
{"event": "run_end", "steps": 2, "rounds": 1, "terminated": false, "size_guard": false, "stop_reason": "step-budget", "final_size": 7}
)evt"},
      {ChaseVariant::kSemiOblivious,
       R"evt({"event": "run_begin", "variant": "semi-oblivious", "rules": 7, "initial_size": 4}
{"event": "round_begin", "round": 1, "pending": 2, "size": 4}
{"event": "trigger_considered", "round": 1, "rule": 3}
{"event": "trigger_retired", "round": 1, "rule": 3, "reason": "applied"}
{"event": "trigger_applied", "step": 1, "round": 1, "rule": 3, "label": "Rv4", "added": 0, "size": 4}
{"event": "trigger_considered", "round": 1, "rule": 0}
{"event": "trigger_retired", "round": 1, "rule": 0, "reason": "applied"}
{"event": "trigger_applied", "step": 2, "round": 1, "rule": 0, "label": "Rv1", "added": 3, "size": 7}
{"event": "round_end", "round": 1, "steps": 2, "size": 7, "progressed": true}
{"event": "run_end", "steps": 2, "rounds": 1, "terminated": false, "size_guard": false, "stop_reason": "step-budget", "final_size": 7}
)evt"},
      {ChaseVariant::kRestricted,
       R"evt({"event": "run_begin", "variant": "restricted", "rules": 7, "initial_size": 4}
{"event": "round_begin", "round": 1, "pending": 2, "size": 4}
{"event": "trigger_considered", "round": 1, "rule": 3}
{"event": "trigger_retired", "round": 1, "rule": 3, "reason": "satisfied"}
{"event": "trigger_considered", "round": 1, "rule": 0}
{"event": "trigger_retired", "round": 1, "rule": 0, "reason": "applied"}
{"event": "trigger_applied", "step": 1, "round": 1, "rule": 0, "label": "Rv1", "added": 3, "size": 7}
{"event": "round_end", "round": 1, "steps": 1, "size": 7, "progressed": true}
{"event": "delta_repair", "round": 2, "inserted": 3, "erased": 0, "invalidated": 0, "seed_probes": 11, "matches_added": 1}
{"event": "round_begin", "round": 2, "pending": 1, "size": 7}
{"event": "trigger_considered", "round": 2, "rule": 3}
{"event": "trigger_retired", "round": 2, "rule": 3, "reason": "applied"}
{"event": "trigger_applied", "step": 2, "round": 2, "rule": 3, "label": "Rv4", "added": 1, "size": 8}
{"event": "round_end", "round": 2, "steps": 1, "size": 8, "progressed": true}
{"event": "run_end", "steps": 2, "rounds": 2, "terminated": false, "size_guard": false, "stop_reason": "step-budget", "final_size": 8}
)evt"},
      {ChaseVariant::kFrugal,
       R"evt({"event": "run_begin", "variant": "frugal", "rules": 7, "initial_size": 4}
{"event": "round_begin", "round": 1, "pending": 2, "size": 4}
{"event": "trigger_considered", "round": 1, "rule": 3}
{"event": "trigger_considered", "round": 1, "rule": 0}
{"event": "trigger_applied", "step": 1, "round": 1, "rule": 0, "label": "Rv1", "added": 3, "size": 7}
{"event": "round_end", "round": 1, "steps": 1, "size": 7, "progressed": true}
{"event": "delta_repair", "round": 2, "inserted": 3, "erased": 0, "invalidated": 0, "seed_probes": 11, "matches_added": 1}
{"event": "round_begin", "round": 2, "pending": 3, "size": 7}
{"event": "trigger_considered", "round": 2, "rule": 3}
{"event": "trigger_considered", "round": 2, "rule": 3}
{"event": "trigger_applied", "step": 2, "round": 2, "rule": 3, "label": "Rv4", "added": 1, "size": 8}
{"event": "round_end", "round": 2, "steps": 1, "size": 8, "progressed": true}
{"event": "run_end", "steps": 2, "rounds": 2, "terminated": false, "size_guard": false, "stop_reason": "step-budget", "final_size": 8}
)evt"},
      {ChaseVariant::kCore,
       R"evt({"event": "run_begin", "variant": "core", "rules": 7, "initial_size": 4}
{"event": "core_retraction", "step": 0, "folds": 0, "before": 4, "after": 4}
{"event": "round_begin", "round": 1, "pending": 2, "size": 4}
{"event": "trigger_considered", "round": 1, "rule": 3}
{"event": "trigger_considered", "round": 1, "rule": 0}
{"event": "trigger_applied", "step": 1, "round": 1, "rule": 0, "label": "Rv1", "added": 3, "size": 7}
{"event": "core_retraction", "step": 1, "folds": 0, "before": 7, "after": 7}
{"event": "round_end", "round": 1, "steps": 1, "size": 7, "progressed": true}
{"event": "delta_repair", "round": 2, "inserted": 3, "erased": 0, "invalidated": 0, "seed_probes": 11, "matches_added": 1}
{"event": "round_begin", "round": 2, "pending": 3, "size": 7}
{"event": "trigger_considered", "round": 2, "rule": 3}
{"event": "trigger_considered", "round": 2, "rule": 3}
{"event": "trigger_applied", "step": 2, "round": 2, "rule": 3, "label": "Rv4", "added": 1, "size": 8}
{"event": "core_retraction", "step": 2, "folds": 0, "before": 8, "after": 8}
{"event": "round_end", "round": 2, "steps": 1, "size": 8, "progressed": true}
{"event": "run_end", "steps": 2, "rounds": 2, "terminated": false, "size_guard": false, "stop_reason": "step-budget", "final_size": 8}
)evt"},
  };
  for (const GoldenCase& c : kCases) {
    ElevatorWorld world;
    EXPECT_EQ(CaptureEventStream(world.kb(), c.variant), c.expected)
        << ChaseVariantName(c.variant);
  }
}

// ---------------------------------------------------------------------------
// Parity: observers are read-only taps — an observer-attached run must be
// bit-identical to a bare run.
// ---------------------------------------------------------------------------

void ExpectStatsEqual(const ChaseStats& a, const ChaseStats& b,
                      const char* context) {
  EXPECT_EQ(a.triggers_found, b.triggers_found) << context;
  EXPECT_EQ(a.triggers_considered, b.triggers_considered) << context;
  EXPECT_EQ(a.full_enumerations, b.full_enumerations) << context;
  EXPECT_EQ(a.seed_probes, b.seed_probes) << context;
  EXPECT_EQ(a.matches_invalidated, b.matches_invalidated) << context;
  EXPECT_EQ(a.core_full, b.core_full) << context;
  EXPECT_EQ(a.peak_instance_size, b.peak_instance_size) << context;
}

TEST(ObserverParityTest, ObserverRunsAreBitIdenticalToBareRuns) {
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
        ChaseVariant::kRestricted, ChaseVariant::kFrugal,
        ChaseVariant::kCore}) {
    const std::string context = ChaseVariantName(variant);
    ChaseOptions options;
    options.variant = variant;
    options.limits.max_steps = 12;

    StaircaseWorld bare_world;
    auto bare = RunChase(bare_world.kb(), options);
    ASSERT_TRUE(bare.ok()) << context;

    StaircaseWorld observed_world;
    std::ostringstream events;
    EventLogObserver log(&events);
    options.observer = &log;
    auto observed = RunChase(observed_world.kb(), options);
    ASSERT_TRUE(observed.ok()) << context;
    EXPECT_FALSE(events.str().empty()) << context;

    EXPECT_EQ(bare->steps, observed->steps) << context;
    EXPECT_EQ(bare->rounds, observed->rounds) << context;
    EXPECT_EQ(bare->stop_reason, observed->stop_reason) << context;
    ExpectStatsEqual(bare->stats, observed->stats, context.c_str());
    EXPECT_EQ(bare->derivation.size(), observed->derivation.size()) << context;
    // Fresh worlds mint identical null names, so the rendered traces (and
    // hence every step) must agree byte for byte.
    EXPECT_EQ(DerivationTrace(bare->derivation, *bare_world.vocab()),
              DerivationTrace(observed->derivation, *observed_world.vocab()))
        << context;
    EXPECT_TRUE(bare->derivation.Last() == observed->derivation.Last())
        << context;
  }
}

// ---------------------------------------------------------------------------
// Replay: feeding the recorded derivation back through TraceObserver must
// reproduce the historical trace text exactly (the CLI's --trace path).
// ---------------------------------------------------------------------------

TEST(ObserverReplayTest, ReplayedTraceMatchesDerivationTrace) {
  auto kb = MakeTransitiveClosure(4);
  ChaseOptions options;
  options.limits.max_steps = 200;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->stop_reason, StopReason::kFixpoint);

  TraceObserver replayed(kb.vocab.get());
  ReplayDerivation(run->derivation, options.variant, &replayed);
  EXPECT_EQ(replayed.text(), DerivationTrace(run->derivation, *kb.vocab));
}

TEST(ObserverReplayTest, LiveTraceMatchesPostHocOnMonotoneRun) {
  // No corings amend the derivation in a restricted run, so the live
  // incremental trace and the post-hoc replay see the same steps.
  auto kb = MakeTransitiveClosure(3);
  TraceObserver live(kb.vocab.get());
  ChaseOptions options;
  options.limits.max_steps = 200;
  options.observer = &live;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(live.text(), DerivationTrace(run->derivation, *kb.vocab));
}

// ---------------------------------------------------------------------------
// ObserverList fan-out, core fold counts, robust rename events, Validate().
// ---------------------------------------------------------------------------

class RecordingObserver : public ChaseObserver {
 public:
  RecordingObserver(std::vector<std::string>* sequence, std::string tag)
      : sequence_(sequence), tag_(std::move(tag)) {}

  void OnRunBegin(const RunBeginEvent&) override { Note("run_begin"); }
  void OnTriggerApplied(const TriggerAppliedEvent&) override {
    Note("applied");
  }
  void OnRunEnd(const RunEndEvent&) override { Note("run_end"); }

 private:
  void Note(const char* what) { sequence_->push_back(tag_ + ":" + what); }

  std::vector<std::string>* sequence_;
  std::string tag_;
};

TEST(ObserverListTest, FansOutToAllObserversInAttachmentOrder) {
  std::vector<std::string> sequence;
  RecordingObserver first(&sequence, "a");
  RecordingObserver second(&sequence, "b");
  ObserverList list;
  EXPECT_TRUE(list.empty());
  list.Add(&first);
  list.Add(&second);
  EXPECT_EQ(list.size(), 2u);

  auto kb = MakeTransitiveClosure(2);
  ChaseOptions options;
  options.limits.max_steps = 50;
  options.observer = &list;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());

  // One a/b pair per hook, a always first.
  ASSERT_EQ(sequence.size(), 2 * (run->steps + 2));
  for (size_t i = 0; i < sequence.size(); i += 2) {
    EXPECT_EQ(sequence[i][0], 'a');
    EXPECT_EQ(sequence[i + 1][0], 'b');
    EXPECT_EQ(sequence[i].substr(1), sequence[i + 1].substr(1));
  }
  EXPECT_EQ(sequence.front(), "a:run_begin");
  EXPECT_EQ(sequence.back(), "b:run_end");
}

class CoreEventCollector : public ChaseObserver {
 public:
  void OnCoreRetraction(const CoreRetractionEvent& event) override {
    events.push_back(event);
  }
  std::vector<CoreRetractionEvent> events;
};

TEST(CoreRetractionEventTest, StaircaseCollapsesReportFolds) {
  // By step ~8 the staircase core chase has retracted a full column, which
  // requires actual fold operations — the event must carry their count.
  StaircaseWorld world;
  CoreEventCollector collector;
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 12;
  options.observer = &collector;
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok());

  ASSERT_FALSE(collector.events.empty());
  bool saw_shrinking_fold = false;
  for (const CoreRetractionEvent& event : collector.events) {
    EXPECT_GE(event.size_before, event.size_after);
    if (event.size_after < event.size_before) {
      EXPECT_GT(event.folds, 0u);
      saw_shrinking_fold = true;
    } else {
      EXPECT_EQ(event.folds, 0u);
    }
  }
  EXPECT_TRUE(saw_shrinking_fold);
}

class RenameCollector : public ChaseObserver {
 public:
  void OnRobustRename(const RobustRenameEvent& event) override {
    events.push_back(event);
  }
  std::vector<RobustRenameEvent> events;
};

TEST(RobustRenameEventTest, OneEventPerAggregatedElement) {
  StaircaseWorld world;
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 12;
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok());

  RenameCollector collector;
  auto agg =
      RobustAggregator::FromDerivation(run->derivation, 0, &collector);
  ASSERT_EQ(collector.events.size(), agg.steps());
  ASSERT_EQ(collector.events.size(), agg.stats().size());
  for (size_t i = 0; i < collector.events.size(); ++i) {
    EXPECT_EQ(collector.events[i].step, i);
    EXPECT_EQ(collector.events[i].renamed_variables,
              agg.stats()[i].renamed_variables);
    EXPECT_EQ(collector.events[i].stable_variables,
              agg.stats()[i].stable_variables);
    EXPECT_EQ(collector.events[i].g_size, agg.stats()[i].g_size);
    EXPECT_EQ(collector.events[i].union_size, agg.stats()[i].union_size);
  }
}

TEST(ChaseOptionsTest, ValidateRejectsAnUnresolvedAutoVariant) {
  ChaseOptions unresolved;
  unresolved.preflight.auto_variant = true;
  auto status = unresolved.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("requires resolution"), std::string::npos);

  ChaseOptions defaults;
  EXPECT_TRUE(defaults.Validate().ok());

  // RunChase refuses invalid options up front.
  auto kb = MakeTransitiveClosure(2);
  EXPECT_FALSE(RunChase(kb, unresolved).ok());
}

}  // namespace
}  // namespace twchase
