// Stock ChaseObserver implementations — the built-in consumers of the event
// stream. These are what the CLI's --trace / --measures / --metrics-out /
// --events-out surfaces are made of; they also serve as reference
// implementations for custom observers.
//
//   * TraceObserver    — renders the human-readable derivation trace
//                        (byte-identical to the historical trace.cc format).
//   * MeasuresObserver — collects a per-step measure series (|F_i| or
//                        certified treewidth bounds), the engine behind
//                        MeasureSeries.
//   * MetricsObserver  — folds events into a MetricsRegistry and optionally
//                        writes one metrics row per derivation step, plus
//                        one at run end.
//   * EventLogObserver — writes every event as one JSON object per line
//                        (the --events-out stream).
#ifndef TWCHASE_OBS_STOCK_OBSERVERS_H_
#define TWCHASE_OBS_STOCK_OBSERVERS_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/measures.h"
#include "core/trace.h"
#include "obs/metrics.h"
#include "obs/observer.h"

namespace twchase {

/// Builds the trace text incrementally from run events.
class TraceObserver : public ChaseObserver {
 public:
  explicit TraceObserver(const Vocabulary* vocab,
                         const TraceOptions& options = {})
      : vocab_(vocab), options_(options) {}

  void OnRunBegin(const RunBeginEvent& event) override;
  void OnTriggerApplied(const TriggerAppliedEvent& event) override;
  void OnRunEnd(const RunEndEvent& event) override;

  const std::string& text() const { return text_; }

 private:
  void AppendInstance(const AtomSet* instance);

  const Vocabulary* vocab_;
  TraceOptions options_;
  std::string text_;
  size_t elements_seen_ = 0;
  size_t elements_printed_ = 0;
};

/// Per-step series of one measure. Treewidth measures read the instance
/// payload, which live runs and ReplayDerivation always set.
class MeasuresObserver : public ChaseObserver {
 public:
  explicit MeasuresObserver(Measure measure,
                            const TreewidthOptions& tw_options = {})
      : measure_(measure), tw_options_(tw_options) {}

  void OnRunBegin(const RunBeginEvent& event) override;
  void OnTriggerApplied(const TriggerAppliedEvent& event) override;

  const std::vector<int>& series() const { return series_; }

 private:
  void Record(size_t instance_size, const AtomSet* instance);

  Measure measure_;
  TreewidthOptions tw_options_;
  std::vector<int> series_;
};

struct MetricsObserverOptions {
  /// When set, one JSON row per derivation step (step 0 = F_0) is written
  /// with the current value of every instrument, plus a final row at run
  /// end (its step is the run's step count) with the run's final values.
  std::ostream* out = nullptr;
};

/// Folds the event stream into counters/gauges/histograms. All instruments
/// are registered up front (constructor), so rows have a stable column set
/// from the first row. Instrument names:
///   counters   chase.triggers.{considered,applied,retired}
///              chase.delta.{repairs,inserted,erased,invalidated,seed_probes}
///              chase.core.{retractions,folds}
///              chase.match.{index_probes,column_scans,join_fallbacks}
///              chase.match.{index_builds,index_build_bytes,search_nodes}
///              chase.plan.{core_proofs,core_certified,guard_nodes}
///   gauges     chase.round, chase.instance.size
///              chase.plan.guard_max_nodes
///   histograms chase.round.pending, chase.step.added_atoms
/// The chase.match.* and chase.plan.* instruments publish the ChaseStats
/// the run-begin, trigger-applied and run-end events carry (one table in
/// stock_observers.cc names them all): counters advance to the run's
/// totals, gauges take its values, so every row holds the totals at its own
/// step. Events without stats (ReplayDerivation) leave them untouched.
class MetricsObserver : public ChaseObserver {
 public:
  MetricsObserver(MetricsRegistry* registry,
                  const MetricsObserverOptions& options = {});

  void OnRunBegin(const RunBeginEvent& event) override;
  void OnRoundBegin(const RoundBeginEvent& event) override;
  void OnDeltaRepair(const DeltaRepairEvent& event) override;
  void OnTriggerConsidered(const TriggerConsideredEvent& event) override;
  void OnTriggerApplied(const TriggerAppliedEvent& event) override;
  void OnTriggerRetired(const TriggerRetiredEvent& event) override;
  void OnCoreRetraction(const CoreRetractionEvent& event) override;
  void OnPhase(const PhaseEvent& event) override;
  void OnRunEnd(const RunEndEvent& event) override;

 private:
  /// One chase.match.* or chase.plan.* instrument (exactly one of counter
  /// and gauge is set) and the value of the current run it last published.
  struct StatsInstrument {
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    uint64_t published = 0;
  };

  void PublishStats(const ChaseStats* stats);
  void UpdatePerStepGauges(size_t step, size_t instance_size);

  MetricsRegistry* registry_;
  MetricsObserverOptions options_;
  Counter* considered_;
  Counter* applied_;
  Counter* retired_;
  Counter* delta_repairs_;
  Counter* delta_inserted_;
  Counter* delta_erased_;
  Counter* delta_invalidated_;
  Counter* delta_seed_probes_;
  Counter* core_retractions_;
  Counter* core_folds_;
  std::vector<StatsInstrument> stats_instruments_;
  Gauge* round_;
  Gauge* instance_size_;
  Histogram* round_pending_;
  Histogram* step_added_atoms_;
};

/// Serialises every event as one JSON object per line, e.g.
///   {"event": "round_begin", "round": 1, "pending": 5, "size": 4}
/// The stream is append-only and flush-free; callers own the ostream.
///
/// The ChaseStats some events carry are never logged: they are telemetry,
/// which MetricsObserver publishes as the chase.match.* and chase.plan.*
/// instruments. Keeping them out keeps every event log stable across
/// changes that only move how much work a run did.
class EventLogObserver : public ChaseObserver {
 public:
  explicit EventLogObserver(std::ostream* out) : out_(out) {}

  void OnRunBegin(const RunBeginEvent& event) override;
  void OnRoundBegin(const RoundBeginEvent& event) override;
  void OnDeltaRepair(const DeltaRepairEvent& event) override;
  void OnTriggerConsidered(const TriggerConsideredEvent& event) override;
  void OnTriggerApplied(const TriggerAppliedEvent& event) override;
  void OnTriggerRetired(const TriggerRetiredEvent& event) override;
  void OnCoreRetraction(const CoreRetractionEvent& event) override;
  void OnRoundEnd(const RoundEndEvent& event) override;
  void OnRobustRename(const RobustRenameEvent& event) override;
  void OnPhase(const PhaseEvent& event) override;
  void OnFaultInjected(const FaultInjectedEvent& event) override;
  void OnRunEnd(const RunEndEvent& event) override;

 private:
  std::ostream* out_;
};

}  // namespace twchase

#endif  // TWCHASE_OBS_STOCK_OBSERVERS_H_
