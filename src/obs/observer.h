// Structured observability for chase runs (the single supported API for
// watching a run). The engine emits typed events through a ChaseObserver
// attached via ChaseOptions::observer: scheduler round boundaries, the fate
// of every trigger (considered / applied / retired), core retractions with
// fold counts, semi-naive delta repairs, robust-aggregation renames and
// named phases of composite procedures (entailment, benches). Engine
// counters (match work, planner skips, guard proofs) are not events of
// their own: the run-begin, trigger-applied and run-end events carry a view
// of the run's ChaseStats, their one record.
//
// Contract: observers are strictly read-only taps. All event payloads are
// const views into engine state that are valid only for the duration of the
// callback; an observer must never mutate the run (runs with and without
// observers are bit-identical, enforced by tests/observer_test.cc). With no
// observer attached (the default) every emission site is a single untaken
// branch — zero overhead.
//
// Stock observers (trace, measures, metrics, JSONL event log) live in
// obs/stock_observers.h; a recorded Derivation can be re-fed through any
// observer with ReplayDerivation, which is how the post-hoc --trace and
// --measures paths share this one code path with live runs.
#ifndef TWCHASE_OBS_OBSERVER_H_
#define TWCHASE_OBS_OBSERVER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/chase.h"
#include "core/derivation.h"
#include "model/atom_set.h"
#include "model/substitution.h"

namespace twchase {

/// Run started. Emitted after the initial coring (if any), so initial_size
/// is |F_0| as recorded in the derivation.
struct RunBeginEvent {
  ChaseVariant variant = ChaseVariant::kRestricted;
  size_t rule_count = 0;
  size_t initial_size = 0;

  /// σ_0 (the initial coring retraction; identity-or-empty otherwise).
  const Substitution* initial_simplification = nullptr;

  /// F_0.
  const AtomSet* instance = nullptr;

  /// The run's counters so far (the initial coring's match work and the
  /// execution plan's shape); null when ReplayDerivation synthesises the
  /// event.
  const ChaseStats* stats = nullptr;
};

/// A scheduler round snapshotted and ordered its triggers. Emitted after the
/// round's delta repair (if any), so pending_triggers is the exact number of
/// matches the round will consider.
struct RoundBeginEvent {
  size_t round = 0;  // 1-based
  size_t pending_triggers = 0;
  size_t instance_size = 0;
};

/// Semi-naive repair of the stored match sets from the atoms inserted and
/// erased since the previous round (delta evaluation only; the priming
/// enumeration does not count as a repair).
struct DeltaRepairEvent {
  size_t round = 0;
  size_t inserted_atoms = 0;
  size_t erased_atoms = 0;
  size_t matches_invalidated = 0;
  size_t seed_probes = 0;
  size_t matches_added = 0;
};

/// Why a stored match left the match set for good.
enum class TriggerRetireReason {
  kApplied,      // consumed by its own application (monotone variants)
  kDuplicate,    // (semi-)oblivious: application key already applied
  kSatisfied,    // restricted: satisfied in a monotone run, stays satisfied
  kInvalidated,  // delta repair: an atom of the match image was erased
};

const char* TriggerRetireReasonName(TriggerRetireReason reason);

/// A pending trigger's activeness is about to be checked.
struct TriggerConsideredEvent {
  size_t round = 0;
  int rule_index = -1;
};

/// A trigger was applied; the derivation grew by one step. Pointer payloads
/// alias the recorded DerivationStep and the live instance.
struct TriggerAppliedEvent {
  size_t step = 0;  // derivation index of the new element F_step (1-based)
  size_t round = 0;
  int rule_index = -1;
  const std::string* rule_label = nullptr;
  const Substitution* match = nullptr;
  const Substitution* simplification = nullptr;
  size_t added_atoms = 0;
  size_t instance_size = 0;  // |F_step| after the simplification

  /// F_step.
  const AtomSet* instance = nullptr;

  /// The run's counters up to and including this step; null when
  /// ReplayDerivation synthesises the event.
  const ChaseStats* stats = nullptr;
};

/// A stored match was retired from the delta-maintained match set.
struct TriggerRetiredEvent {
  size_t round = 0;
  int rule_index = -1;
  TriggerRetireReason reason = TriggerRetireReason::kApplied;
};

/// A core retraction ran (the initial coring or a per-application one).
struct CoreRetractionEvent {
  /// Derivation step the retraction belongs to (0 = initial coring).
  size_t step = 0;

  /// Fold operations performed (singular + general; counted inside
  /// hom/core.cc, not derivable from the final retraction).
  size_t folds = 0;

  size_t size_before = 0;
  size_t size_after = 0;
};

/// A scheduler round finished (after match retirement).
struct RoundEndEvent {
  size_t round = 0;
  size_t steps_in_round = 0;
  size_t instance_size = 0;
  bool progressed = false;

  /// The live instance: the round's last element.
  const AtomSet* instance = nullptr;
};

/// One robust-aggregation step: π_i renamed `renamed_variables` variables of
/// the running union (Proposition 10 bounds how often this can happen per
/// variable; `stable_variables` is the stabilisation series of Section 8).
struct RobustRenameEvent {
  size_t step = 0;  // aggregator step index; 0 = Begin
  size_t renamed_variables = 0;
  size_t stable_variables = 0;
  size_t g_size = 0;
  size_t union_size = 0;
};

/// A named phase of a composite procedure completed (entailment
/// sub-procedures, bench phases).
struct PhaseEvent {
  const char* name = "";
  double wall_ms = 0;
  size_t chase_steps = 0;
};

/// An injected fault (util/fault.h) stopped the run at a governed boundary.
/// Emitted once, just before the corresponding OnRunEnd, so event logs can
/// tell injected stops from organic exhaustion.
struct FaultInjectedEvent {
  FaultSite site = FaultSite::kTriggerBoundary;
  uint64_t visit = 0;  // 1-based unmasked poll count at `site` when it fired
  StopReason simulated = StopReason::kCancelled;
};

/// Run finished (fixpoint, budget exhausted, size guard, deadline, memory
/// budget or cancellation — see stop_reason).
struct RunEndEvent {
  size_t steps = 0;
  size_t rounds = 0;
  bool terminated = false;
  bool size_guard_tripped = false;
  size_t final_size = 0;
  StopReason stop_reason = StopReason::kFixpoint;

  /// The run's final counters (the ChaseResult's stats); null when
  /// ReplayDerivation synthesises the event.
  const ChaseStats* stats = nullptr;
};

/// Event sink interface. Every hook has an empty default so observers
/// override only what they consume.
class ChaseObserver {
 public:
  virtual ~ChaseObserver() = default;

  virtual void OnRunBegin(const RunBeginEvent& event) { (void)event; }
  virtual void OnRoundBegin(const RoundBeginEvent& event) { (void)event; }
  virtual void OnDeltaRepair(const DeltaRepairEvent& event) { (void)event; }
  virtual void OnTriggerConsidered(const TriggerConsideredEvent& event) {
    (void)event;
  }
  virtual void OnTriggerApplied(const TriggerAppliedEvent& event) {
    (void)event;
  }
  virtual void OnTriggerRetired(const TriggerRetiredEvent& event) {
    (void)event;
  }
  virtual void OnCoreRetraction(const CoreRetractionEvent& event) {
    (void)event;
  }
  virtual void OnRoundEnd(const RoundEndEvent& event) { (void)event; }
  virtual void OnRobustRename(const RobustRenameEvent& event) { (void)event; }
  virtual void OnPhase(const PhaseEvent& event) { (void)event; }
  virtual void OnFaultInjected(const FaultInjectedEvent& event) {
    (void)event;
  }
  virtual void OnRunEnd(const RunEndEvent& event) { (void)event; }
};

/// Fans every event out to a list of observers, in attachment order.
/// Non-owning; attached observers must outlive the list.
class ObserverList : public ChaseObserver {
 public:
  void Add(ChaseObserver* observer);
  bool empty() const { return observers_.empty(); }
  size_t size() const { return observers_.size(); }

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
  std::vector<ChaseObserver*> observers_;
};

/// Re-feeds a recorded derivation through an observer as a synthetic run:
/// OnRunBegin for F_0, one OnTriggerApplied per step (instance pointers
/// point at the element rebuilt from the journal, valid during the call),
/// then OnRunEnd. Round-level and engine-internal events (delta repairs,
/// retirements, corings) are not reconstructible from a Derivation and are
/// not emitted. This is the shared
/// code path behind the post-hoc DerivationTrace and MeasureSeries.
void ReplayDerivation(const Derivation& derivation, ChaseVariant variant,
                      ChaseObserver* observer);

}  // namespace twchase

#endif  // TWCHASE_OBS_OBSERVER_H_
