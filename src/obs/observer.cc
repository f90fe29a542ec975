#include "obs/observer.h"

namespace twchase {

const char* TriggerRetireReasonName(TriggerRetireReason reason) {
  switch (reason) {
    case TriggerRetireReason::kApplied:
      return "applied";
    case TriggerRetireReason::kDuplicate:
      return "duplicate";
    case TriggerRetireReason::kSatisfied:
      return "satisfied";
    case TriggerRetireReason::kInvalidated:
      return "invalidated";
  }
  return "unknown";
}

void ObserverList::Add(ChaseObserver* observer) {
  if (observer != nullptr) observers_.push_back(observer);
}

void ObserverList::OnRunBegin(const RunBeginEvent& event) {
  for (ChaseObserver* o : observers_) o->OnRunBegin(event);
}
void ObserverList::OnRoundBegin(const RoundBeginEvent& event) {
  for (ChaseObserver* o : observers_) o->OnRoundBegin(event);
}
void ObserverList::OnDeltaRepair(const DeltaRepairEvent& event) {
  for (ChaseObserver* o : observers_) o->OnDeltaRepair(event);
}
void ObserverList::OnTriggerConsidered(const TriggerConsideredEvent& event) {
  for (ChaseObserver* o : observers_) o->OnTriggerConsidered(event);
}
void ObserverList::OnTriggerApplied(const TriggerAppliedEvent& event) {
  for (ChaseObserver* o : observers_) o->OnTriggerApplied(event);
}
void ObserverList::OnTriggerRetired(const TriggerRetiredEvent& event) {
  for (ChaseObserver* o : observers_) o->OnTriggerRetired(event);
}
void ObserverList::OnCoreRetraction(const CoreRetractionEvent& event) {
  for (ChaseObserver* o : observers_) o->OnCoreRetraction(event);
}
void ObserverList::OnMatchPlan(const MatchPlanEvent& event) {
  for (ChaseObserver* o : observers_) o->OnMatchPlan(event);
}
void ObserverList::OnPlan(const PlanEvent& event) {
  for (ChaseObserver* o : observers_) o->OnPlan(event);
}
void ObserverList::OnRoundEnd(const RoundEndEvent& event) {
  for (ChaseObserver* o : observers_) o->OnRoundEnd(event);
}
void ObserverList::OnRobustRename(const RobustRenameEvent& event) {
  for (ChaseObserver* o : observers_) o->OnRobustRename(event);
}
void ObserverList::OnPhase(const PhaseEvent& event) {
  for (ChaseObserver* o : observers_) o->OnPhase(event);
}
void ObserverList::OnFaultInjected(const FaultInjectedEvent& event) {
  for (ChaseObserver* o : observers_) o->OnFaultInjected(event);
}
void ObserverList::OnRunEnd(const RunEndEvent& event) {
  for (ChaseObserver* o : observers_) o->OnRunEnd(event);
}

void ReplayDerivation(const Derivation& derivation, ChaseVariant variant,
                      ChaseObserver* observer) {
  if (observer == nullptr || derivation.empty()) return;
  DerivationCursor cursor(derivation);

  RunBeginEvent begin;
  begin.variant = variant;
  begin.initial_size = cursor.step().instance_size;
  begin.initial_simplification = &cursor.step().simplification;
  begin.instance = &cursor.instance();
  observer->OnRunBegin(begin);

  for (cursor.Next(); !cursor.done(); cursor.Next()) {
    const DerivationStep& step = cursor.step();
    TriggerAppliedEvent applied;
    applied.step = cursor.index();
    applied.rule_index = step.rule_index;
    applied.rule_label = &step.rule_label;
    applied.match = &step.match;
    applied.simplification = &step.simplification;
    applied.added_atoms = step.added_atoms.size();
    applied.instance_size = step.instance_size;
    applied.instance = &cursor.instance();
    observer->OnTriggerApplied(applied);
  }

  RunEndEvent end;
  end.steps = derivation.size() - 1;
  end.final_size = derivation.Last().size();
  observer->OnRunEnd(end);
}

}  // namespace twchase
