// Resource governance: wall-clock deadlines, memory budgets and cooperative
// cancellation for the long-running procedures of the engine (chase rounds,
// homomorphism search, core computation, entailment, treewidth).
//
// The paper's central objects are chases that provably never terminate
// (the inflating elevator's core-chase sequences grow without bound), so
// budget exhaustion is a first-class, *recoverable* outcome, never a failure:
// a governed procedure polls ShouldStop() at cheap, well-chosen boundaries
// and, once the governor trips, unwinds to the nearest consistent state —
// the chase to the last committed derivation step (from which a checkpoint
// can be written, see core/checkpoint.h), a search to "no result within
// budget". Nothing throws and nothing aborts mid-mutation.
//
// Plumbing is ambient: RunChase (and tests, and the CLI) install a governor
// for the current thread with a GovernorScope; the lower layers poll
// CurrentGovernor() without any signature changes. Governors nest — a child
// governor also honours its parent's cancellation and deadline, so a
// deadline installed around CombinedEntailment interrupts the chase runs
// *and* the counter-model search inside it.
//
// CAUTION for poll sites: a search interrupted mid-way returns "nothing
// found so far", which is NOT evidence of non-existence. Any caller that
// draws a conclusion from an absence (trigger satisfied? instance a core?)
// must re-check governor->stopped() before committing state.
#ifndef TWCHASE_UTIL_GOVERNOR_H_
#define TWCHASE_UTIL_GOVERNOR_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "util/fault.h"

namespace twchase {

/// Why a governed run stopped. kFixpoint is the only "terminated" outcome;
/// every other reason leaves a consistent, resumable prefix behind.
enum class StopReason {
  kFixpoint = 0,       // no active trigger remained: a genuine model
  kStepBudget,         // limits.max_steps rule applications performed
  kInstanceSizeGuard,  // limits.max_instance_size exceeded
  kDeadline,           // limits.deadline_ms of wall clock elapsed
  kMemoryBudget,       // limits.memory_budget_bytes estimate exceeded
  kCancelled,          // external CancelToken fired (or injected fault)
};

const char* StopReasonName(StopReason reason);

/// Cooperative cancellation handle. Default-constructed tokens are inert
/// (never cancelled, cost one null check); Create() makes a real shared
/// flag. Copies share the flag; RequestCancel is thread-safe, so another
/// thread (a signal handler trampoline, an RPC deadline) can cancel a
/// running chase.
class CancelToken {
 public:
  CancelToken() = default;

  static CancelToken Create();

  /// No-op on an inert token.
  void RequestCancel() const;

  bool cancel_requested() const {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }

  bool valid() const { return flag_ != nullptr; }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// The budget slice of ChaseOptions::LimitOptions that the governor
/// enforces (steps and instance size stay in the chase's own loop, where
/// the counters live).
struct ResourceLimits {
  /// Wall-clock budget in milliseconds, measured from governor construction.
  /// nullopt = unlimited; 0 = already expired (the first boundary check
  /// stops the run before any work is committed).
  std::optional<uint64_t> deadline_ms;

  /// Budget on the engine's *estimated* resident bytes (instance + retained
  /// derivation), as reported via NoteMemoryUsage. 0 = unlimited. The
  /// estimate is an undercount of true RSS (indexes and allocator slack are
  /// approximated), so treat the budget as a soft guardrail, not an rlimit.
  size_t memory_budget_bytes = 0;

  /// External cancellation. Inert by default.
  CancelToken cancel;
};

/// One run's budget enforcement. Construction snapshots the deadline; every
/// governed boundary calls ShouldStop(site), which latches the first
/// exhausted budget as the stop reason. Also the delivery point for
/// deterministic fault injection (util/fault.h): an armed FaultInjector
/// fires at an exact (site, visit) pair and is reported as the injected
/// reason, so tests can prove the consistency invariant at any chosen
/// boundary.
class ResourceGovernor {
 public:
  /// `parent` defaults to the governor ambient at construction, so nested
  /// runs inherit outer cancellation/deadlines. Pass nullptr to detach.
  explicit ResourceGovernor(const ResourceLimits& limits);
  ResourceGovernor(const ResourceLimits& limits, ResourceGovernor* parent);

  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  /// Cooperative checkpoint. Returns true once any budget is exhausted (and
  /// keeps returning true: the decision latches). Cheap on the happy path:
  /// a counter bump, a relaxed atomic load, and a clock read every
  /// kClockPollStride visits.
  bool ShouldStop(FaultSite site);

  /// True iff a previous ShouldStop latched.
  bool stopped() const { return stopped_; }

  /// The latched reason; meaningful only when stopped().
  StopReason reason() const { return reason_; }

  /// Updates the memory estimate checked by the next ShouldStop.
  void NoteMemoryUsage(size_t bytes) { memory_estimate_ = bytes; }

  /// True when the stop was caused by an injected fault (tests use this to
  /// distinguish injected from organic exhaustion; the chase emits an
  /// observer event for it).
  bool fault_fired() const { return fault_fired_; }
  FaultSite fault_site() const { return fault_site_; }
  uint64_t fault_visit() const { return fault_visit_; }

  /// Passive probe: checks this governor's (and its ancestors') cancel
  /// token and deadline without counting a visit or consulting the fault
  /// injector. Used by parents from within child polls.
  bool CheckPassive();

 private:
  void Latch(StopReason reason) {
    if (!stopped_) {
      stopped_ = true;
      reason_ = reason;
    }
  }

  static constexpr uint64_t kClockPollStride = 256;

  ResourceLimits limits_;
  ResourceGovernor* parent_ = nullptr;
  std::chrono::steady_clock::time_point deadline_at_{};
  bool has_deadline_ = false;
  bool stopped_ = false;
  StopReason reason_ = StopReason::kFixpoint;
  size_t memory_estimate_ = 0;
  uint64_t visits_ = 0;
  bool fault_fired_ = false;
  FaultSite fault_site_ = FaultSite::kTriggerBoundary;
  uint64_t fault_visit_ = 0;
};

/// The governor ambient on this thread, or nullptr. Poll sites use the
/// two helpers below instead of touching this directly.
ResourceGovernor* CurrentGovernor();

/// Installs `governor` as the thread's ambient governor for the scope.
class GovernorScope {
 public:
  explicit GovernorScope(ResourceGovernor* governor);
  ~GovernorScope();

  GovernorScope(const GovernorScope&) = delete;
  GovernorScope& operator=(const GovernorScope&) = delete;

 private:
  ResourceGovernor* previous_;
};

/// Suspends ambient polls for the scope: GovernorPoll returns false and
/// consumes no fault-injection visits. Wrapped around regions that mutate
/// state and cannot be rolled back (a trigger application with its frugal
/// fold) so that interruption can only land on boundaries from which a
/// consistent checkpoint exists.
class GovernorAtomicSection {
 public:
  GovernorAtomicSection();
  ~GovernorAtomicSection();

  GovernorAtomicSection(const GovernorAtomicSection&) = delete;
  GovernorAtomicSection& operator=(const GovernorAtomicSection&) = delete;
};

/// Ambient poll: ShouldStop on the current governor, false when no governor
/// is installed or an atomic section is open.
bool GovernorPoll(FaultSite site);

/// Ambient probe without side effects (no visit counted): true iff an
/// installed governor has already latched a stop.
bool GovernorStopped();

}  // namespace twchase

#endif  // TWCHASE_UTIL_GOVERNOR_H_
