// The chase engine: oblivious, semi-oblivious (skolem), restricted
// (standard) and core chase variants over one fair, deterministic,
// round-based scheduler.
//
// Fairness: each round snapshots all triggers of the current instance and
// processes them in a deterministic order (datalog rules first, matching the
// schedules used in the paper's proofs, e.g. Proposition 6), re-checking
// activeness — and, for the core chase, re-mapping the trigger through the
// accumulated simplifications σ (Definition 2) — before each application.
// Every trigger existing at round r is thus considered by round r+1, which
// realises Definition 3 on every finite prefix.
//
// Termination: a round in which no trigger is active is a fixpoint. For the
// restricted/core chase this means every trigger is satisfied (the result is
// a model); the core chase terminates iff the KB has a finite universal
// model (Deutsch–Nash–Remmel), which is the fes test used by classes.h.
#ifndef TWCHASE_CORE_CHASE_H_
#define TWCHASE_CORE_CHASE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/derivation.h"
#include "kb/knowledge_base.h"
#include "util/governor.h"
#include "util/status.h"

namespace twchase {

enum class ChaseVariant {
  kOblivious,      // apply every trigger once, never re-check satisfaction
  kSemiOblivious,  // apply once per (rule, frontier restriction)
  kRestricted,     // apply only unsatisfied triggers
  kFrugal,         // restricted + fold freshly created nulls when redundant
                   // (a derivation "between" restricted and core, Section 3)
  kCore,           // restricted + retract to a core after each application
};

const char* ChaseVariantName(ChaseVariant variant);

class ChaseObserver;  // obs/observer.h

/// Chase configuration, grouped by concern: `limits` (budgets), `core`
/// (coring schedule of the core chase), `resume` (checkpoint recording) and
/// `preflight` (--variant=auto provenance). Trigger generation is always
/// delta-driven and always planned (DESIGN.md §5 and §9); neither is an
/// option. The paper's schedule is fixed too: datalog rules come first in
/// every round (Proposition 6) and the core chase always cores F_0 (σ_0 of
/// Definition 1). Invariants across groups are checked by Validate(), which
/// RunChase calls first — inconsistent combinations are rejected, never
/// silently patched.
struct ChaseOptions {
  ChaseVariant variant = ChaseVariant::kRestricted;

  /// Run budgets. The run stops (unterminated) when one is exhausted; the
  /// exhausted budget is reported as ChaseResult::stop_reason and the
  /// result carries the consistent prefix completed so far.
  struct LimitOptions {
    /// Budget in rule applications.
    size_t max_steps = 1000;

    /// Instance-size guardrail: stop (unterminated) once |F_i| exceeds this
    /// (0 = unlimited). Protects callers from runaway oblivious chases.
    size_t max_instance_size = 0;

    /// Wall-clock budget in milliseconds, measured from the start of the
    /// run (nullopt = unlimited; 0 = already expired, so the run stops at
    /// the first boundary with the initial instance unmodified). Enforced
    /// cooperatively at trigger/round boundaries, so the overshoot is
    /// bounded by one trigger application.
    std::optional<uint64_t> deadline_ms;

    /// Budget on estimated resident bytes of instance + retained
    /// derivation (0 = unlimited). An estimate (see
    /// AtomSet::ApproxMemoryBytes), not an allocator hook; the CLI's
    /// --memory-budget-mb converts to bytes.
    size_t memory_budget_bytes = 0;

    /// External cooperative cancellation; inert by default. Another thread
    /// may call cancel.RequestCancel() to stop the run at the next
    /// boundary with StopReason::kCancelled.
    CancelToken cancel;
  };

  /// Coring schedule of the core chase after F_0, which it always cores
  /// (ignored by the other variants).
  struct CoreOptions {
    /// Retract to a core after every k-th application (the paper allows any
    /// finite spacing; 1 = after every application).
    size_t core_every = 1;
  };

  /// Termination-analysis preflight provenance (filled by
  /// analysis/preflight.h's ResolveAutoVariant; plain ints so core stays
  /// decoupled from the analysis layer). When a run was requested as
  /// --variant=auto, `variant` holds the preflight's pick and this group
  /// records that fact plus the classifier verdict — both are folded into
  /// the checkpoint fingerprint, so a checkpoint written under auto rejects
  /// resume if re-classification would decide differently.
  struct PreflightProvenance {
    /// The variant was requested as "auto" rather than picked explicitly.
    bool auto_variant = false;

    /// Set once ResolveAutoVariant stored its decision. An auto request
    /// that reaches the engine unresolved is rejected by Validate().
    bool resolved = false;

    /// The classifier verdict (numeric TerminationClass from
    /// analysis/preflight.h).
    uint32_t verdict = 0;
  };

  /// Checkpoint/resume support (core/checkpoint.h).
  struct ResumeOptions {
    /// Record the resume log (per-round decision bits and recorded coring
    /// retractions) alongside the derivation, so a checkpoint can be
    /// written from the result. Off by default (the log costs memory
    /// proportional to the run).
    bool record_log = false;
  };

  LimitOptions limits;
  CoreOptions core;
  ResumeOptions resume;
  PreflightProvenance preflight;

  /// Nothing reads this. The derivation is a journal that rebuilds any F_i
  /// (core/derivation.h); kept because the benchmark runner
  /// (perfbench/twbench.cc) still assigns it.
  bool keep_snapshots = true;

  /// Structured event tap (obs/observer.h), non-owning. Null (the default)
  /// means zero observation overhead; attached observers see every round,
  /// trigger and retraction but must never mutate the run — runs with and
  /// without observers are bit-identical.
  ChaseObserver* observer = nullptr;

  /// Rejects inconsistent option combinations (core_every == 0, an
  /// unresolved --variant=auto). RunChase validates first and surfaces the
  /// same Status.
  Status Validate() const;
};

/// Evaluation counters, for benchmarks, the ablation tables and observers
/// (the run-begin, trigger-applied and run-end events carry them; the
/// chase.match.* and chase.plan.* instruments publish them). Not part of
/// run equivalence: a resumed run reproduces the derivation of the
/// uninterrupted one but not all of its counter values.
struct ChaseStats {
  /// Pending triggers snapshotted, summed over rounds.
  size_t triggers_found = 0;

  /// Activeness checks performed (pending entries actually examined).
  size_t triggers_considered = 0;

  /// Whole-instance trigger enumerations (one per live rule, priming the
  /// stored match sets in the first round).
  size_t full_enumerations = 0;

  /// Delta-seeded match probes (one per inserted atom per rule whose body
  /// mentions its predicate).
  size_t seed_probes = 0;

  /// Stored matches dropped because an atom of their image was erased.
  size_t matches_invalidated = 0;

  /// Full ComputeCore invocations.
  size_t core_full = 0;

  /// Largest |F_i| seen.
  size_t peak_instance_size = 0;

  /// Match-phase counters. Deterministic: each counter is a per-search
  /// total and index builds happen exactly once per stale-to-ready column
  /// transition.
  /// Sorted-column EqualRange lookups.
  uint64_t match_index_probes = 0;

  /// Full-segment scans (pattern had no bound position to probe on).
  uint64_t match_column_scans = 0;

  /// Always 0: every search runs on the join path. Kept because the
  /// benchmark runner (perfbench/twbench.cc) still reads it.
  uint64_t match_join_fallbacks = 0;

  /// Lazy column-index (re)builds, and total sorted-row bytes they wrote.
  uint64_t match_index_builds = 0;
  uint64_t match_index_build_bytes = 0;

  /// Backtracking nodes of every hom search of the run.
  uint64_t match_search_nodes = 0;

  /// Execution-planner telemetry (src/plan/). Static plan shape:
  size_t plan_reliance_edges = 0;
  size_t plan_strata = 0;
  size_t plan_dormant_rules = 0;

  /// Strata touched by the atoms the last delta repair inserted (0 before
  /// the first repair).
  size_t plan_active_strata = 0;

  /// Full enumerations skipped because the rule is dormant.
  size_t plan_enumerations_skipped = 0;

  /// Delta-seeded probes skipped because the rule is dormant (seed_probes
  /// still counts them — the probe is accounted, just not executed).
  size_t plan_probes_skipped = 0;

  /// Still-core proofs attempted, and the subset that certified (each
  /// certification skips one full ComputeCore).
  size_t plan_core_proofs = 0;
  size_t plan_core_certified = 0;

  /// The still-core guard's share of the hom-search work above (both of
  /// its cases): backtracking nodes, index probes and segment scans.
  uint64_t guard_search_nodes = 0;
  uint64_t guard_index_probes = 0;
  uint64_t guard_column_scans = 0;

  /// The most nodes any one guard call visited: a call whose search blows
  /// up shows here even when the run's total hides it.
  uint64_t guard_max_call_nodes = 0;
};

/// Everything needed to replay a recorded run deterministically: one
/// decision bit per committed trigger consideration, plus the coring /
/// folding retractions actually chosen (recomputing a core is expensive
/// and its fold choices are history-dependent; replaying the recorded
/// retraction is exact and cheap). Produced when
/// ChaseOptions::resume.record_log is set; consumed by ResumeChase
/// (core/checkpoint.h) via the replay path of the scheduler.
struct ResumeLog {
  struct StepRecord {
    /// The simplification σ_i committed for this application: the coring
    /// retraction (core variant), or identity. Frugal folds are recorded
    /// separately in fold_sigmas so replay can reproduce the per-fold
    /// journal entries exactly.
    Substitution sigma;

    /// Frugal chase: the per-fold retractions, in fold order.
    std::vector<Substitution> fold_sigmas;

    /// True when the coring schedule (core.core_every) cored after this
    /// application (so replay knows whether sigma came from a core event or
    /// is a trivial identity).
    bool cored = false;

    /// Fold count of the coring (CoreRetractionEvent::folds is not
    /// derivable from the retraction alone, and replayed runs must emit
    /// the same event payloads as live ones).
    size_t folds = 0;
  };

  /// A round holds no coring of its own: every coring belongs to a step.
  /// (The checkpoint's `round` line still ends in a fixed "0 0 0"; see
  /// SerializeCheckpoint.)
  struct RoundRecord {
    /// One bit per committed trigger consideration this round, in pending
    /// order after the canonical sort: 1 = applied, 0 = skipped (inactive
    /// or satisfied).
    std::vector<uint8_t> decisions;
  };

  /// True once the initial element F_0 was committed. A log with
  /// have_initial == false records nothing (the run stopped before any
  /// commitment) and replaying it is a plain fresh run.
  bool have_initial = false;

  /// Initial coring retraction (σ_0); identity when the variant is not
  /// core.
  Substitution initial_sigma;
  size_t initial_folds = 0;

  std::vector<StepRecord> steps;
  std::vector<RoundRecord> rounds;

  /// vocab->num_variables() when the recorded run started. Replay must
  /// start from the same vocabulary state (same program, freshly parsed) or
  /// the minted null ids diverge; ResumeChase verifies this up front.
  size_t initial_num_variables = 0;

  /// vocab->num_variables() after the last committed step: resuming mints
  /// fresh nulls starting here, and replay must land exactly on it.
  size_t committed_num_variables = 0;

  /// Landing verification, filled by ResumeChase from the checkpoint: when
  /// verify_landing is set, the replay checks — at the boundary where the
  /// log is exhausted and execution goes live — that the reconstructed
  /// instance and fresh-null counter match the checkpointed ones, and the
  /// run fails with FailedPrecondition otherwise (a corrupted or mismatched
  /// checkpoint must not silently produce a diverged chase).
  bool verify_landing = false;
  size_t expected_instance_size = 0;
  uint64_t expected_instance_hash = 0;

  bool empty() const { return steps.empty() && rounds.empty(); }
};

struct ChaseResult {
  Derivation derivation;

  /// Why the run stopped. kFixpoint is the terminated case (a fixpoint
  /// was reached within the budget); every other reason leaves
  /// `derivation` holding the consistent prefix completed when the budget
  /// ran out.
  StopReason stop_reason = StopReason::kFixpoint;

  /// Rule applications performed.
  size_t steps = 0;

  /// Scheduler rounds performed.
  size_t rounds = 0;

  ChaseStats stats;

  /// Populated when options.resume.record_log was set; otherwise empty.
  ResumeLog resume_log;
};

/// Runs the chase on kb. Fresh nulls are minted in *kb.vocab.
///
/// COMPATIBILITY SURFACE: since the ChaseSession redesign
/// (core/session.h) this is a thin wrapper — create a session, Start() it,
/// take the result. Behavior is bit-identical to the historical free
/// function; new code that needs lifecycle control (pause, checkpoint,
/// cancellation from another thread, many concurrent runs in one process)
/// should hold a ChaseSession instead.
StatusOr<ChaseResult> RunChase(const KnowledgeBase& kb,
                               const ChaseOptions& options);

namespace internal {

/// The engine proper: one uninterrupted run segment (optionally replaying a
/// recorded prefix) on the calling thread. Exposed for ChaseSession
/// (core/session.h), which owns validation and lifecycle; everything else —
/// the CLI, the daemon, tests — goes through the session or RunChase
/// above.
StatusOr<ChaseResult> ExecuteChase(const KnowledgeBase& kb,
                                   const ChaseOptions& options,
                                   const ResumeLog* replay);

}  // namespace internal

}  // namespace twchase

#endif  // TWCHASE_CORE_CHASE_H_
