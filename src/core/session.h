// ChaseSession: the lifecycle handle for one chase run, and the primary
// entry point of the engine. A session owns the validated ChaseOptions, the
// cancellation token its control surface drives, and (while running) the
// engine invocation itself; the free functions RunChase / ResumeChase in
// core/chase.h and core/checkpoint.h are retained as the one-shot
// compatibility surface and are thin wrappers over a session.
//
// The session exists because one process now hosts MANY chases at once (the
// multi-tenant daemon in src/service/): each concurrent job needs its own
// governor, its own observers, and a control surface that another thread
// can drive — preempt a long job at a consistent boundary, turn the stopped
// prefix into a checkpoint, and later continue it elsewhere. The one-shot
// functions cannot express "pause this particular run over there"; the
// session can, without changing a single engine behavior: a session that is
// only ever Start()ed is byte-for-byte the old RunChase.
//
// State machine (one-way; a session runs at most one segment):
//
//     kIdle --Start()/Resume(cp)--> kRunning --+--> kDone    (fixpoint or
//                                              |              budget/cancel)
//                                              +--> kPaused  (Pause() was
//                                                            requested and
//                                                            the run stopped
//                                                            at a boundary)
//
// Start()/Resume() execute synchronously on the calling thread (the daemon
// runs them on scheduler workers). Pause() and Cancel() are thread-safe
// asynchronous requests: both stop the run cooperatively at the next
// governed boundary; they differ only in how the session classifies the
// stop. A paused session yields a Checkpoint() from which a NEW session —
// over a freshly parsed copy of the same program, exactly like ResumeChase —
// continues the run bit-identically (same final instance, derivation
// journal and observer event stream as the uninterrupted run; the
// fault-injection suite proves this at every boundary).
//
// Thread-safety: Start/Resume/Result/TakeResult/Checkpoint belong to the
// owning (worker) thread; Pause/Cancel/state may be called from any thread.
#ifndef TWCHASE_CORE_SESSION_H_
#define TWCHASE_CORE_SESSION_H_

#include <atomic>
#include <memory>

#include "core/chase.h"
#include "core/checkpoint.h"
#include "kb/knowledge_base.h"
#include "util/status.h"

namespace twchase {

class ChaseSession {
 public:
  enum class State {
    kIdle,     // created, not yet started
    kRunning,  // Start()/Resume() executing on the owning thread
    kPaused,   // stopped by Pause(); Checkpoint() continues it elsewhere
    kDone,     // fixpoint, exhausted budget, cancelled, or failed
  };

  /// Validates `options` (same checks, same error order as the one-shot
  /// RunChase: vocabulary first, then ChaseOptions::Validate) and builds an
  /// idle session. `kb` is borrowed and must outlive the session. If the
  /// caller's options carry no cancel token, the session mints one so that
  /// Pause()/Cancel() always work; a caller-provided token is kept and
  /// shared (external cancellation still stops the run, reported as kDone).
  static StatusOr<std::unique_ptr<ChaseSession>> Create(
      const KnowledgeBase& kb, const ChaseOptions& options);

  /// Runs the chase to a stop boundary on the calling thread. Returns OK
  /// when the engine produced a result (even a budget-stopped or cancelled
  /// prefix — those are recoverable outcomes, not errors) and the session
  /// moved to kDone or kPaused. FailedPrecondition if the session is not
  /// idle.
  Status Start();

  /// Continues a checkpointed run: validates the checkpoint against kb and
  /// options exactly as ResumeChase does (variant, schedule echo,
  /// fingerprint, fresh-vocabulary state), replays the recorded prefix and
  /// goes live. Same threading and outcome contract as Start().
  Status Resume(const ChaseCheckpoint& checkpoint);

  /// Requests preemption from any thread: the run stops at the next
  /// governed boundary and the session lands in kPaused, from which
  /// Checkpoint() resumes it later. FailedPrecondition unless the session
  /// records a resume log (options.resume.record_log — a run without the
  /// log cannot be continued, only cancelled). Pausing a session that
  /// already finished is a harmless no-op (the finished state wins).
  Status Pause();

  /// Requests cancellation from any thread: the run stops at the next
  /// governed boundary with StopReason::kCancelled and the session lands in
  /// kDone. Always safe; overrides a concurrent Pause().
  void Cancel();

  /// The finished run (kPaused or kDone). The paused case holds the
  /// consistent prefix the checkpoint is built from.
  const ChaseResult& Result() const;

  /// Moves the result out (for callers that return it by value). The
  /// session keeps its terminal state but the result is gone.
  ChaseResult TakeResult();

  /// Builds the checkpoint of a kPaused (or kDone-with-log) session.
  /// FailedPrecondition while running/idle or without a recorded log.
  StatusOr<ChaseCheckpoint> Checkpoint() const;

  State state() const { return state_.load(std::memory_order_acquire); }

  /// Meaningful once the session left kRunning.
  StopReason stop_reason() const { return result_.stop_reason; }

  const ChaseOptions& options() const { return options_; }
  const KnowledgeBase& kb() const { return *kb_; }

 private:
  ChaseSession(const KnowledgeBase& kb, const ChaseOptions& options);

  /// Start(), but deterministically replaying the prefix recorded in
  /// `replay` first (decision bits consumed instead of satisfaction checks,
  /// recorded retractions applied instead of recomputing cores); null is
  /// plain Start(). Resume() validates the log against kb and options.
  Status StartWithReplay(const ResumeLog* replay);

  const KnowledgeBase* kb_;
  ChaseOptions options_;

  /// Shares the flag with options_.limits.cancel: RequestCancel here stops
  /// the engine segment, whoever started it.
  CancelToken control_token_;

  std::atomic<State> state_{State::kIdle};
  std::atomic<bool> pause_requested_{false};
  std::atomic<bool> cancel_requested_{false};
  ChaseResult result_;
  bool has_result_ = false;
};

const char* ChaseSessionStateName(ChaseSession::State state);

}  // namespace twchase

#endif  // TWCHASE_CORE_SESSION_H_
