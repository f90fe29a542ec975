#include "core/session.h"

#include <string>
#include <utility>

namespace twchase {

const char* ChaseSessionStateName(ChaseSession::State state) {
  switch (state) {
    case ChaseSession::State::kIdle: return "idle";
    case ChaseSession::State::kRunning: return "running";
    case ChaseSession::State::kPaused: return "paused";
    case ChaseSession::State::kDone: return "done";
  }
  return "unknown";
}

ChaseSession::ChaseSession(const KnowledgeBase& kb, const ChaseOptions& options)
    : kb_(&kb), options_(options) {
  // The control surface needs a real token. A caller-provided one is kept
  // (its flag is shared, so external cancellation keeps working and
  // Cancel() fires the same flag); otherwise the session mints its own.
  if (!options_.limits.cancel.valid()) {
    options_.limits.cancel = CancelToken::Create();
  }
  control_token_ = options_.limits.cancel;
}

StatusOr<std::unique_ptr<ChaseSession>> ChaseSession::Create(
    const KnowledgeBase& kb, const ChaseOptions& options) {
  // Same checks, same order as the one-shot entry points always performed.
  if (kb.vocab == nullptr) {
    return Status::InvalidArgument("knowledge base has no vocabulary");
  }
  TWCHASE_RETURN_IF_ERROR(options.Validate());
  return std::unique_ptr<ChaseSession>(new ChaseSession(kb, options));
}

Status ChaseSession::Start() { return StartWithReplay(nullptr); }

Status ChaseSession::StartWithReplay(const ResumeLog* replay) {
  State expected = State::kIdle;
  if (!state_.compare_exchange_strong(expected, State::kRunning,
                                      std::memory_order_acq_rel)) {
    return Status::FailedPrecondition(
        std::string("session already started (state: ") +
        ChaseSessionStateName(expected) + ")");
  }
  StatusOr<ChaseResult> run = internal::ExecuteChase(*kb_, options_, replay);
  if (!run.ok()) {
    state_.store(State::kDone, std::memory_order_release);
    return run.status();
  }
  result_ = std::move(run).value();
  has_result_ = true;
  // A cooperative stop that Pause() asked for (and that Cancel() did not
  // override) parks the session instead of finishing it: the prefix is
  // consistent and, with the recorded log, checkpointable.
  const bool paused = result_.stop_reason == StopReason::kCancelled &&
                      pause_requested_.load(std::memory_order_acquire) &&
                      !cancel_requested_.load(std::memory_order_acquire);
  state_.store(paused ? State::kPaused : State::kDone,
               std::memory_order_release);
  return Status::OK();
}

Status ChaseSession::Resume(const ChaseCheckpoint& checkpoint) {
  // The full ResumeChase validation surface, in its historical order: the
  // decision bits are meaningless against a different schedule, and the
  // serialized substitutions refer to the term ids of one exact program.
  if (options_.variant != checkpoint.variant) {
    return Status::FailedPrecondition(
        std::string("resume: checkpoint was recorded with variant '") +
        ChaseVariantName(checkpoint.variant) + "', options request '" +
        ChaseVariantName(options_.variant) + "'");
  }
  // Trigger generation is always delta-driven; a checkpoint recorded with
  // the removed naive evaluation holds a different decision-bit stream.
  // Likewise, datalog rules always come first and the core chase always
  // cores F_0 and then after every application, never at round end: a
  // checkpoint recorded otherwise holds a different schedule.
  if (!checkpoint.datalog_first || !checkpoint.delta_enabled ||
      checkpoint.core_every != 1 || checkpoint.core_at_round_end ||
      !checkpoint.core_initial) {
    return Status::FailedPrecondition(
        "resume: schedule-shaping options (datalog_first, delta "
        "evaluation, coring schedule) differ from the recorded run; the "
        "decision bits are meaningless against a different schedule");
  }
  if (CheckpointFingerprint(*kb_, options_) != checkpoint.program_fingerprint) {
    return Status::FailedPrecondition(
        "resume: fingerprint mismatch — the checkpoint belongs to a "
        "different rule set or fact base, or was recorded with planning "
        "off");
  }
  if (checkpoint.log.have_initial &&
      kb_->vocab->num_variables() != checkpoint.log.initial_num_variables) {
    return Status::FailedPrecondition(
        "resume: vocabulary is not in the recorded run's start state "
        "(expected " +
        std::to_string(checkpoint.log.initial_num_variables) +
        " variables, found " + std::to_string(kb_->vocab->num_variables()) +
        "); re-parse the program into a fresh vocabulary before resuming");
  }
  ResumeLog log = checkpoint.log;
  log.verify_landing = true;
  log.expected_instance_size = checkpoint.instance_size;
  log.expected_instance_hash = checkpoint.instance_hash;
  log.committed_num_variables = checkpoint.expected_variables;
  return StartWithReplay(&log);
}

Status ChaseSession::Pause() {
  if (!options_.resume.record_log) {
    return Status::FailedPrecondition(
        "session is not checkpointable: it was created without "
        "resume.record_log, so a paused prefix could not be continued");
  }
  pause_requested_.store(true, std::memory_order_release);
  control_token_.RequestCancel();
  return Status::OK();
}

void ChaseSession::Cancel() {
  cancel_requested_.store(true, std::memory_order_release);
  control_token_.RequestCancel();
}

const ChaseResult& ChaseSession::Result() const {
  TWCHASE_CHECK_MSG(has_result_, "ChaseSession::Result before completion");
  return result_;
}

ChaseResult ChaseSession::TakeResult() {
  TWCHASE_CHECK_MSG(has_result_,
                    "ChaseSession::TakeResult before completion");
  has_result_ = false;
  return std::move(result_);
}

StatusOr<ChaseCheckpoint> ChaseSession::Checkpoint() const {
  State state = state_.load(std::memory_order_acquire);
  if (state != State::kPaused && state != State::kDone) {
    return Status::FailedPrecondition(
        std::string("cannot checkpoint a session in state '") +
        ChaseSessionStateName(state) + "'");
  }
  if (!has_result_ || !options_.resume.record_log) {
    return Status::FailedPrecondition(
        "cannot checkpoint: the session holds no recorded run "
        "(resume.record_log off, or the result was taken)");
  }
  return MakeCheckpoint(*kb_, options_, result_);
}

}  // namespace twchase
