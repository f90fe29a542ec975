// Checkpointing and resumption of chase runs.
//
// The paper's interesting chases are precisely the ones that do not
// terminate (the core-chase sequences of the inflating elevator grow
// forever), so a practical engine must be able to stop a run at a budget
// boundary, write everything needed to continue, and later resume
// *bit-identically*: the resumed run produces the same final instance, the
// same derivation journal and the same observer event stream as an
// uninterrupted run with the combined budget.
//
// A checkpoint is NOT an instance snapshot. Serializing the instance alone
// cannot resume a run: the scheduler's future depends on state that is
// expensive or impossible to externalize directly (stored match sets,
// applied-key sets, the coring cadence). Instead a checkpoint carries the
// ResumeLog — the per-round decision bits and the recorded coring/folding
// retractions — and resumption REPLAYS the recorded prefix through the very
// same scheduler code path (ChaseSession::Resume): decision bits substitute
// for satisfaction checks and recorded retractions substitute for core
// recomputation, so replay is cheap (no homomorphism searches) and lands in
// the exact scheduler state, stored matches and all, where the run stopped.
// The instance size/hash recorded here are a cross-check of that landing,
// not the mechanism.
//
// The knowledge base itself is deliberately not embedded: the caller
// re-parses the same program text (the CLI passes the same file) and a
// fingerprint verifies it is byte-for-byte the same program, which also
// pins the term-id assignment the serialized substitutions refer to.
#ifndef TWCHASE_CORE_CHECKPOINT_H_
#define TWCHASE_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "core/chase.h"
#include "kb/knowledge_base.h"
#include "util/status.h"

namespace twchase {

/// Deterministic structural fingerprint of (rules, facts): FNV-1a over rule
/// labels, bodies, heads and the facts' content hash. Stable across
/// processes; sensitive to anything that changes term-id assignment or the
/// scheduler's rule order.
uint64_t ProgramFingerprint(const KnowledgeBase& kb);

/// The fingerprint a checkpoint actually stores: ProgramFingerprint plus
/// everything run-shaping that lives outside the schedule echo — the
/// constants the removed matcher and planner switches contributed and, for
/// runs requested as --variant=auto, the preflight decision (classifier verdict + resolved variant), so a resume whose
/// re-classification would decide differently is rejected. Computed at
/// MakeCheckpoint time and re-computed by ResumeChase for the rejection
/// check.
uint64_t CheckpointFingerprint(const KnowledgeBase& kb,
                               const ChaseOptions& options);

struct ChaseCheckpoint {
  /// Format version (bumped on incompatible serialization changes).
  uint32_t version = 1;

  ChaseVariant variant = ChaseVariant::kRestricted;

  /// Echo of the schedule that shapes the decision-bit stream; ResumeChase
  /// rejects a resume whose options disagree (the bits would be
  /// meaningless against a different schedule).
  ///
  /// datalog_first, delta_enabled and core_initial are always written as
  /// true, and core_at_round_end as false: datalog rules always come first,
  /// trigger generation is always delta-driven, the core chase always cores
  /// F_0 and cores only on the core_every schedule. A checkpoint recorded
  /// with any of them the other way (by a build that still had the switch)
  /// parses with that value and is rejected at resume.
  bool datalog_first = true;
  bool delta_enabled = true;
  size_t core_every = 1;
  bool core_at_round_end = false;
  bool core_initial = true;

  uint64_t program_fingerprint = 0;

  /// Where the recorded run stopped.
  StopReason stop_reason = StopReason::kFixpoint;
  size_t steps = 0;
  size_t rounds = 0;

  /// Landing cross-check: the checkpointed instance's size and
  /// order-independent content hash (AtomSet::ContentHash), and the
  /// vocabulary's variable count after the last committed step.
  size_t instance_size = 0;
  uint64_t instance_hash = 0;
  size_t expected_variables = 0;

  ResumeLog log;
};

/// Builds a checkpoint from a finished (stopped or terminated) run. The run
/// must have been executed with options.resume.record_log = true; CHECK
/// fails otherwise (an empty log would silently resume from scratch).
ChaseCheckpoint MakeCheckpoint(const KnowledgeBase& kb,
                               const ChaseOptions& options,
                               const ChaseResult& result);

/// Line-based text serialization (versioned, self-describing header).
std::string SerializeCheckpoint(const ChaseCheckpoint& checkpoint);

/// Parses a serialized checkpoint. InvalidArgument on malformed input or an
/// unsupported version; never aborts on untrusted bytes. A `round` line must
/// carry the fixed "0 0 0" tail: one that records a round-end coring is
/// refused, not read as a round without it. Strict: trailing
/// bytes after the "end" terminator and a final line without its newline
/// are rejected with a byte-offset-annotated error, so a torn tail can
/// never parse as a shorter-but-valid log.
StatusOr<ChaseCheckpoint> ParseCheckpoint(const std::string& text);

/// SerializeCheckpoint plus an integrity footer:
///   checksum 1 <body-length> <crc32-of-body-in-hex>\n
/// This is the on-disk form used by the durable job store: the length
/// detects truncation, the CRC detects bit rot, and strictness rejects
/// anything after the footer.
std::string SerializeCheckpointSealed(const ChaseCheckpoint& checkpoint);

/// Verifies and strips the footer, then parses the body strictly.
/// InvalidArgument when the footer is missing, the length disagrees, the
/// CRC mismatches, or bytes follow the footer.
StatusOr<ChaseCheckpoint> ParseSealedCheckpoint(const std::string& text);

/// Resumes the checkpointed run against `kb`, which must be a fresh parse
/// of the same program (fingerprint-verified, vocabulary unconsumed).
/// `options` supplies the NEW budgets (typically larger than the recorded
/// run's); the schedule-shaping options must match the checkpoint's echo.
/// The returned result is bit-identical — same derivation, same events, as
/// verified by the landing cross-check — to an uninterrupted run under the
/// combined budget. FailedPrecondition when the checkpoint does not match
/// kb/options or the replay fails to reconstruct the recorded state.
StatusOr<ChaseResult> ResumeChase(const KnowledgeBase& kb,
                                  const ChaseOptions& options,
                                  const ChaseCheckpoint& checkpoint);

}  // namespace twchase

#endif  // TWCHASE_CORE_CHECKPOINT_H_
