#include "core/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>
#include <vector>

#include "core/session.h"
#include "util/fs.h"

namespace twchase {
namespace {

constexpr char kMagic[] = "twchase-checkpoint";

uint64_t Fnv1a(uint64_t h, uint64_t value) {
  // Mix the value bytewise so that (a, b) and (a', b') with the same XOR
  // never collide trivially.
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t Fnv1aString(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return Fnv1a(h, s.size());
}

uint64_t Fnv1aAtoms(uint64_t h, const AtomSet& atoms) {
  atoms.ForEach([&h](const Atom& atom) {
    h = Fnv1a(h, atom.predicate());
    for (Term t : atom.args()) h = Fnv1a(h, t.raw());
  });
  return h;
}

// Sorted by variable id so the output is independent of hash-map iteration
// order.
std::vector<std::pair<Term, Term>> SortedBindings(const Substitution& sigma) {
  std::vector<std::pair<Term, Term>> entries(sigma.map().begin(),
                                             sigma.map().end());
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              return a.first.raw() < b.first.raw();
            });
  return entries;
}

void WriteSigma(std::ostringstream& out, const Substitution& sigma) {
  auto entries = SortedBindings(sigma);
  out << ' ' << entries.size();
  for (const auto& [var, image] : entries) {
    out << ' ' << var.raw() << ' ' << image.raw();
  }
}

Term TermFromRaw(uint32_t raw) {
  constexpr uint32_t kVarBit = 0x80000000u;
  return (raw & kVarBit) != 0 ? Term::Variable(raw & ~kVarBit)
                              : Term::Constant(raw);
}

bool ReadSigma(std::istringstream& in, Substitution* sigma) {
  size_t count = 0;
  if (!(in >> count)) return false;
  for (size_t i = 0; i < count; ++i) {
    uint32_t var = 0;
    uint32_t image = 0;
    if (!(in >> var >> image)) return false;
    sigma->Bind(TermFromRaw(var), TermFromRaw(image));
  }
  return true;
}

StatusOr<ChaseVariant> VariantFromName(const std::string& name) {
  for (ChaseVariant v :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
        ChaseVariant::kRestricted, ChaseVariant::kFrugal,
        ChaseVariant::kCore}) {
    if (name == ChaseVariantName(v)) return v;
  }
  return Status::InvalidArgument("checkpoint: unknown chase variant '" +
                                 name + "'");
}

StatusOr<StopReason> StopReasonFromName(const std::string& name) {
  for (StopReason r :
       {StopReason::kFixpoint, StopReason::kStepBudget,
        StopReason::kInstanceSizeGuard, StopReason::kDeadline,
        StopReason::kMemoryBudget, StopReason::kCancelled}) {
    if (name == StopReasonName(r)) return r;
  }
  return Status::InvalidArgument("checkpoint: unknown stop reason '" + name +
                                 "'");
}

Status MalformedAt(const std::string& what, size_t offset) {
  return Status::InvalidArgument("checkpoint: malformed " + what +
                                 " at byte " + std::to_string(offset));
}

}  // namespace

uint64_t ProgramFingerprint(const KnowledgeBase& kb) {
  uint64_t h = 1469598103934665603ull;
  h = Fnv1a(h, kb.rules.size());
  for (const Rule& rule : kb.rules) {
    h = Fnv1aString(h, rule.label());
    h = Fnv1aAtoms(h, rule.body());
    h = Fnv1aAtoms(h, rule.head());
    for (Term t : rule.existential()) h = Fnv1a(h, t.raw());
  }
  h = Fnv1a(h, kb.facts.size());
  h = Fnv1a(h, kb.facts.ContentHash());
  return h;
}

uint64_t CheckpointFingerprint(const KnowledgeBase& kb,
                               const ChaseOptions& options) {
  uint64_t h = ProgramFingerprint(kb);
  // Where the removed matcher and planner switches were folded: their
  // default values, so checkpoints written while the switches existed keep
  // resuming (and ones recorded with planning off are rejected).
  h = Fnv1a(h, 0u);
  h = Fnv1a(h, 1u);
  // A checkpoint written under --variant=auto pins the preflight decision:
  // resuming is only valid if re-classification of the (unchanged) program
  // reaches the same verdict and picks the same variant. Explicit-variant
  // checkpoints hash exactly as before this field existed.
  if (options.preflight.auto_variant) {
    h = Fnv1a(h, 0x70F1u);  // domain separator for the preflight fold
    h = Fnv1a(h, options.preflight.verdict);
    h = Fnv1a(h, static_cast<uint64_t>(options.variant));
  }
  return h;
}

ChaseCheckpoint MakeCheckpoint(const KnowledgeBase& kb,
                               const ChaseOptions& options,
                               const ChaseResult& result) {
  TWCHASE_CHECK_MSG(options.resume.record_log,
                    "MakeCheckpoint requires a run executed with "
                    "resume.record_log = true");
  ChaseCheckpoint cp;
  cp.variant = options.variant;
  cp.program_fingerprint = CheckpointFingerprint(kb, options);
  cp.stop_reason = result.stop_reason;
  cp.steps = result.steps;
  cp.rounds = result.rounds;
  const AtomSet& last = result.derivation.Last();
  cp.instance_size = last.size();
  cp.instance_hash = last.ContentHash();
  cp.expected_variables = result.resume_log.committed_num_variables;
  cp.log = result.resume_log;
  return cp;
}

std::string SerializeCheckpoint(const ChaseCheckpoint& cp) {
  std::ostringstream out;
  out << kMagic << ' ' << cp.version << '\n';
  out << "variant " << ChaseVariantName(cp.variant) << '\n';
  out << "schedule " << cp.datalog_first << ' ' << cp.delta_enabled << ' '
      << cp.core_every << ' ' << cp.core_at_round_end << ' '
      << cp.core_initial << '\n';
  out << "program " << cp.program_fingerprint << '\n';
  out << "stop " << StopReasonName(cp.stop_reason) << '\n';
  out << "progress " << cp.steps << ' ' << cp.rounds << '\n';
  out << "instance " << cp.instance_size << ' ' << cp.instance_hash << '\n';
  out << "variables " << cp.log.initial_num_variables << ' '
      << cp.expected_variables << '\n';
  out << "initial " << cp.log.have_initial << ' ' << cp.log.initial_folds;
  WriteSigma(out, cp.log.initial_sigma);
  out << '\n';
  out << "steps " << cp.log.steps.size() << '\n';
  for (const ResumeLog::StepRecord& step : cp.log.steps) {
    out << "step " << step.cored << ' ' << step.folds;
    WriteSigma(out, step.sigma);
    out << ' ' << step.fold_sigmas.size();
    for (const Substitution& fold : step.fold_sigmas) WriteSigma(out, fold);
    out << '\n';
  }
  out << "rounds " << cp.log.rounds.size() << '\n';
  for (const ResumeLog::RoundRecord& round : cp.log.rounds) {
    out << "round " << round.decisions.size() << ' ';
    if (round.decisions.empty()) {
      out << '-';
    } else {
      for (uint8_t bit : round.decisions) out << (bit != 0 ? '1' : '0');
    }
    // The round-end coring's flag, fold count and σ, which the removed
    // schedule filled; kept so the v1 format is unchanged.
    out << " 0 0 0\n";
  }
  out << "end\n";
  return out.str();
}

StatusOr<ChaseCheckpoint> ParseCheckpoint(const std::string& text) {
  // Manual cursor instead of istream getline: tracks the byte offset of
  // the current line (for error annotation) and distinguishes a missing
  // line from a final line torn off before its newline.
  size_t pos = 0;
  size_t line_start = 0;
  std::string line;
  auto Malformed = [&](const std::string& what) {
    return MalformedAt(what, line_start);
  };
  auto next_line = [&](const char* expected_tag,
                       std::istringstream* fields) -> Status {
    line_start = pos;
    if (pos >= text.size()) {
      return MalformedAt(
          std::string("input: missing '") + expected_tag + "' line", pos);
    }
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      return Status::InvalidArgument(
          "checkpoint: truncated final line (missing newline) at byte " +
          std::to_string(line_start));
    }
    line.assign(text, line_start, nl - line_start);
    pos = nl + 1;
    fields->clear();
    fields->str(line);
    std::string tag;
    if (!(*fields >> tag) || tag != expected_tag) {
      return Malformed(std::string("'") + expected_tag + "' line");
    }
    return Status::OK();
  };

  ChaseCheckpoint cp;
  std::istringstream f;
  TWCHASE_RETURN_IF_ERROR(next_line(kMagic, &f));
  if (!(f >> cp.version)) return Malformed("header");
  if (cp.version != 1) {
    return Status::InvalidArgument("checkpoint: unsupported version " +
                                   std::to_string(cp.version));
  }

  TWCHASE_RETURN_IF_ERROR(next_line("variant", &f));
  std::string name;
  if (!(f >> name)) return Malformed("variant");
  auto variant = VariantFromName(name);
  TWCHASE_RETURN_IF_ERROR(variant.status());
  cp.variant = variant.value();

  TWCHASE_RETURN_IF_ERROR(next_line("schedule", &f));
  if (!(f >> cp.datalog_first >> cp.delta_enabled >> cp.core_every >>
        cp.core_at_round_end >> cp.core_initial)) {
    return Malformed("schedule");
  }

  TWCHASE_RETURN_IF_ERROR(next_line("program", &f));
  if (!(f >> cp.program_fingerprint)) return Malformed("program");

  TWCHASE_RETURN_IF_ERROR(next_line("stop", &f));
  if (!(f >> name)) return Malformed("stop");
  auto reason = StopReasonFromName(name);
  TWCHASE_RETURN_IF_ERROR(reason.status());
  cp.stop_reason = reason.value();

  TWCHASE_RETURN_IF_ERROR(next_line("progress", &f));
  if (!(f >> cp.steps >> cp.rounds)) return Malformed("progress");

  TWCHASE_RETURN_IF_ERROR(next_line("instance", &f));
  if (!(f >> cp.instance_size >> cp.instance_hash)) return Malformed("instance");

  TWCHASE_RETURN_IF_ERROR(next_line("variables", &f));
  if (!(f >> cp.log.initial_num_variables >> cp.expected_variables)) {
    return Malformed("variables");
  }
  cp.log.committed_num_variables = cp.expected_variables;

  TWCHASE_RETURN_IF_ERROR(next_line("initial", &f));
  if (!(f >> cp.log.have_initial >> cp.log.initial_folds) ||
      !ReadSigma(f, &cp.log.initial_sigma)) {
    return Malformed("initial");
  }

  TWCHASE_RETURN_IF_ERROR(next_line("steps", &f));
  size_t step_count = 0;
  if (!(f >> step_count)) return Malformed("steps");
  // Guard against absurd counts (corrupted/hostile input) before reserving.
  if (step_count > text.size()) return Malformed("steps count");
  cp.log.steps.reserve(step_count);
  for (size_t i = 0; i < step_count; ++i) {
    TWCHASE_RETURN_IF_ERROR(next_line("step", &f));
    ResumeLog::StepRecord step;
    if (!(f >> step.cored >> step.folds) || !ReadSigma(f, &step.sigma)) {
      return Malformed("step record");
    }
    size_t fold_count = 0;
    if (!(f >> fold_count) || fold_count > text.size()) {
      return Malformed("step record");
    }
    step.fold_sigmas.reserve(fold_count);
    for (size_t k = 0; k < fold_count; ++k) {
      Substitution fold;
      if (!ReadSigma(f, &fold)) return Malformed("step fold");
      step.fold_sigmas.push_back(std::move(fold));
    }
    cp.log.steps.push_back(std::move(step));
  }

  TWCHASE_RETURN_IF_ERROR(next_line("rounds", &f));
  size_t round_count = 0;
  if (!(f >> round_count) || round_count > text.size()) {
    return Malformed("rounds");
  }
  cp.log.rounds.reserve(round_count);
  for (size_t i = 0; i < round_count; ++i) {
    TWCHASE_RETURN_IF_ERROR(next_line("round", &f));
    ResumeLog::RoundRecord round;
    size_t bit_count = 0;
    std::string bits;
    if (!(f >> bit_count >> bits) || bit_count > text.size()) {
      return Malformed("round record");
    }
    if (bit_count == 0) {
      if (bits != "-") return Malformed("round bits");
    } else {
      if (bits.size() != bit_count) return Malformed("round bits");
      round.decisions.reserve(bit_count);
      for (char c : bits) {
        if (c != '0' && c != '1') return Malformed("round bits");
        round.decisions.push_back(c == '1' ? 1 : 0);
      }
    }
    size_t round_end_flag = 0;
    size_t round_end_folds = 0;
    size_t round_end_sigma_size = 0;
    if (!(f >> round_end_flag >> round_end_folds >> round_end_sigma_size)) {
      return Malformed("round record");
    }
    if (round_end_flag != 0 || round_end_folds != 0 ||
        round_end_sigma_size != 0) {
      return Status::InvalidArgument(
          "checkpoint: round " + std::to_string(i + 1) + " at byte " +
          std::to_string(line_start) +
          " records a round-end coring, which is no longer supported");
    }
    cp.log.rounds.push_back(std::move(round));
  }

  TWCHASE_RETURN_IF_ERROR(next_line("end", &f));
  if (pos != text.size()) {
    return Status::InvalidArgument(
        "checkpoint: trailing garbage after 'end' at byte " +
        std::to_string(pos));
  }
  return cp;
}

std::string SerializeCheckpointSealed(const ChaseCheckpoint& cp) {
  std::string body = SerializeCheckpoint(cp);
  char footer[64];
  std::snprintf(footer, sizeof footer, "checksum 1 %zu %08x\n", body.size(),
                Crc32(body));
  return body + footer;
}

StatusOr<ChaseCheckpoint> ParseSealedCheckpoint(const std::string& text) {
  if (text.empty() || text.back() != '\n') {
    return Status::InvalidArgument(
        "sealed checkpoint: truncated (missing final newline) at byte " +
        std::to_string(text.size()));
  }
  // The footer is the last line; everything before it is the body.
  size_t body_end = text.rfind('\n', text.size() - 2);
  size_t footer_start = body_end == std::string::npos ? 0 : body_end + 1;
  std::istringstream f(text.substr(footer_start));
  std::string tag;
  uint32_t footer_version = 0;
  size_t body_size = 0;
  std::string crc_hex;
  std::string extra;
  if (!(f >> tag >> footer_version >> body_size >> crc_hex) ||
      tag != "checksum" || (f >> extra)) {
    return Status::InvalidArgument(
        "sealed checkpoint: malformed checksum footer at byte " +
        std::to_string(footer_start));
  }
  if (footer_version != 1) {
    return Status::InvalidArgument(
        "sealed checkpoint: unsupported footer version " +
        std::to_string(footer_version));
  }
  if (body_size != footer_start) {
    return Status::InvalidArgument(
        "sealed checkpoint: length mismatch (footer says " +
        std::to_string(body_size) + " bytes, body has " +
        std::to_string(footer_start) + ")");
  }
  std::string body = text.substr(0, footer_start);
  char want[16];
  std::snprintf(want, sizeof want, "%08x", Crc32(body));
  if (crc_hex != want) {
    return Status::InvalidArgument(
        "sealed checkpoint: checksum mismatch (footer " + crc_hex +
        ", body " + want + ")");
  }
  return ParseCheckpoint(body);
}

// Compatibility wrapper: the validation surface and the replay live in
// ChaseSession::Resume (core/session.h) since the session redesign; this
// keeps the historical one-shot signature and error order.
StatusOr<ChaseResult> ResumeChase(const KnowledgeBase& kb,
                                  const ChaseOptions& options,
                                  const ChaseCheckpoint& checkpoint) {
  auto session = ChaseSession::Create(kb, options);
  if (!session.ok()) return session.status();
  TWCHASE_RETURN_IF_ERROR((*session)->Resume(checkpoint));
  return (*session)->TakeResult();
}

}  // namespace twchase
