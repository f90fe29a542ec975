#include "analysis/sweep.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <sstream>

#include "core/checkpoint.h"
#include "hom/core.h"
#include "hom/isomorphism.h"
#include "obs/stock_observers.h"
#include "parser/parser.h"
#include "parser/printer.h"
#include "util/fault.h"
#include "util/random.h"

namespace twchase {
namespace {

const ChaseVariant kAllVariants[] = {
    ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
    ChaseVariant::kRestricted, ChaseVariant::kFrugal, ChaseVariant::kCore};

// A check that failed on the runs of `variants` (one variant, or the pair a
// cross-variant check compared).
struct Failure {
  std::vector<ChaseVariant> variants;
  std::string check;
  std::string detail;
};

struct RunOutput {
  std::string error;  // empty when the run completed
  KnowledgeBase kb;
  ChaseResult result;
  std::string events;
  uint64_t trigger_boundaries = 0;

  bool ok() const { return error.empty(); }
};

ChaseOptions OptionsFor(ChaseVariant variant, size_t max_steps) {
  ChaseOptions options;
  options.variant = variant;
  options.limits.max_steps = max_steps;
  options.resume.record_log = true;
  return options;
}

// One run of `text` under `base` (from OptionsFor): fresh parse, event log
// attached and the trigger-boundary visits counted. A nonzero `stop_at`
// cancels the run at that trigger boundary; with `checkpoint` it resumes.
RunOutput Run(const std::string& text, const ChaseOptions& base,
              uint64_t stop_at = 0,
              const ChaseCheckpoint* checkpoint = nullptr) {
  RunOutput out;
  StatusOr<ParsedProgram> parsed = ParseProgram(text);
  if (!parsed.ok()) {
    out.error = "parse: " + parsed.status().ToString();
    return out;
  }
  out.kb = std::move(parsed.value().kb);
  std::ostringstream events;
  EventLogObserver log(&events);
  ChaseOptions options = base;
  options.observer = &log;
  FaultInjector injector;
  if (stop_at != 0) {
    injector.Arm(FaultSite::kTriggerBoundary, stop_at, FaultAction::kCancel);
  }
  FaultInjectorScope scope(&injector);
  StatusOr<ChaseResult> run =
      checkpoint != nullptr ? ResumeChase(out.kb, options, *checkpoint)
                            : RunChase(out.kb, options);
  if (!run.ok()) {
    out.error = "chase: " + run.status().ToString();
    return out;
  }
  out.result = std::move(run).value();
  out.events = events.str();
  out.trigger_boundaries = injector.visits(FaultSite::kTriggerBoundary);
  return out;
}

// First differing field between two runs of the same (program, variant), or
// nullopt when bit-identical.
std::optional<std::string> FirstDifference(const RunOutput& ref,
                                           const RunOutput& alt) {
  if (ref.result.stop_reason != alt.result.stop_reason) {
    return std::string("stop reason: ") +
           StopReasonName(ref.result.stop_reason) + " vs " +
           StopReasonName(alt.result.stop_reason);
  }
  if (ref.result.steps != alt.result.steps) return "step count";
  if (ref.result.rounds != alt.result.rounds) return "round count";
  const Derivation& rd = ref.result.derivation;
  const Derivation& ad = alt.result.derivation;
  if (rd.Last().ContentHash() != ad.Last().ContentHash()) {
    return "final instance hash";
  }
  if (rd.size() != ad.size()) return "journal length";
  DerivationCursor rc(rd), ac(ad);
  for (; !rc.done(); rc.Next(), ac.Next()) {
    const DerivationStep& r = rc.step();
    const DerivationStep& a = ac.step();
    if (r.rule_index != a.rule_index || r.rule_label != a.rule_label ||
        r.match != a.match || r.simplification != a.simplification ||
        r.added_atoms != a.added_atoms || r.instance_size != a.instance_size ||
        rc.instance().ContentHash() != ac.instance().ContentHash()) {
      return "journal step " + std::to_string(rc.index());
    }
  }
  if (ref.events != alt.events) return "event stream";
  return std::nullopt;
}

// The journal rebuilds the run: walking F_0 .. F_n from F_0 and the
// recorded steps gives every recorded |F_i| and lands on Last().
std::optional<std::string> CheckJournal(const Derivation& d) {
  for (DerivationCursor c(d); !c.done(); c.Next()) {
    const bool last = c.index() + 1 == d.size();
    if (c.instance().size() != c.step().instance_size ||
        (last && c.instance().ContentHash() != d.Last().ContentHash())) {
      return "F_" + std::to_string(c.index()) +
             " rebuilt from the journal differs from the live run";
    }
  }
  return std::nullopt;
}

bool Terminated(const RunOutput& run) {
  return run.ok() && run.result.stop_reason == StopReason::kFixpoint;
}

// Stops `ref`'s run at the trigger boundary `boundary_seed` picks among the
// ones it crossed, checkpoints it through the text format and resumes it
// from a fresh parse; the result must be `ref` bit for bit.
std::optional<std::string> CheckResume(const std::string& text,
                                       ChaseVariant variant, size_t max_steps,
                                       const RunOutput& ref,
                                       uint64_t boundary_seed) {
  if (ref.trigger_boundaries == 0) return std::nullopt;
  const uint64_t visit = 1 + boundary_seed % ref.trigger_boundaries;
  const std::string at =
      "stopped at trigger boundary " + std::to_string(visit) + ": ";
  const ChaseOptions options = OptionsFor(variant, max_steps);
  RunOutput stopped = Run(text, options, visit);
  if (!stopped.ok()) return at + stopped.error;
  StatusOr<ChaseCheckpoint> checkpoint = ParseCheckpoint(
      SerializeCheckpoint(MakeCheckpoint(stopped.kb, options, stopped.result)));
  if (!checkpoint.ok()) return at + checkpoint.status().ToString();
  RunOutput resumed = Run(text, options, 0, &checkpoint.value());
  if (!resumed.ok()) return at + resumed.error;
  if (std::optional<std::string> diff = FirstDifference(ref, resumed)) {
    return at + *diff;
  }
  return std::nullopt;
}

// Runs every check on `text` under `variants` (in ChaseVariant order): per
// variant the first of run, journal, resume, model and core that fails, then
// the cross-variant checks. Each checkpoint boundary is drawn from the
// program's fingerprint, so a reproducer replays on its text alone. `runs`
// counts the chase runs made.
std::vector<Failure> CheckProgram(const std::string& text,
                                  const std::vector<ChaseVariant>& variants,
                                  size_t max_steps, size_t* runs) {
  std::vector<Failure> failures;
  std::vector<RunOutput> outputs;
  for (ChaseVariant variant : variants) {
    outputs.push_back(Run(text, OptionsFor(variant, max_steps)));
    const RunOutput& ref = outputs.back();
    ++*runs;
    auto fail = [&](const char* check, std::string detail) {
      failures.push_back(Failure{{variant}, check, std::move(detail)});
    };
    if (!ref.ok()) {
      fail("run", ref.error);
      continue;
    }
    *runs += 2;
    const AtomSet& result = ref.result.derivation.Last();
    const uint64_t boundary_seed =
        Rng(ProgramFingerprint(ref.kb) + static_cast<uint64_t>(variant))
            .engine()();
    if (std::optional<std::string> journal =
            CheckJournal(ref.result.derivation)) {
      fail("journal", *journal);
    } else if (auto diff = CheckResume(text, variant, max_steps, ref,
                                       boundary_seed)) {
      fail("resume", *diff);
    } else if (Terminated(ref) && variant != ChaseVariant::kOblivious &&
               variant != ChaseVariant::kSemiOblivious &&
               !ref.kb.IsModel(result)) {
      fail("model", "the terminated result leaves a trigger unsatisfied");
    } else if (variant == ChaseVariant::kCore && !IsCore(result)) {
      fail("core", "the result after " + std::to_string(ref.result.steps) +
                       " steps is not a core");
    }
  }
  for (size_t a = 0; a < variants.size(); ++a) {
    for (size_t b = a + 1; b < variants.size(); ++b) {
      if (!Terminated(outputs[a]) || !Terminated(outputs[b])) continue;
      const AtomSet& ra = outputs[a].result.derivation.Last();
      const AtomSet& rb = outputs[b].result.derivation.Last();
      const std::string pair = std::string(ChaseVariantName(variants[a])) +
                               " vs " + ChaseVariantName(variants[b]) + ": ";
      if (!AreHomEquivalent(ra, rb)) {
        failures.push_back(
            Failure{{variants[a], variants[b]},
                    "hom-equivalence",
                    pair + "results are not homomorphically equivalent"});
      } else if (variants[a] == ChaseVariant::kRestricted &&
                 variants[b] == ChaseVariant::kCore &&
                 !AreIsomorphic(rb, ComputeCore(ra).core)) {
        failures.push_back(
            Failure{{variants[a], variants[b]},
                    "core-isomorphism",
                    pair + "the core result is not the restricted core"});
      }
    }
  }
  return failures;
}

// Greedy delta-minimization: drop rules, then facts, one at a time, keeping
// each removal on which `fails` still holds. Bounded by `budget` trials.
std::string Minimize(const std::string& text,
                     const std::function<bool(const std::string&)>& fails) {
  StatusOr<ParsedProgram> parsed = ParseProgram(text);
  if (!parsed.ok()) return text;
  KnowledgeBase kb = std::move(parsed.value().kb);
  std::vector<Atom> facts = kb.facts.Atoms();
  constexpr size_t kKeep = static_cast<size_t>(-1);
  auto print = [&](size_t skip_rule, size_t skip_fact) {
    KnowledgeBase trial{kb.vocab, {}, {}};
    for (size_t j = 0; j < kb.rules.size(); ++j) {
      if (j != skip_rule) trial.rules.push_back(kb.rules[j]);
    }
    for (size_t j = 0; j < facts.size(); ++j) {
      if (j != skip_fact) trial.facts.Insert(facts[j]);
    }
    return PrintProgram(trial, {});
  };
  size_t budget = 200;
  auto shrink = [&](auto* items, bool rules) {
    for (bool changed = true; changed && budget > 0;) {
      changed = false;
      for (size_t i = 0; i < items->size() && budget > 0; ++i) {
        --budget;
        if (fails(rules ? print(i, kKeep) : print(kKeep, i))) {
          items->erase(items->begin() + static_cast<ptrdiff_t>(i));
          changed = true;
          break;
        }
      }
    }
  };
  shrink(&kb.rules, /*rules=*/true);
  shrink(&facts, /*rules=*/false);
  return print(kKeep, kKeep);
}

}  // namespace

SweepReport RunDifferentialSweep(const std::vector<std::string>& programs,
                                 const SweepOptions& options) {
  SweepReport report;
  std::vector<ChaseVariant> variants = options.variants;
  if (variants.empty()) {
    variants.assign(std::begin(kAllVariants), std::end(kAllVariants));
  }
  std::sort(variants.begin(), variants.end());
  // One reproducer per (check, variant): minimizing is up to 200 trials,
  // and a broken invariant fails on most programs.
  std::set<std::pair<std::string, ChaseVariant>> minimized;
  for (const std::string& text : programs) {
    ++report.programs;
    for (Failure& failure :
         CheckProgram(text, variants, options.max_steps, &report.runs)) {
      // A reproducer must still fail the same check on the same variants.
      auto fails = [&](const std::string& trial) {
        size_t ignored = 0;
        for (const Failure& again :
             CheckProgram(trial, failure.variants, options.max_steps,
                          &ignored)) {
          if (again.check == failure.check) return true;
        }
        return false;
      };
      SweepDivergence divergence;
      divergence.program = text;
      const bool first =
          minimized.emplace(failure.check, failure.variants.back()).second;
      divergence.minimized =
          options.minimize && first ? Minimize(text, fails) : text;
      divergence.variant = failure.variants.back();
      divergence.config = std::move(failure.check);
      divergence.detail = std::move(failure.detail);
      report.divergences.push_back(std::move(divergence));
    }
  }
  return report;
}

}  // namespace twchase
