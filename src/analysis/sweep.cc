#include "analysis/sweep.h"

#include <optional>
#include <sstream>

#include "obs/stock_observers.h"
#include "parser/parser.h"
#include "parser/printer.h"

namespace twchase {
namespace {

const ChaseVariant kAllVariants[] = {
    ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
    ChaseVariant::kRestricted, ChaseVariant::kFrugal, ChaseVariant::kCore};

struct RunOutput {
  bool ok = false;
  std::string error;
  ChaseResult result;
  std::string events;
};

RunOutput RunConfig(const std::string& text, ChaseVariant variant, bool plan,
                    size_t max_steps) {
  RunOutput out;
  StatusOr<ParsedProgram> parsed = ParseProgram(text);
  if (!parsed.ok()) {
    out.error = "parse: " + parsed.status().ToString();
    return out;
  }
  std::ostringstream events;
  EventLogObserver log(&events);
  ChaseOptions options;
  options.variant = variant;
  options.limits.max_steps = max_steps;
  options.plan.enabled = plan;
  options.observer = &log;
  StatusOr<ChaseResult> run = RunChase(parsed.value().kb, options);
  if (!run.ok()) {
    out.error = "chase: " + run.status().ToString();
    return out;
  }
  out.ok = true;
  out.result = std::move(run).value();
  out.events = events.str();
  return out;
}

// First differing field between two runs of the same (program, variant), or
// nullopt when bit-identical.
std::optional<std::string> FirstDifference(const RunOutput& ref,
                                           const RunOutput& alt) {
  if (!ref.ok || !alt.ok) {
    return "run error: ref=" + (ref.ok ? "ok" : ref.error) +
           " alt=" + (alt.ok ? "ok" : alt.error);
  }
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
  for (size_t i = 0; i < rd.size(); ++i) {
    const DerivationStep& r = rd.step(i);
    const DerivationStep& a = ad.step(i);
    if (r.rule_index != a.rule_index || r.rule_label != a.rule_label ||
        r.match != a.match || r.simplification != a.simplification ||
        r.added_atoms != a.added_atoms || r.instance_size != a.instance_size ||
        r.instance.ContentHash() != a.instance.ContentHash()) {
      return "journal step " + std::to_string(i);
    }
  }
  if (ref.events != alt.events) return "event stream";
  return std::nullopt;
}

// Does the unplanned run still diverge from the planned one on this text?
std::optional<std::string> Diverges(const std::string& text,
                                    ChaseVariant variant, size_t max_steps) {
  RunOutput ref = RunConfig(text, variant, /*plan=*/true, max_steps);
  RunOutput alt = RunConfig(text, variant, /*plan=*/false, max_steps);
  return FirstDifference(ref, alt);
}

// Greedy delta-minimization: drop rules, then facts, one at a time, keeping
// each removal that preserves the divergence. Bounded by `budget` trial
// pairs of runs.
std::string Minimize(const std::string& text, ChaseVariant variant,
                     size_t max_steps) {
  StatusOr<ParsedProgram> parsed = ParseProgram(text);
  if (!parsed.ok()) return text;
  KnowledgeBase kb = std::move(parsed.value().kb);
  size_t budget = 200;

  const auto print = [](const KnowledgeBase& k) { return PrintProgram(k, {}); };

  bool changed = true;
  while (changed && budget > 0) {
    changed = false;
    for (size_t i = 0; i < kb.rules.size() && budget > 0; ++i) {
      KnowledgeBase trial{kb.vocab, kb.facts, {}};
      for (size_t j = 0; j < kb.rules.size(); ++j) {
        if (j != i) trial.rules.push_back(kb.rules[j]);
      }
      --budget;
      if (Diverges(print(trial), variant, max_steps).has_value()) {
        kb.rules = std::move(trial.rules);
        changed = true;
        break;
      }
    }
  }
  std::vector<Atom> facts = kb.facts.Atoms();
  changed = true;
  while (changed && budget > 0) {
    changed = false;
    for (size_t i = 0; i < facts.size() && budget > 0; ++i) {
      KnowledgeBase trial{kb.vocab, {}, kb.rules};
      for (size_t j = 0; j < facts.size(); ++j) {
        if (j != i) trial.facts.Insert(facts[j]);
      }
      --budget;
      if (Diverges(print(trial), variant, max_steps).has_value()) {
        facts.erase(facts.begin() + static_cast<ptrdiff_t>(i));
        changed = true;
        break;
      }
    }
  }
  KnowledgeBase final_kb{kb.vocab, {}, kb.rules};
  for (const Atom& a : facts) final_kb.facts.Insert(a);
  return print(final_kb);
}

}  // namespace

SweepReport RunDifferentialSweep(const std::vector<std::string>& programs,
                                 const SweepOptions& options) {
  SweepReport report;
  std::vector<ChaseVariant> variants = options.variants;
  if (variants.empty()) {
    variants.assign(std::begin(kAllVariants), std::end(kAllVariants));
  }

  for (const std::string& text : programs) {
    ++report.programs;
    for (ChaseVariant variant : variants) {
      RunOutput ref = RunConfig(text, variant, /*plan=*/true,
                                options.max_steps);
      RunOutput alt = RunConfig(text, variant, /*plan=*/false,
                                options.max_steps);
      report.runs += 2;
      std::optional<std::string> diff = FirstDifference(ref, alt);
      if (!diff.has_value()) continue;
      SweepDivergence divergence;
      divergence.program = text;
      divergence.variant = variant;
      divergence.config = "plan=off";
      divergence.detail = *diff;
      divergence.minimized =
          options.minimize ? Minimize(text, variant, options.max_steps) : text;
      report.divergences.push_back(std::move(divergence));
    }
  }
  return report;
}

}  // namespace twchase
