#include "analysis/preflight.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <vector>

#include "core/measures.h"
#include "obs/stock_observers.h"
#include "parser/parser.h"
#include "parser/printer.h"
#include "util/logging.h"

namespace twchase {
namespace {

// Budgets of the critical-instance chases (tier 2).
constexpr size_t kCriticalMaxSteps = 400;
constexpr size_t kCriticalMaxInstance = 4000;

// Budgets of the dynamic core-chase probe (tier 3).
constexpr size_t kProbeMaxSteps = 160;
constexpr size_t kProbeMaxInstance = 4000;

// Wall-clock ceiling, in milliseconds, of each dynamic run (on top of any
// ambient governor).
constexpr uint64_t kDynamicDeadlineMs = 2000;

// Treewidth-series tail window of the core-bts probe (see
// SummarizeBoundedness).
constexpr size_t kTwTailWindow = 8;

// A dynamic-tier run that stopped for one of these reasons was cut short by
// wall clock, memory pressure or cancellation (ambient or our own): the run
// is inconclusive, never negative evidence. Step and instance-size budgets
// are the *designed* divergence detectors and are not interruptions.
bool IsInterruption(StopReason reason) {
  return reason == StopReason::kDeadline ||
         reason == StopReason::kMemoryBudget ||
         reason == StopReason::kCancelled;
}

// The dynamic tiers chase a private copy of the program so no fresh nulls
// are ever minted in the caller's vocabulary. The copy goes through the
// public printer and parser (the round-trip the property tests pin); a
// program that does not survive the round trip skips the dynamic tiers and
// is classified on static evidence alone.
std::optional<KnowledgeBase> MakeSandbox(const KnowledgeBase& kb) {
  const std::string text = PrintProgram(kb, {});
  StatusOr<ParsedProgram> parsed = ParseProgram(text);
  if (!parsed.ok()) return std::nullopt;
  KnowledgeBase copy = std::move(parsed.value().kb);
  if (copy.rules.size() != kb.rules.size() ||
      copy.facts.size() != kb.facts.size()) {
    return std::nullopt;
  }
  return copy;
}

// Marnette's critical instance: every predicate filled with every tuple
// over the constants occurring in the rules plus one fresh "star"
// constant. Every instance maps homomorphically into it (constants of the
// program to themselves, everything else to star), so chase termination on
// the critical instance implies termination on every instance.
//
// Returns the number of atoms the instance would need; fills *facts only
// when that count is within `cap`.
size_t BuildCriticalInstance(const KnowledgeBase& kb, size_t cap,
                             AtomSet* facts) {
  std::set<Term> constants;
  constants.insert(kb.vocab->Constant("critical_star"));
  for (const Rule& rule : kb.rules) {
    rule.body_and_head().ForEach([&](const Atom& atom) {
      for (Term t : atom.args()) {
        if (t.is_constant()) constants.insert(t);
      }
    });
  }
  const std::vector<Term> pool(constants.begin(), constants.end());

  size_t total = 0;
  for (PredicateId p = 0; p < kb.vocab->num_predicates(); ++p) {
    const uint32_t arity = kb.vocab->predicate(p).arity;
    size_t tuples = 1;
    for (uint32_t i = 0; i < arity; ++i) {
      if (tuples > cap) break;
      tuples *= pool.size();
    }
    total += tuples;
    if (total > cap) return total;
  }

  for (PredicateId p = 0; p < kb.vocab->num_predicates(); ++p) {
    const uint32_t arity = kb.vocab->predicate(p).arity;
    std::vector<size_t> idx(arity, 0);
    while (true) {
      std::vector<Term> args(arity);
      for (uint32_t i = 0; i < arity; ++i) args[i] = pool[idx[i]];
      facts->Insert(Atom(p, std::move(args)));
      uint32_t pos = 0;
      for (; pos < arity; ++pos) {
        if (++idx[pos] < pool.size()) break;
        idx[pos] = 0;
      }
      if (pos == arity) break;
    }
  }
  return total;
}

struct DynamicRun {
  bool ok = false;
  bool terminated = false;
  bool interrupted = false;
  size_t steps = 0;
  ChaseResult result;
};

// Whatever a dynamic run must measure per step, `observer` measures live.
DynamicRun RunBudgeted(const KnowledgeBase& kb, ChaseVariant variant,
                       size_t max_steps, size_t max_instance,
                       ChaseObserver* observer = nullptr) {
  ChaseOptions options;
  options.variant = variant;
  options.limits.max_steps = max_steps;
  options.limits.max_instance_size = max_instance;
  options.limits.deadline_ms = kDynamicDeadlineMs;
  options.observer = observer;
  DynamicRun run;
  StatusOr<ChaseResult> result = RunChase(kb, options);
  if (!result.ok()) return run;
  run.ok = true;
  run.result = std::move(result.value());
  run.terminated = run.result.stop_reason == StopReason::kFixpoint;
  run.interrupted = IsInterruption(run.result.stop_reason);
  run.steps = run.result.steps;
  return run;
}

// Did the treewidth series stop growing? Compares the max over the second
// half of the prefix against the max over the first: a series whose later
// half never exceeds its earlier half is (empirically) recurringly bounded
// — the staircase's constant-2 series qualifies, the elevator's growing
// cores do not. Too-short prefixes are inconclusive.
bool SeriesStoppedGrowing(const std::vector<int>& series, size_t tail_window) {
  if (series.size() < 2 * tail_window) return false;
  const size_t mid = series.size() / 2;
  const int first_max = *std::max_element(series.begin(), series.begin() + mid);
  const int second_max = *std::max_element(series.begin() + mid, series.end());
  return second_max <= first_max;
}

size_t SuggestedSteps(const KnowledgeBase& kb) {
  const size_t raw = 200 * (kb.rules.size() + 1) + 20 * kb.facts.size();
  return std::min<size_t>(100000, std::max<size_t>(1000, raw));
}

}  // namespace

const char* TerminationClassName(TerminationClass c) {
  switch (c) {
    case TerminationClass::kUnknown:
      return "unknown";
    case TerminationClass::kFes:
      return "fes";
    case TerminationClass::kBts:
      return "bts";
    case TerminationClass::kCoreBts:
      return "core-bts";
  }
  return "unknown";
}

std::string PreflightReport::Summary() const {
  std::ostringstream out;
  out << TerminationClassName(verdict);
  switch (verdict) {
    case TerminationClass::kFes:
      if (rules.datalog) {
        out << " (datalog)";
      } else if (rules.weakly_acyclic) {
        out << " (weakly acyclic)";
      } else if (rules.jointly_acyclic) {
        out << " (jointly acyclic)";
      } else if (fes_evidence == FesEvidence::kCriticalInstance) {
        out << " (critical instance terminates)";
      } else if (fes_evidence == FesEvidence::kCoreRun) {
        out << " (core chase reached fixpoint on this instance)";
      }
      break;
    case TerminationClass::kBts:
      if (rules.guarded) {
        out << " (guarded)";
      } else if (rules.frontier_guarded) {
        out << " (frontier-guarded)";
      }
      break;
    case TerminationClass::kCoreBts:
      out << " (core-chase treewidth stopped growing at "
          << probe_tw_recurring << ", empirical)";
      break;
    case TerminationClass::kUnknown:
      if (critical_interrupted || probe_interrupted) {
        out << " (classification interrupted)";
      } else {
        out << " (no termination evidence within budget)";
      }
      break;
  }
  out << "; variant=" << ChaseVariantName(recommended_variant);
  if (suggested_max_steps != 0) {
    out << "; suggest --max-steps=" << suggested_max_steps
        << " --memory-budget-mb="
        << (suggested_memory_budget_bytes >> 20);
  }
  return out.str();
}

PreflightReport RunPreflight(const KnowledgeBase& kb,
                             const PreflightOptions& /*options*/) {
  PreflightReport report;
  report.rules = AnalyzeRuleset(kb.rules);

  // Tier 1: static evidence.
  if (report.rules.datalog || report.rules.weakly_acyclic) {
    report.fes_evidence = FesEvidence::kStaticAllVariants;
  } else if (report.rules.jointly_acyclic) {
    report.fes_evidence = FesEvidence::kStaticSkolem;
  }

  // Tier 2: the MSA-style critical-instance check, only when statics left
  // termination open.
  if (report.fes_evidence == FesEvidence::kNone) {
    std::optional<KnowledgeBase> sandbox = MakeSandbox(kb);
    if (sandbox.has_value()) {
      AtomSet critical_facts;
      const size_t atoms = BuildCriticalInstance(
          *sandbox, kCriticalMaxInstance, &critical_facts);
      report.critical_instance_atoms = atoms;
      if (atoms > kCriticalMaxInstance) {
        report.critical_skipped_too_large = true;
      } else {
        KnowledgeBase crit{sandbox->vocab, std::move(critical_facts),
                           sandbox->rules};
        DynamicRun semi = RunBudgeted(
            crit, ChaseVariant::kSemiOblivious, kCriticalMaxSteps,
            kCriticalMaxInstance * 4);
        report.critical_ran = semi.ok;
        report.critical_terminated = semi.terminated;
        report.critical_interrupted = semi.interrupted;
        report.critical_steps = semi.steps;
        if (semi.terminated) {
          report.fes_evidence = FesEvidence::kCriticalInstance;
          std::optional<KnowledgeBase> sandbox2 = MakeSandbox(kb);
          if (sandbox2.has_value()) {
            AtomSet crit2_facts;
            BuildCriticalInstance(*sandbox2, kCriticalMaxInstance,
                                  &crit2_facts);
            KnowledgeBase crit2{sandbox2->vocab, std::move(crit2_facts),
                                sandbox2->rules};
            DynamicRun obl = RunBudgeted(
                crit2, ChaseVariant::kOblivious, kCriticalMaxSteps,
                kCriticalMaxInstance * 4);
            report.critical_oblivious_terminated = obl.terminated;
          }
        }
      }
    }
  }

  // Tier 3: budgeted core-chase probe on the actual instance — fixpoint
  // certifies fes for this knowledge base; a non-terminating prefix feeds
  // the core-bts treewidth test.
  if (report.fes_evidence == FesEvidence::kNone) {
    std::optional<KnowledgeBase> sandbox = MakeSandbox(kb);
    if (sandbox.has_value()) {
      MeasuresObserver treewidth(Measure::kTreewidthUpper);
      DynamicRun probe = RunBudgeted(
          *sandbox, ChaseVariant::kCore, kProbeMaxSteps, kProbeMaxInstance,
          &treewidth);
      report.probe_ran = probe.ok;
      report.probe_core_terminated = probe.terminated;
      report.probe_interrupted = probe.interrupted;
      report.probe_core_steps = probe.steps;
      if (probe.terminated) {
        report.fes_evidence = FesEvidence::kCoreRun;
        report.empirical = true;
      } else if (probe.ok && !probe.interrupted) {
        const std::vector<int>& series = treewidth.series();
        const BoundednessSummary tw =
            SummarizeBoundedness(series, kTwTailWindow);
        report.probe_tw_uniform = tw.uniform_bound;
        report.probe_tw_recurring = tw.recurring_estimate;
        report.probe_tw_bounded =
            SeriesStoppedGrowing(series, kTwTailWindow);
      }
    }
  }

  // Assemble the verdict, best class first.
  if (report.fes_evidence != FesEvidence::kNone) {
    report.verdict = TerminationClass::kFes;
  } else if (report.rules.ImpliesTreewidthBounded()) {
    report.verdict = TerminationClass::kBts;
  } else if (report.probe_tw_bounded) {
    report.verdict = TerminationClass::kCoreBts;
    report.empirical = true;
  } else {
    report.verdict = TerminationClass::kUnknown;
  }

  // The auto-variant policy: the cheapest variant the evidence covers.
  switch (report.verdict) {
    case TerminationClass::kFes:
      if (report.fes_evidence == FesEvidence::kCoreRun) {
        // Only the core chase is certified to terminate here.
        report.recommended_variant = ChaseVariant::kCore;
      } else if (report.rules.datalog) {
        report.recommended_variant = ChaseVariant::kRestricted;
      } else {
        // Weak/joint acyclicity and the critical-instance check certify
        // the skolem chase: apply-once-per-frontier without satisfaction
        // checks is the cheapest covered variant.
        report.recommended_variant = ChaseVariant::kSemiOblivious;
      }
      break;
    case TerminationClass::kBts:
      // Treewidth-bounded but possibly non-terminating: the restricted
      // chase keeps elements small and needs budgets.
      report.recommended_variant = ChaseVariant::kRestricted;
      break;
    case TerminationClass::kCoreBts:
    case TerminationClass::kUnknown:
      // The core chase terminates whenever any finite universal model
      // exists (Deutsch–Nash–Remmel): the best shot at termination, under
      // suggested budgets.
      report.recommended_variant = ChaseVariant::kCore;
      break;
  }
  if (report.verdict != TerminationClass::kFes) {
    report.suggested_max_steps = SuggestedSteps(kb);
    report.suggested_memory_budget_bytes = 256ull << 20;
  }
  return report;
}

StatusOr<PreflightReport> ResolveAutoVariant(const KnowledgeBase& kb,
                                             const PreflightOptions& popts,
                                             ChaseOptions* options) {
  if (!options->preflight.auto_variant) {
    return Status::InvalidArgument(
        "ResolveAutoVariant: options do not request --variant=auto");
  }
  PreflightReport report = RunPreflight(kb, popts);
  options->variant = report.recommended_variant;
  options->preflight.verdict = static_cast<uint32_t>(report.verdict);
  options->preflight.resolved = true;
  return report;
}

}  // namespace twchase
