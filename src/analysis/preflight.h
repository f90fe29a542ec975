// Termination-analysis preflight: classify a parsed program into the
// paper's termination/treewidth classes and drive automatic variant policy.
//
// The classifier is a lattice of evidence sources, cheapest first:
//   1. static (pure syntax, kb/analysis.h): datalog / weak acyclicity /
//      joint acyclicity ⇒ fes; (frontier-)guardedness / linearity ⇒ bts;
//   2. MSA-style critical-instance check (Marnette): chase the critical
//      instance (the all-star tuples over the program's constants plus a
//      fresh star constant) semi-obliviously under the ResourceGovernor —
//      termination there implies semi-oblivious (hence restricted, frugal
//      and core) chase termination on EVERY instance ⇒ fes;
//   3. dynamic probe on the actual instance: a budgeted core-chase run —
//      fixpoint certifies a finite universal model for THIS knowledge base
//      (Deutsch–Nash–Remmel) ⇒ fes; a non-terminating prefix whose
//      treewidth series stops growing is (budgeted, empirical) core-bts
//      evidence in the sense of Definition 17.
//
// Soundness contract: a kFes verdict always carries the evidence tier that
// produced it (FesEvidence), because the tiers guarantee termination for
// different variant sets — static weak acyclicity / datalog covers all five
// variants, joint acyclicity and the critical-instance check cover the
// skolem-and-up variants (semi-oblivious, restricted, frugal, core), and a
// core-run certificate covers the core chase only. The auto-variant policy
// only ever picks a variant the evidence covers. Budget exhaustion or an
// ambient governor interruption of the dynamic tiers degrades the verdict
// toward kUnknown — an interrupted check is never treated as evidence.
#ifndef TWCHASE_ANALYSIS_PREFLIGHT_H_
#define TWCHASE_ANALYSIS_PREFLIGHT_H_

#include <cstdint>
#include <optional>
#include <string>

#include "core/chase.h"
#include "kb/analysis.h"
#include "kb/knowledge_base.h"
#include "util/status.h"

namespace twchase {

/// The classifier's verdict lattice (numeric values are stable: they are
/// folded into checkpoint fingerprints and surfaced on the wire).
enum class TerminationClass : uint32_t {
  kUnknown = 0,  // no evidence within budget (includes non-terminating)
  kFes = 1,      // finite expansion: some chase variant provably terminates
  kBts = 2,      // treewidth-bounded chase (termination NOT implied)
  kCoreBts = 3,  // recurringly tw-bounded core chase (empirical evidence)
};

const char* TerminationClassName(TerminationClass c);

/// Which tier produced a kFes verdict; decides the variants the verdict is
/// allowed to recommend (see the soundness contract above).
enum class FesEvidence : uint32_t {
  kNone = 0,
  kStaticAllVariants = 1,  // datalog or weakly acyclic: all five variants
  kStaticSkolem = 2,       // jointly acyclic: semi-oblivious and up
  kCriticalInstance = 3,   // MSA critical-instance run: semi-oblivious and up
  kCoreRun = 4,            // core chase of this instance terminated: core only
};

struct PreflightOptions {
  /// Run the MSA-style critical-instance check (tier 2). Skipped
  /// automatically when the critical instance would exceed
  /// critical_max_instance atoms (high-arity predicates with many
  /// constants).
  bool run_critical_instance = true;

  /// Also chase the critical instance obliviously, to upgrade
  /// critical-instance evidence to the all-variants tier when it holds.
  bool run_critical_oblivious = true;

  /// Run the budgeted core-chase probe on the actual instance (tier 3).
  bool run_dynamic_probe = true;

  /// Budgets for the critical-instance chase.
  size_t critical_max_steps = 400;
  size_t critical_max_instance = 4000;

  /// Budgets for the dynamic core-chase probe.
  size_t probe_max_steps = 160;
  size_t probe_max_instance = 4000;

  /// Wall-clock ceiling for each dynamic run (on top of any ambient
  /// governor). nullopt = no own deadline.
  std::optional<uint64_t> deadline_ms = 2000;

  /// Treewidth-series tail window for the core-bts probe (see
  /// SummarizeBoundedness).
  size_t tw_tail_window = 8;
};

struct PreflightReport {
  /// Tier 1: the static classifier bits (always computed; pure syntax).
  RulesetAnalysis rules;

  /// Tier 2: critical-instance check.
  bool critical_ran = false;
  bool critical_skipped_too_large = false;
  bool critical_terminated = false;  // semi-oblivious chase hit fixpoint
  bool critical_oblivious_terminated = false;
  bool critical_interrupted = false;  // deadline/cancel: inconclusive
  size_t critical_steps = 0;
  size_t critical_instance_atoms = 0;

  /// Tier 3: dynamic probe on the actual instance.
  bool probe_ran = false;
  bool probe_core_terminated = false;
  bool probe_interrupted = false;  // deadline/cancel/memory: inconclusive
  size_t probe_core_steps = 0;
  int probe_tw_uniform = -1;    // max treewidth over the core-chase prefix
  int probe_tw_recurring = -1;  // min over the tail window
  bool probe_tw_bounded = false;  // the series stopped growing on the tail

  TerminationClass verdict = TerminationClass::kUnknown;
  FesEvidence fes_evidence = FesEvidence::kNone;

  /// True when the verdict rests on budgeted runs (core-run fes or the
  /// core-bts probe) rather than a for-all-instances proof.
  bool empirical = false;

  /// The auto-variant policy's pick (always covered by the evidence).
  ChaseVariant recommended_variant = ChaseVariant::kCore;

  /// Suggested budgets for programs without termination evidence (0 /
  /// empty = no suggestion needed: the recommended variant provably
  /// terminates).
  size_t suggested_max_steps = 0;
  size_t suggested_memory_budget_bytes = 0;

  /// One line for the CLI / job payloads, e.g.
  /// "fes (weakly acyclic); variant=semi-oblivious".
  std::string Summary() const;
};

/// Runs the preflight lattice on kb. Never mutates kb (dynamic tiers run on
/// a printed-and-reparsed sandbox copy, so no nulls are minted in
/// kb.vocab). Honours an ambient ResourceGovernor: interrupted tiers are
/// recorded as inconclusive and the verdict degrades toward kUnknown.
PreflightReport RunPreflight(const KnowledgeBase& kb,
                             const PreflightOptions& options = {});

/// Resolves a --variant=auto request: requires options->preflight
/// .auto_variant, runs the preflight, stores the recommended variant and
/// the verdict into *options and marks the provenance resolved (so
/// Validate() accepts it and checkpoints pin the decision). Budgets are
/// only suggested in the returned report, never written into *options.
StatusOr<PreflightReport> ResolveAutoVariant(const KnowledgeBase& kb,
                                             const PreflightOptions& popts,
                                             ChaseOptions* options);

}  // namespace twchase

#endif  // TWCHASE_ANALYSIS_PREFLIGHT_H_
