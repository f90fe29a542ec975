// Definition sweep: runs a program under every chase variant and checks
// each run against the paper's definitions, never one schedule against
// another (restricted-chase results depend on the trigger order, Carral et
// al.). Per variant: every F_i rebuilt from the derivation journal has its
// recorded size and the last one is the live result ("journal"); the run,
// stopped at a trigger boundary drawn from the program, checkpointed through
// the text format and resumed on a fresh parse, is bit-identical to the
// uninterrupted one ("resume"); a terminated restricted, frugal or core
// result is a model ("model"); a core result is a core ("core"). Across
// variants: terminated results are homomorphically equivalent
// ("hom-equivalence") and the core result is isomorphic to the restricted
// result's core ("core-isomorphism"). The first failure of each check on
// each variant is delta-minimized (greedy rule, then fact removal) into the
// smallest program on which it still fails. This is the semantic fuzzer
// behind `twgen --sweep` and the check.sh smoke gate.
#ifndef TWCHASE_ANALYSIS_SWEEP_H_
#define TWCHASE_ANALYSIS_SWEEP_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/chase.h"

namespace twchase {

struct SweepOptions {
  /// Step budget per run — small on purpose: violations show up early and
  /// non-terminating programs must not stall the sweep.
  size_t max_steps = 40;

  /// Delta-minimize the first failing program of each check and variant.
  bool minimize = true;

  /// Variants to sweep; empty = all five.
  std::vector<ChaseVariant> variants;
};

struct SweepDivergence {
  /// Program as given to the sweep.
  std::string program;

  /// Greedy-minimized reproducer, or `program` itself when minimize is off
  /// or the same check already failed on the same variant.
  std::string minimized;

  /// The checked variant (of a cross-variant check, the second; `detail`
  /// names both).
  ChaseVariant variant = ChaseVariant::kRestricted;

  /// The failed check, as named above, or "run" when a run itself failed.
  std::string config;

  /// What failed, e.g. "journal step 12".
  std::string detail;
};

struct SweepReport {
  size_t programs = 0;
  size_t runs = 0;
  std::vector<SweepDivergence> divergences;

  bool clean() const { return divergences.empty(); }
};

/// Sweeps each program text (parsed freshly per run).
SweepReport RunDifferentialSweep(const std::vector<std::string>& programs,
                                 const SweepOptions& options = {});

}  // namespace twchase

#endif  // TWCHASE_ANALYSIS_SWEEP_H_
