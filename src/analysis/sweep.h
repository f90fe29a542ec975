// Differential sweep harness: run a program under every chase variant with
// the planner on and off and cross-check bit-identity where the engine
// guarantees it (for a fixed variant, both runs must produce the same final
// instance, derivation journal and observer event stream). Any divergence is
// delta-minimized (greedy rule, then fact removal) into the smallest
// program that still diverges, ready to pin as a regression test.
//
// This is the semantic fuzzer behind `twgen --sweep` and the check.sh
// smoke gate; the generator (analysis/generator.h) supplies labeled
// programs, the sweep supplies the oracle.
#ifndef TWCHASE_ANALYSIS_SWEEP_H_
#define TWCHASE_ANALYSIS_SWEEP_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/chase.h"

namespace twchase {

struct SweepOptions {
  /// Step budget per run — small on purpose: divergence shows up early and
  /// non-terminating programs must not stall the sweep.
  size_t max_steps = 40;

  /// Delta-minimize divergent programs before reporting.
  bool minimize = true;

  /// Variants to sweep; empty = all five.
  std::vector<ChaseVariant> variants;
};

struct SweepDivergence {
  /// Program as given to the sweep.
  std::string program;

  /// Greedy-minimized reproducer (equals `program` when minimize is off).
  std::string minimized;

  ChaseVariant variant = ChaseVariant::kRestricted;

  /// The diverging configuration ("plan=off" against the planned run).
  std::string config;

  /// First differing field, e.g. "instance hash", "journal step 12".
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
