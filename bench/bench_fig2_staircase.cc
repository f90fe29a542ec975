// FIG2 — reproduces Figure 2 and the Section 6 narrative of the steepening
// staircase K_h as measured series:
//   column 1: per-step size of the core-chase element F_i;
//   column 2: certified treewidth of F_i — uniformly ≤ 2 (Proposition 4);
//   column 3: largest n×n grid contained in the natural aggregation prefix
//             D*_i — grows without bound (Proposition 5's engine);
//   column 4: treewidth lower bound of D*_i.
// The paper proves tw(F_i) ≤ 2 for all i while every universal model of K_h
// has infinite treewidth; the measured series shows exactly this divergence.
#include <algorithm>
#include <cstdio>

#include "core/chase.h"
#include "kb/examples.h"
#include "tw/grid.h"
#include "tw/treewidth.h"
#include "util/stopwatch.h"

int main() {
  using namespace twchase;
  StaircaseWorld world;

  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 70;
  Stopwatch sw;
  auto run = RunChase(world.kb(), options);
  if (!run.ok()) {
    std::printf("chase failed: %s\n", run.status().ToString().c_str());
    return 1;
  }
  double chase_seconds = sw.ElapsedSeconds();
  const Derivation& d = run->derivation;

  std::printf("FIG2: steepening staircase, core chase (%zu steps, %.2fs)\n",
              run->steps, chase_seconds);
  std::printf("%5s %8s %10s %12s %10s\n", "step", "|F_i|", "tw(F_i)",
              "grid(D*_i)", "twlb(D*_i)");

  AtomSet natural;
  int max_tw = -1;
  for (DerivationCursor c(d); !c.done(); c.Next()) {
    const size_t i = c.index();
    natural.InsertAll(c.instance());
    if (i % 7 != 0 && i + 1 != d.size()) continue;
    TreewidthResult tw = ComputeTreewidth(c.instance());
    int grid = GridLowerBound(natural, 6);
    TreewidthResult agg_tw = ComputeTreewidth(natural);
    max_tw = std::max(max_tw, tw.upper_bound);
    std::printf("%5zu %8zu %10d %9dx%-3d %10d\n", i, c.instance().size(),
                tw.upper_bound, grid, grid,
                std::max(agg_tw.lower_bound, grid));
  }
  std::printf(
      "\nmax tw along the core-chase sequence: %d (paper: uniform bound 2)\n"
      "natural aggregation D*: %zu atoms, unbounded grid growth\n",
      max_tw, natural.size());

  // The closed-form model prefixes behave identically (Definition 8).
  std::printf("\nclosed-form I^h prefixes (Definition 8):\n");
  std::printf("%8s %8s %10s %10s\n", "columns", "atoms", "grid", "tw_lb");
  for (int k = 2; k <= 8; k += 2) {
    AtomSet prefix = world.UniversalModelPrefix(k);
    int grid = GridLowerBound(prefix, 6);
    std::printf("%8d %8zu %7dx%-3d %10d\n", k, prefix.size(), grid, grid, grid);
  }
  return 0;
}
