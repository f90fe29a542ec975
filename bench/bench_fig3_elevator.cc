// FIG3/4 — reproduces Figures 3–4 and Section 7: the inflating elevator K_v
// has a treewidth-1 universal model (the ceiling chain I^v*, Definition 11),
// yet every core-chase sequence's treewidth grows beyond any bound
// (Proposition 8, Corollary 1). Series reported:
//   (a) per-step |F_i| and certified treewidth interval of the core chase
//       (coring after every application, Definition 2);
//   (b) the closed-form growing cores I^v_n (Definition 12): size, core-ness
//       and the ⌊n/3⌋+1 grid witness of Proposition 8(2);
//   (c) the ceiling model I^v*: treewidth 1, receives every chase element.
#include <cstdio>

#include "core/chase.h"
#include "hom/core.h"
#include "hom/matcher.h"
#include "kb/examples.h"
#include "tw/grid.h"
#include "tw/treewidth.h"
#include "util/stopwatch.h"

int main() {
  using namespace twchase;
  ElevatorWorld world;

  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 100;
  Stopwatch sw;
  auto run = RunChase(world.kb(), options);
  if (!run.ok()) {
    std::printf("chase failed: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const Derivation& d = run->derivation;
  std::printf(
      "FIG3/4 (a): inflating elevator, core chase (%zu steps, %.1fs, coring "
      "every step)\n",
      run->steps, sw.ElapsedSeconds());
  std::printf("%5s %8s %8s %8s\n", "step", "|F_i|", "tw_lb", "tw_ub");
  for (DerivationCursor c(d); !c.done(); c.Next()) {
    if (c.index() % 10 != 0) continue;
    TreewidthResult tw = ComputeTreewidth(c.instance());
    std::printf("%5zu %8zu %8d %8d\n", c.index(), c.instance().size(),
                tw.lower_bound, tw.upper_bound);
  }
  TreewidthResult last_tw = ComputeTreewidth(d.Last());
  std::printf("%5s %8zu %8d %8d  <- grows with the budget (Corollary 1)\n",
              "last", d.Last().size(), last_tw.lower_bound,
              last_tw.upper_bound);

  std::printf(
      "\nFIG3/4 (b): the obstruction cores I^v_n (Definition 12, "
      "Proposition 8)\n");
  std::printf("%4s %8s %6s %12s %14s\n", "n", "atoms", "core?", "grid found",
              "paper: >=n/3+1");
  for (int n = 1; n <= 7; ++n) {
    AtomSet obstruction = world.CoreObstruction(n);
    int expected = n / 3 + 1;
    int grid = GridLowerBound(obstruction, expected + 1);
    std::printf("%4d %8zu %6s %12d %14d\n", n, obstruction.size(),
                IsCore(obstruction) ? "yes" : "NO", grid, expected);
  }

  std::printf("\nFIG3/4 (c): the ceiling universal model I^v*\n");
  AtomSet ceiling = world.CeilingPrefix(150);
  TreewidthResult ceiling_tw = ComputeTreewidth(world.CeilingPrefix(40));
  std::printf("  tw(I^v*) = %d (paper: 1)\n", ceiling_tw.upper_bound);
  std::printf("  last chase element maps into I^v*: %s (universality)\n",
              ExistsHomomorphism(d.Last(), ceiling) ? "yes" : "NO");
  std::printf(
      "\nreading: a width-1 universal model exists, yet the core chase's own "
      "width climbs\n%d -> %d within the budget and provably beyond any "
      "bound.\n",
      1, last_tw.upper_bound);
  return 0;
}
