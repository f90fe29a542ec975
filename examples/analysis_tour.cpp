// Static-analysis tour: runs the syntactic classifiers (weak acyclicity,
// guardedness, ...) over a gallery of rulesets and contrasts their verdicts
// with the empirical chase behaviour — the static/empirical interplay
// behind Figure 1's class landscape.
#include <cstdio>

#include "core/chase.h"
#include "core/measures.h"
#include "kb/analysis.h"
#include "kb/examples.h"

namespace {

void Row(const char* name, const twchase::KnowledgeBase& kb,
         size_t budget) {
  using namespace twchase;
  RulesetAnalysis analysis = AnalyzeRuleset(kb.rules);
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = budget;
  auto run = RunChase(kb, options);
  const char* behaviour = "?";
  if (run.ok()) {
    behaviour = run->stop_reason == StopReason::kFixpoint ? "terminates"
                                                          : "runs forever";
  }
  std::printf("%-26s %-34s -> core chase %s\n", name,
              analysis.Summary().c_str(), behaviour);
  if (analysis.ImpliesTermination() && run.ok() &&
      run->stop_reason != StopReason::kFixpoint) {
    std::printf("  !! static analysis promised termination — budget too small?\n");
  }
}

}  // namespace

int main() {
  using namespace twchase;
  std::printf("%-26s %-34s\n", "ruleset", "static classes");
  Row("transitive closure", MakeTransitiveClosure(3), 200);
  Row("weakly-acyclic pipeline", MakeWeaklyAcyclicPipeline(3), 200);
  Row("guarded chain", MakeGuardedChain(2), 40);
  Row("bts-not-fes", MakeBtsNotFes(), 40);
  Row("fes-not-bts", MakeFesNotBts(), 200);
  StaircaseWorld staircase;
  Row("steepening staircase", staircase.kb(), 40);
  ElevatorWorld elevator;
  Row("inflating elevator", elevator.kb(), 40);
  std::printf(
      "\nNote how both paper counterexamples escape every syntactic class —\n"
      "their decidability needs the paper's core-bts machinery, not syntax.\n");
  return 0;
}
