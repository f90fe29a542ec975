// Differential tests for semi-naive delta evaluation (ChaseOptions::
// delta_evaluation): for every chase variant and every paper KB, the run
// with delta-driven trigger generation must be *identical* — not merely
// equivalent — to the naive re-enumerating run: same steps, same rounds,
// same rule at every step, same match, same simplification, and the same
// instance after every step. This is the correctness bar that lets delta
// evaluation default to ON without touching a single golden schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/chase.h"
#include "kb/examples.h"
#include "kb/knowledge_base.h"

namespace twchase {
namespace {

struct Workload {
  std::string name;
  size_t max_steps;
  std::function<KnowledgeBase()> make_kb;  // fresh KB per run: nulls are
                                           // minted into the KB's vocabulary
};

std::vector<Workload> PaperWorkloads() {
  std::vector<Workload> workloads;
  workloads.push_back({"transitive-closure-6", 400,
                       [] { return MakeTransitiveClosure(6); }});
  workloads.push_back({"guarded-chain-2", 120,
                       [] { return MakeGuardedChain(2); }});
  workloads.push_back({"bts-not-fes", 80, [] { return MakeBtsNotFes(); }});
  workloads.push_back({"fes-not-bts", 150, [] { return MakeFesNotBts(); }});
  workloads.push_back({"weakly-acyclic-pipeline-12", 200,
                       [] { return MakeWeaklyAcyclicPipeline(12); }});
  workloads.push_back({"staircase", 40, [] { return StaircaseWorld().kb(); }});
  workloads.push_back({"elevator", 40, [] { return ElevatorWorld().kb(); }});
  return workloads;
}

ChaseResult RunWorkload(const Workload& workload, ChaseVariant variant,
                        bool delta) {
  KnowledgeBase kb = workload.make_kb();
  ChaseOptions options;
  options.variant = variant;
  options.limits.max_steps = workload.max_steps;
  options.delta.enabled = delta;
  auto run = RunChase(kb, options);
  EXPECT_TRUE(run.ok()) << workload.name << ": " << run.status().message();
  return run.ok() ? std::move(*run) : ChaseResult{};
}

void ExpectIdenticalRuns(const ChaseResult& off, const ChaseResult& on,
                         const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(off.steps, on.steps);
  EXPECT_EQ(off.rounds, on.rounds);
  EXPECT_EQ(off.stop_reason, on.stop_reason);
  ASSERT_EQ(off.derivation.size(), on.derivation.size());
  for (size_t i = 0; i < off.derivation.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    const DerivationStep& a = off.derivation.step(i);
    const DerivationStep& b = on.derivation.step(i);
    EXPECT_EQ(a.rule_index, b.rule_index);
    EXPECT_EQ(a.match, b.match);
    EXPECT_EQ(a.simplification, b.simplification);
    EXPECT_EQ(a.added_atoms, b.added_atoms);
    EXPECT_EQ(a.instance_size, b.instance_size);
    EXPECT_EQ(a.instance, b.instance);
  }
  EXPECT_EQ(off.derivation.Last(), on.derivation.Last());
}

class DeltaDifferentialTest
    : public ::testing::TestWithParam<ChaseVariant> {};

TEST_P(DeltaDifferentialTest, DeltaOnEqualsDeltaOffOnAllPaperKbs) {
  ChaseVariant variant = GetParam();
  for (const Workload& workload : PaperWorkloads()) {
    ChaseResult off = RunWorkload(workload, variant, /*delta=*/false);
    ChaseResult on = RunWorkload(workload, variant, /*delta=*/true);
    ExpectIdenticalRuns(off, on,
                        std::string(ChaseVariantName(variant)) + " / " +
                            workload.name);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, DeltaDifferentialTest,
    ::testing::Values(ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
                      ChaseVariant::kRestricted, ChaseVariant::kFrugal,
                      ChaseVariant::kCore),
    [](const ::testing::TestParamInfo<ChaseVariant>& info) {
      std::string name = ChaseVariantName(info.param);
      name.erase(std::remove_if(name.begin(), name.end(),
                                [](char c) { return !std::isalnum(
                                      static_cast<unsigned char>(c)); }),
                 name.end());
      return name;
    });

}  // namespace
}  // namespace twchase
