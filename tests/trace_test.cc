#include <gtest/gtest.h>

#include "core/chase.h"
#include "core/trace.h"
#include "kb/examples.h"

namespace twchase {
namespace {

TEST(TraceTest, ListsStepsWithRulesAndSizes) {
  auto kb = MakeTransitiveClosure(3);
  ChaseOptions options;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  std::string trace = DerivationTrace(run->derivation, *kb.vocab);
  EXPECT_NE(trace.find("F_0 = initial"), std::string::npos);
  EXPECT_NE(trace.find("base"), std::string::npos);
  EXPECT_NE(trace.find("step"), std::string::npos);
  EXPECT_NE(trace.find("|F| = "), std::string::npos);
}

TEST(TraceTest, MaxStepsTruncates) {
  auto kb = MakeTransitiveClosure(3);
  ChaseOptions options;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  TraceOptions trace_options;
  trace_options.max_steps = 2;
  std::string trace =
      DerivationTrace(run->derivation, *kb.vocab, trace_options);
  EXPECT_NE(trace.find("more steps"), std::string::npos);
  EXPECT_EQ(trace.find("F_3"), std::string::npos);
}

TEST(TraceTest, ShowsSimplifications) {
  StaircaseWorld world;
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 10;
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok());
  std::string trace = DerivationTrace(run->derivation, *world.vocab());
  EXPECT_NE(trace.find("simplified"), std::string::npos);
}

TEST(TraceTest, PrintInstancesOption) {
  auto kb = MakeTransitiveClosure(2);
  ChaseOptions options;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  TraceOptions trace_options;
  trace_options.print_instances = true;
  std::string trace =
      DerivationTrace(run->derivation, *kb.vocab, trace_options);
  EXPECT_NE(trace.find("e(n0, n1)"), std::string::npos);
}

}  // namespace
}  // namespace twchase
