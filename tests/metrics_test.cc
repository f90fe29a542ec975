#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/chase.h"
#include "core/measures.h"
#include "kb/examples.h"
#include "obs/stock_observers.h"
#include "util/fault.h"

namespace twchase {
namespace {

TEST(MetricsTest, InstrumentsAreStableAndDeterministic) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("a");
  Gauge* g = registry.GetGauge("g");
  Histogram* h = registry.GetHistogram("h");
  a->Increment();
  a->Increment(4);
  g->Set(2.5);
  h->Observe(1);
  h->Observe(3);
  // Get-or-create returns the same instrument.
  EXPECT_EQ(registry.GetCounter("a"), a);
  EXPECT_EQ(registry.GetGauge("g"), g);
  EXPECT_EQ(registry.GetHistogram("h"), h);
  EXPECT_EQ(a->value(), 5u);
  EXPECT_DOUBLE_EQ(g->value(), 2.5);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_DOUBLE_EQ(h->sum(), 4);
  EXPECT_DOUBLE_EQ(h->min(), 1);
  EXPECT_DOUBLE_EQ(h->max(), 3);
  EXPECT_DOUBLE_EQ(h->mean(), 2);

  // Registration order, histograms flattened.
  std::vector<MetricColumn> columns = registry.SnapshotColumns();
  ASSERT_EQ(columns.size(), 6u);
  EXPECT_EQ(columns[0].name, "a");
  EXPECT_EQ(columns[1].name, "g");
  EXPECT_EQ(columns[2].name, "h.count");
  EXPECT_EQ(columns[3].name, "h.sum");
  EXPECT_EQ(columns[4].name, "h.min");
  EXPECT_EQ(columns[5].name, "h.max");
  EXPECT_DOUBLE_EQ(columns[0].value, 5);
}

TEST(MetricsTest, FormatMetricNumber) {
  EXPECT_EQ(FormatMetricNumber(42), "42");
  EXPECT_EQ(FormatMetricNumber(0), "0");
  EXPECT_EQ(FormatMetricNumber(0.5), "0.5");
  EXPECT_EQ(FormatMetricNumber(-3), "-3");
}

TEST(MetricsTest, JsonlSinkEmitsOneObjectPerRow) {
  MetricsRegistry registry;
  registry.GetCounter("steps")->Increment(2);
  registry.GetGauge("size")->Set(7);
  std::ostringstream out;
  JsonlSink sink(&out);
  registry.EmitRow(&sink, 0);
  registry.GetCounter("steps")->Increment();
  registry.EmitRow(&sink, 1);
  EXPECT_EQ(out.str(),
            "{\"step\": 0, \"steps\": 2, \"size\": 7}\n"
            "{\"step\": 1, \"steps\": 3, \"size\": 7}\n");
}

TEST(MetricsTest, CsvSinkWritesHeaderOnce) {
  MetricsRegistry registry;
  registry.GetCounter("steps");
  registry.GetHistogram("h")->Observe(2);
  std::ostringstream out;
  CsvSink sink(&out);
  registry.EmitRow(&sink, 0);
  registry.EmitRow(&sink, 1);
  EXPECT_EQ(out.str(),
            "step,steps,h.count,h.sum,h.min,h.max\n"
            "0,0,1,2,2,2\n"
            "1,0,1,2,2,2\n");
}

TEST(MetricsTest, ToJsonGroupsByKind) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Increment(3);
  registry.GetGauge("g")->Set(1.5);
  registry.GetHistogram("h")->Observe(4);
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"g\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"mean\": 4"), std::string::npos);
}

// Acceptance criterion of the observability layer: the per-step series in
// the --metrics-out JSONL stream matches the post-hoc --measures series.
TEST(MetricsTest, PerStepRowsMatchMeasureSeries) {
  StaircaseWorld world;
  std::ostringstream rows;
  MetricsRegistry registry;
  JsonlSink sink(&rows);
  MetricsObserverOptions mo;
  mo.sink = &sink;
  MetricsObserver metrics(&registry, mo);

  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 12;
  options.observer = &metrics;
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok());

  std::vector<int> sizes = MeasureSeries(run->derivation, Measure::kSize);
  std::vector<int> emitted;
  std::istringstream lines(rows.str());
  std::string line;
  while (std::getline(lines, line)) {
    const std::string key = "\"chase.instance.size\": ";
    size_t pos = line.find(key);
    ASSERT_NE(pos, std::string::npos) << line;
    emitted.push_back(std::stoi(line.substr(pos + key.size())));
  }
  // One row per derivation element (step 0 = F_0). Live rows are emitted
  // before any round-end amendment, but the default schedule cores per
  // application, so the series agree exactly.
  EXPECT_EQ(emitted, sizes);
}

TEST(MetricsTest, ObserverCountsAppliedTriggers) {
  auto kb = MakeTransitiveClosure(3);
  MetricsRegistry registry;
  MetricsObserver metrics(&registry);
  ChaseOptions options;
  options.observer = &metrics;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->stop_reason, StopReason::kFixpoint);
  EXPECT_EQ(registry.GetCounter("chase.triggers.applied")->value(),
            run->steps);
  EXPECT_EQ(registry.GetCounter("chase.triggers.considered")->value(),
            run->stats.triggers_considered);
  EXPECT_DOUBLE_EQ(registry.GetGauge("chase.instance.size")->value(),
                   static_cast<double>(run->derivation.Last().size()));
}

// Regression: the chase.match.* registry counters are fed by per-round
// MatchPlanEvent deltas, so a run stopped between round ends (here: a
// fault-injected mid-round governor stop) used to leave the last partial
// round's counts in ChaseStats but NOT in the registry. The engine flushes
// the tail before OnRunEnd; the registry must equal ChaseStats exactly, at
// any stop boundary.
TEST(MetricsTest, MatchCounterParityBetweenRegistryAndStats) {
  for (bool interrupt : {false, true}) {
    StaircaseWorld world;
    MetricsRegistry registry;
    MetricsObserver metrics(&registry);
    ChaseOptions options;
    options.variant = ChaseVariant::kRestricted;
    options.limits.max_steps = 12;
    options.observer = &metrics;
    StatusOr<ChaseResult> run = Status::Internal("not run");
    if (interrupt) {
      FaultInjector injector;
      injector.Arm(FaultSite::kTriggerBoundary, 5, FaultAction::kCancel);
      FaultInjectorScope scope(&injector);
      run = RunChase(world.kb(), options);
    } else {
      run = RunChase(world.kb(), options);
    }
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const std::string context = interrupt ? "interrupted" : "uninterrupted";
    if (interrupt) {
      EXPECT_EQ(run->stop_reason, StopReason::kCancelled) << context;
    }
    const ChaseStats& stats = run->stats;
    EXPECT_EQ(registry.GetCounter("chase.match.index_probes")->value(),
              stats.match_index_probes)
        << context;
    EXPECT_EQ(registry.GetCounter("chase.match.column_scans")->value(),
              stats.match_column_scans)
        << context;
    EXPECT_EQ(registry.GetCounter("chase.match.join_fallbacks")->value(),
              stats.match_join_fallbacks)
        << context;
    EXPECT_EQ(registry.GetCounter("chase.match.index_builds")->value(),
              stats.match_index_builds)
        << context;
    EXPECT_EQ(registry.GetCounter("chase.match.index_build_bytes")->value(),
              stats.match_index_build_bytes)
        << context;
    EXPECT_EQ(registry.GetCounter("chase.match.search_nodes")->value(),
              stats.match_search_nodes)
        << context;
    EXPECT_GT(stats.match_search_nodes, 0u) << context;
  }
}

// The still-core guard's node count reaches the registry through the
// per-round PlanEvent, and is a part of all the nodes searched.
TEST(MetricsTest, GuardNodesReachTheRegistry) {
  StaircaseWorld world;
  MetricsRegistry registry;
  MetricsObserver metrics(&registry);
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 30;
  options.observer = &metrics;
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const ChaseStats& stats = run->stats;
  EXPECT_GT(stats.guard_search_nodes, 0u);
  EXPECT_LT(stats.guard_search_nodes, stats.match_search_nodes);
  EXPECT_LE(stats.guard_index_probes, stats.match_index_probes);
  EXPECT_LE(stats.guard_column_scans, stats.match_column_scans);
  EXPECT_EQ(registry.GetCounter("chase.plan.guard_nodes")->value(),
            stats.guard_search_nodes);
  EXPECT_EQ(registry.GetCounter("chase.match.search_nodes")->value(),
            stats.match_search_nodes);
}

// The sharded counters behind MetricsRegistry must not lose increments
// under contention: daemon workers and HTTP handlers share one registry.
TEST(MetricsConcurrency, CounterSumsExactlyUnderContention) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test.contended");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kIncrements; ++i) counter->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter->value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(MetricsConcurrency, HistogramObservesExactlyUnderContention) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("test.contended_histogram");
  constexpr int kThreads = 8;
  constexpr int kObservations = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([histogram] {
      for (int i = 0; i < kObservations; ++i) histogram->Observe(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(histogram->count(),
            static_cast<size_t>(kThreads) * kObservations);
  EXPECT_DOUBLE_EQ(histogram->sum(), kThreads * kObservations * 1.0);
}

}  // namespace
}  // namespace twchase
