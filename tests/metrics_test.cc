#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/chase.h"
#include "core/measures.h"
#include "kb/examples.h"
#include "obs/stock_observers.h"
#include "parser/parser.h"
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

TEST(MetricsTest, EmitRowWritesOneObjectPerLine) {
  MetricsRegistry registry;
  registry.GetCounter("steps")->Increment(2);
  registry.GetGauge("size")->Set(7);
  std::ostringstream out;
  registry.EmitRow(&out, 0);
  registry.GetCounter("steps")->Increment();
  registry.EmitRow(&out, 1);
  registry.EmitRow(nullptr, 2);
  EXPECT_EQ(out.str(),
            "{\"step\": 0, \"steps\": 2, \"size\": 7}\n"
            "{\"step\": 1, \"steps\": 3, \"size\": 7}\n");
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
  MetricsObserverOptions mo;
  mo.out = &rows;
  MetricsObserver metrics(&registry, mo);

  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 12;
  options.observer = &metrics;
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok());

  std::vector<int> sizes = MeasureSeries(run->derivation, Measure::kSize);
  std::vector<int> emitted;
  std::vector<std::string> lines;
  std::istringstream in(rows.str());
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_FALSE(lines.empty());
  for (const std::string& row : lines) {
    const std::string key = "\"chase.instance.size\": ";
    size_t pos = row.find(key);
    ASSERT_NE(pos, std::string::npos) << row;
    emitted.push_back(std::stoi(row.substr(pos + key.size())));
  }
  // One row per derivation element (step 0 = F_0), then the run-end row,
  // which repeats the last step. Live rows are emitted before any round-end
  // amendment, but the default schedule cores per application, so the
  // series agree exactly.
  EXPECT_EQ(lines.back().rfind(
                "{\"step\": " + std::to_string(run->steps) + ",", 0),
            0u)
      << lines.back();
  emitted.pop_back();
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

// The value of `column` in one JSONL metrics row.
double RowValue(const std::string& row, const std::string& column) {
  const std::string key = "\"" + column + "\": ";
  const size_t pos = row.find(key);
  EXPECT_NE(pos, std::string::npos) << column << " in " << row;
  if (pos == std::string::npos) return -1;
  return std::stod(row.substr(pos + key.size()));
}

std::string LastLine(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::string last;
  while (std::getline(in, line)) last = line;
  return last;
}

// Regression: the chase.match.* and chase.plan.* registry counters were once
// fed by per-round deltas, so a run stopped between round ends (here: a
// fault-injected mid-round governor stop) left the last partial round's
// counts in ChaseStats but not in the registry. They now publish the
// ChaseStats the run-end event carries, and the observer writes a run-end
// row: the registry and that row equal ChaseStats exactly, at any stop
// boundary.
TEST(MetricsTest, CounterParityBetweenRegistryLastRowAndStats) {
  for (ChaseVariant variant :
       {ChaseVariant::kRestricted, ChaseVariant::kCore}) {
    for (bool interrupt : {false, true}) {
      StaircaseWorld world;
      std::ostringstream rows;
      MetricsRegistry registry;
      MetricsObserverOptions mo;
      mo.out = &rows;
      MetricsObserver metrics(&registry, mo);
      ChaseOptions options;
      options.variant = variant;
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
      const std::string context = std::string(ChaseVariantName(variant)) +
                                  (interrupt ? " interrupted" : "");
      if (interrupt) {
        EXPECT_EQ(run->stop_reason, StopReason::kCancelled) << context;
      }
      const ChaseStats& stats = run->stats;
      const std::pair<const char*, uint64_t> counters[] = {
          {"chase.match.index_probes", stats.match_index_probes},
          {"chase.match.column_scans", stats.match_column_scans},
          {"chase.match.join_fallbacks", stats.match_join_fallbacks},
          {"chase.match.index_builds", stats.match_index_builds},
          {"chase.match.index_build_bytes", stats.match_index_build_bytes},
          {"chase.match.search_nodes", stats.match_search_nodes},
          {"chase.plan.core_proofs", stats.plan_core_proofs},
          {"chase.plan.core_certified", stats.plan_core_certified},
          {"chase.plan.guard_nodes", stats.guard_search_nodes},
      };
      const std::string last = LastLine(rows.str());
      EXPECT_EQ(RowValue(last, "step"), static_cast<double>(run->steps))
          << context;
      for (const auto& [name, value] : counters) {
        EXPECT_EQ(registry.GetCounter(name)->value(), value)
            << name << ", " << context;
        EXPECT_EQ(RowValue(last, name), static_cast<double>(value))
            << name << ", " << context;
      }
      EXPECT_GT(stats.match_search_nodes, 0u) << context;
      if (variant == ChaseVariant::kCore) {
        EXPECT_GT(stats.plan_core_proofs, 0u) << context;
      }
    }
  }
}

// The still-core guard's node count and its per-call maximum reach the
// registry from the ChaseStats the events carry, and are a part of all the
// nodes searched.
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
  // The per-call maximum reaches the registry as a gauge.
  EXPECT_GT(stats.guard_max_call_nodes, 0u);
  EXPECT_LE(stats.guard_max_call_nodes, stats.guard_search_nodes);
  EXPECT_EQ(registry.GetGauge("chase.plan.guard_max_nodes")->value(),
            static_cast<double>(stats.guard_max_call_nodes));
}

// What `twchase_cli --variant=core --max-steps=300 --metrics-out=F
// data/elevator.twc` writes: the last row reports every still-core proof of
// the run (the last round's used to be missing).
TEST(MetricsTest, ElevatorCoreLastRowReportsEveryGuardProof) {
  std::ifstream file(std::string(TWCHASE_DATA_DIR) + "/elevator.twc");
  ASSERT_TRUE(file.good());
  std::ostringstream text;
  text << file.rdbuf();
  auto program = ParseProgram(text.str());
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  std::ostringstream rows;
  MetricsRegistry registry;
  MetricsObserverOptions mo;
  mo.out = &rows;
  MetricsObserver metrics(&registry, mo);
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 300;
  options.observer = &metrics;
  auto run = RunChase(program->kb, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->steps, 300u);
  const std::string last = LastLine(rows.str());
  EXPECT_EQ(RowValue(last, "step"), 300);
  EXPECT_EQ(run->stats.plan_core_proofs, 300u);
  EXPECT_EQ(RowValue(last, "chase.plan.core_proofs"),
            static_cast<double>(run->stats.plan_core_proofs));
}

// The chase.match.* and chase.plan.* columns of one metrics row, as text.
std::map<std::string, std::string> StatsColumns(const std::string& row) {
  std::map<std::string, std::string> columns;
  size_t pos = 0;
  while ((pos = row.find('"', pos)) != std::string::npos) {
    const size_t name_end = row.find('"', pos + 1);
    const std::string name = row.substr(pos + 1, name_end - pos - 1);
    const size_t value_begin = name_end + 3;  // past `": `
    const size_t value_end = row.find_first_of(",}", value_begin);
    if (name.starts_with("chase.match.") || name.starts_with("chase.plan.")) {
      columns[name] = row.substr(value_begin, value_end - value_begin);
    }
    pos = value_end;
  }
  return columns;
}

// The --metrics-out rows of a core run of `max_steps` steps on a fresh
// World (a fresh vocabulary, so every run numbers its nulls alike).
template <typename World>
std::vector<std::string> CoreRunRows(size_t max_steps) {
  World world;
  std::ostringstream rows;
  MetricsRegistry registry;
  MetricsObserverOptions mo;
  mo.out = &rows;
  MetricsObserver metrics(&registry, mo);
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = max_steps;
  options.observer = &metrics;
  auto run = RunChase(world.kb(), options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  std::vector<std::string> lines;
  std::istringstream in(rows.str());
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

template <typename World>
void ExpectEveryRowCarriesTheTotalsAtItsStep(const char* name) {
  constexpr size_t kSteps = 30;
  const std::vector<std::string> rows = CoreRunRows<World>(kSteps);
  // One row per step 0..kSteps, then the run-end row.
  ASSERT_EQ(rows.size(), kSteps + 2) << name;
  for (size_t k = 0; k <= kSteps; ++k) {
    EXPECT_EQ(RowValue(rows[k], "step"), static_cast<double>(k)) << name;
    const std::map<std::string, std::string> at_k = StatsColumns(rows[k]);
    EXPECT_EQ(at_k.size(), 16u) << name;  // 11 counters, 5 gauges
    const std::vector<std::string> shorter = CoreRunRows<World>(k);
    ASSERT_FALSE(shorter.empty()) << name << ", k = " << k;
    EXPECT_EQ(at_k, StatsColumns(shorter.back())) << name << ", k = " << k;
  }
}

// Row k of a run holds the counters at step k: exactly what a run stopped
// after k steps reports in its last row. Per-round counter deltas made rows
// lag by up to a round.
TEST(MetricsTest, EveryRowCarriesTheTotalsAtItsStep) {
  ExpectEveryRowCarriesTheTotalsAtItsStep<StaircaseWorld>("staircase core");
  ExpectEveryRowCarriesTheTotalsAtItsStep<ElevatorWorld>("elevator core");
}

// The instruments behind MetricsRegistry are thread-safe: concurrent
// increments are never lost, even though no production path writes one
// instrument from two threads.
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
