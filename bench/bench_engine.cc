// ENG — engine benchmarks.
//
// Default mode: the engine sweep. Runs every chase workload (best of three)
// and writes the machine-readable rows to BENCH_engine.json in the working
// directory: per workload the rounds, steps, trigger counts, wall
// milliseconds, the peak instance size, the derivation's estimated bytes
// and the coring counters (full ComputeCore calls, still-core proofs and
// certificates). Every run uses the library's default options. The
// staircase-core and elevator-core coring counters back the planner
// baseline gate in tools/check.sh. The host's hardware_concurrency is
// recorded next to them: the engine is sequential, so the figure only
// qualifies the service and wall-time numbers. So is the measured source
// tree's git commit (`git describe --always --dirty` at start, "none"
// outside a git checkout), so every row can be traced to the code it
// measured.
//
// A second section runs trigger-heavy random workloads, where homomorphism
// matching dominates, and records their wall times and the chase.match.*
// counters. A third section runs the large-instance family (scaled
// transitive closure and a wide guarded chain, each ≥100k atoms) under a
// governor memory budget.
// A fourth section measures daemon throughput: an in-process ChaseDaemon
// serving identical core-chase jobs over real HTTP at 1, 4 and 8 concurrent
// tenants, reporting jobs/sec (submit-to-terminal) per tenant count and
// verifying every job's final instance hash agrees.
// A fifth section measures the termination-analysis preflight: wall time
// and verdict per witness program (the paper's worlds plus twgen-generated
// programs of every labeled class), failing on any misclassification — the
// cost of --variant=auto is this sweep's headline number.
//
// `--micro` mode: the google-benchmark microbenchmarks of the substrate
// costs underlying every figure (homomorphism search, core computation,
// treewidth). Extra arguments are passed through to google-benchmark.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/generator.h"
#include "analysis/preflight.h"
#include "core/chase.h"
#include "hom/core.h"
#include "parser/parser.h"
#include "hom/matcher.h"
#include "obs/metrics.h"
#include "kb/examples.h"
#include "kb/generators.h"
#include "kb/knowledge_base.h"
#include "service/daemon.h"
#include "service/http.h"
#include "service/json.h"
#include "service/wire.h"
#include "util/governor.h"
#include "tw/exact.h"
#include "tw/grid.h"
#include "tw/heuristics.h"
#include "tw/treewidth.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace twchase {
namespace {

void BM_HomPathIntoGrid(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Vocabulary vocab;
  AtomSet grid = MakeGridInstance(&vocab, "h", "v", n, n);
  AtomSet path = MakePathInstance(&vocab, "h", n - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExistsHomomorphism(path, grid));
  }
}
BENCHMARK(BM_HomPathIntoGrid)->Arg(4)->Arg(8)->Arg(12);

void BM_HomRandomSelfJoin(benchmark::State& state) {
  int terms = static_cast<int>(state.range(0));
  Rng rng(42);
  Vocabulary vocab;
  AtomSet instance =
      MakeRandomBinaryInstance(&vocab, "e", terms, terms * 2, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExistsHomomorphism(instance, instance));
  }
}
BENCHMARK(BM_HomRandomSelfJoin)->Arg(16)->Arg(32)->Arg(64);

void BM_CoreComputationRedundant(benchmark::State& state) {
  int redundancy = static_cast<int>(state.range(0));
  Vocabulary vocab;
  AtomSet instance = MakeRedundantInstance(&vocab, "e", 5, redundancy);
  for (auto _ : state) {
    CoreResult result = ComputeCore(instance);
    benchmark::DoNotOptimize(result.core.size());
  }
  state.counters["atoms"] = static_cast<double>(instance.size());
}
BENCHMARK(BM_CoreComputationRedundant)->Arg(2)->Arg(6)->Arg(12);

void BM_CoreVerifyStaircaseStep(benchmark::State& state) {
  // The all-variables UNSAT verification on a staircase step (a core).
  StaircaseWorld world;
  AtomSet step = world.Step(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    CoreResult result = ComputeCore(step);
    benchmark::DoNotOptimize(result.core.size());
  }
}
BENCHMARK(BM_CoreVerifyStaircaseStep)->Arg(3)->Arg(6)->Arg(9);

void BM_ExactTreewidthGrid(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Graph g = Graph::Grid(n, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactTreewidth(g).value());
  }
}
BENCHMARK(BM_ExactTreewidthGrid)->Arg(3)->Arg(4);

void BM_MinFillGrid(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Graph g = Graph::Grid(n, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        HeuristicUpperBound(g, EliminationHeuristic::kMinFill));
  }
}
BENCHMARK(BM_MinFillGrid)->Arg(4)->Arg(8)->Arg(16);

void BM_GridDetection(benchmark::State& state) {
  StaircaseWorld world;
  AtomSet prefix = world.UniversalModelPrefix(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(GridLowerBound(prefix, 4));
  }
}
BENCHMARK(BM_GridDetection)->Arg(4)->Arg(6)->Arg(8);

void BM_ChaseVariant(benchmark::State& state) {
  ChaseVariant variant = static_cast<ChaseVariant>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto kb = MakeTransitiveClosure(6);
    state.ResumeTiming();
    ChaseOptions options;
    options.variant = variant;
    options.limits.max_steps = 500;
    auto run = RunChase(kb, options);
    benchmark::DoNotOptimize(run->steps);
  }
}
BENCHMARK(BM_ChaseVariant)
    ->Arg(static_cast<int>(ChaseVariant::kOblivious))
    ->Arg(static_cast<int>(ChaseVariant::kSemiOblivious))
    ->Arg(static_cast<int>(ChaseVariant::kRestricted))
    ->Arg(static_cast<int>(ChaseVariant::kCore));

void BM_StaircaseCoreChase(benchmark::State& state) {
  size_t steps = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    StaircaseWorld world;
    state.ResumeTiming();
    ChaseOptions options;
    options.variant = ChaseVariant::kCore;
    options.limits.max_steps = steps;
    auto run = RunChase(world.kb(), options);
    benchmark::DoNotOptimize(run->steps);
  }
}
BENCHMARK(BM_StaircaseCoreChase)->Arg(15)->Arg(30)->Arg(45);

// ---------------------------------------------------------------------------
// Engine sweep (default mode).

struct SweepWorkload {
  std::string name;
  ChaseVariant variant;
  size_t max_steps;
  std::function<KnowledgeBase()> make_kb;  // fresh KB per run (nulls are minted
                                           // into the KB's vocabulary)
};

struct SweepMeasurement {
  double wall_ms = 0;
  ChaseResult result;
};

SweepMeasurement MeasureChase(const SweepWorkload& workload, int repetitions,
                              Histogram* phase_ms) {
  SweepMeasurement best;
  for (int rep = 0; rep < repetitions; ++rep) {
    KnowledgeBase kb = workload.make_kb();
    ChaseOptions options;
    options.variant = workload.variant;
    options.limits.max_steps = workload.max_steps;
    Stopwatch watch;
    auto run = RunChase(kb, options);
    double ms = watch.ElapsedMillis();
    if (phase_ms != nullptr) phase_ms->Observe(ms);
    if (!run.ok()) {
      std::fprintf(stderr, "workload %s failed: %s\n", workload.name.c_str(),
                   run.status().message().c_str());
      continue;
    }
    if (rep == 0 || ms < best.wall_ms) {
      best.wall_ms = ms;
      best.result = std::move(*run);
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// Match workloads and large-instance family.

// Dense random digraph with the triangle-closure rule: the body is a
// three-way self-join of e, so trigger enumeration dominates the run.
KnowledgeBase MakeDenseTriangles(int nodes, int edges, uint64_t seed) {
  KbBuilder b;
  Term x = b.V("X"), y = b.V("Y"), z = b.V("Z");
  Rng rng(seed);
  auto node = [&](int64_t i) { return b.C("n" + std::to_string(i)); };
  for (int i = 0; i < edges; ++i) {
    b.Fact("e", {node(rng.Uniform(0, nodes - 1)),
                 node(rng.Uniform(0, nodes - 1))});
  }
  b.AddRule("tri", {b.A("e", {x, y}), b.A("e", {y, z}), b.A("e", {x, z})},
            {b.A("tri", {x, z})});
  return b.Build();
}

// Wide-tuple self-join over a ternary relation: each candidate check walks
// three argument positions.
KnowledgeBase MakeWideJoin(int nodes, int facts, uint64_t seed) {
  KbBuilder b;
  Term x = b.V("X"), y = b.V("Y"), z = b.V("Z"), w = b.V("W");
  Rng rng(seed);
  auto node = [&](int64_t i) { return b.C("n" + std::to_string(i)); };
  for (int i = 0; i < facts; ++i) {
    b.Fact("r", {node(rng.Uniform(0, nodes - 1)),
                 node(rng.Uniform(0, nodes - 1)),
                 node(rng.Uniform(0, nodes - 1))});
  }
  b.AddRule("wj", {b.A("r", {x, y, z}), b.A("r", {z, y, w})},
            {b.A("j", {x, w})});
  return b.Build();
}

// Transitive closure of a dense random digraph. Recursive (t feeds its own
// body), so unlike the join workloads above most wall time goes to trigger
// revalidation and application rather than enumeration.
KnowledgeBase MakeDenseTc(int nodes, int edges, uint64_t seed) {
  KbBuilder b;
  Term x = b.V("X"), y = b.V("Y"), z = b.V("Z");
  Rng rng(seed);
  auto node = [&](int64_t i) { return b.C("n" + std::to_string(i)); };
  for (int i = 0; i < edges; ++i) {
    b.Fact("e", {node(rng.Uniform(0, nodes - 1)),
                 node(rng.Uniform(0, nodes - 1))});
  }
  b.AddRule("base", {b.A("e", {x, y})}, {b.A("t", {x, y})});
  b.AddRule("step", {b.A("e", {x, y}), b.A("t", {y, z})}, {b.A("t", {x, z})});
  return b.Build();
}

// `seeds` independent chains advanced by a 3-cycle of existential rules:
// every round appends one fresh-null atom per chain, growing the instance
// past 100k atoms in a few dozen rounds without the instance-squared trigger
// growth of transitive closure.
KnowledgeBase MakeWideGuardedChain(int seeds, int cycle) {
  KbBuilder b;
  Term x = b.V("X"), y = b.V("Y");
  for (int i = 0; i < seeds; ++i) {
    b.Fact("r0", {b.C("a" + std::to_string(i)), b.C("b" + std::to_string(i))});
  }
  for (int i = 0; i < cycle; ++i) {
    std::string from = "r" + std::to_string(i);
    std::string to = "r" + std::to_string((i + 1) % cycle);
    b.AddRule(from + "-" + to, {b.A(from, {x, y})},
              {b.A(to, {y, b.V("Z" + std::to_string(i))})});
  }
  return b.Build();
}

// Runs the trigger-heavy workloads and returns the "match_workloads" JSON
// object: per workload the wall time of the faster of two runs and the
// chase.match.* counters.
std::string RunMatchWorkloads(MetricsRegistry* registry) {
  std::vector<SweepWorkload> workloads;
  workloads.push_back({"triangles-dense-400", ChaseVariant::kRestricted,
                       2000000, [] { return MakeDenseTriangles(400, 32000, 19); }});
  workloads.push_back({"wide-join-80", ChaseVariant::kRestricted, 2000000,
                       [] { return MakeWideJoin(80, 40000, 17); }});
  workloads.push_back({"transitive-closure-dense-200", ChaseVariant::kRestricted,
                       2000000, [] { return MakeDenseTc(200, 1200, 7); }});

  std::string json = "  \"match_workloads\": {\n    \"workloads\": [\n";
  std::printf("\n%-30s %10s %14s\n", "workload", "wall ms", "index probes");
  for (size_t i = 0; i < workloads.size(); ++i) {
    const SweepWorkload& workload = workloads[i];
    SweepMeasurement m = MeasureChase(
        workload, 2,
        registry->GetHistogram("phase." + workload.name + ".wall_ms"));
    const ChaseStats& stats = m.result.stats;
    std::printf("%-30s %9.2f %14llu\n", workload.name.c_str(), m.wall_ms,
                static_cast<unsigned long long>(stats.match_index_probes));
    char buffer[512];
    std::snprintf(buffer, sizeof(buffer),
                  "      {\"name\": \"%s\", \"variant\": \"%s\", "
                  "\"wall_ms\": %.3f, \"steps\": %zu, \"rounds\": %zu, "
                  "\"peak_atoms\": %zu, \"index_probes\": %llu, "
                  "\"column_scans\": %llu, \"index_builds\": %llu, "
                  "\"index_build_bytes\": %llu}",
                  workload.name.c_str(), ChaseVariantName(workload.variant),
                  m.wall_ms, m.result.steps, m.result.rounds,
                  stats.peak_instance_size,
                  static_cast<unsigned long long>(stats.match_index_probes),
                  static_cast<unsigned long long>(stats.match_column_scans),
                  static_cast<unsigned long long>(stats.match_index_builds),
                  static_cast<unsigned long long>(
                      stats.match_index_build_bytes));
    json += buffer;
    json += (i + 1 < workloads.size()) ? ",\n" : "\n";
  }
  json += "    ]\n  }";
  return json;
}

// Runs the ≥100k-atom family under a governor memory budget
// and returns the "large_instance" JSON object (empty string when a run
// fails or trips the budget — completing inside it is the acceptance bar).
std::string RunLargeInstanceSweep(MetricsRegistry* registry) {
  constexpr size_t kBudgetBytes = 1536ull * 1024 * 1024;
  std::vector<SweepWorkload> workloads;
  workloads.push_back({"transitive-closure-450", ChaseVariant::kRestricted,
                       2000000, [] { return MakeTransitiveClosure(450); }});
  workloads.push_back({"guarded-chain-wide-2600", ChaseVariant::kRestricted,
                       110000, [] { return MakeWideGuardedChain(2600, 3); }});

  std::string json = "  \"large_instance\": {\n";
  json += "    \"memory_budget_bytes\": " + std::to_string(kBudgetBytes) +
          ",\n    \"workloads\": [\n";
  std::printf("\n%-30s %10s %10s %10s %14s\n", "workload", "wall ms", "steps",
              "peak atoms", "stop");
  for (size_t i = 0; i < workloads.size(); ++i) {
    const SweepWorkload& workload = workloads[i];
    KnowledgeBase kb = workload.make_kb();
    ChaseOptions options;
    options.variant = workload.variant;
    options.limits.max_steps = workload.max_steps;
    options.limits.memory_budget_bytes = kBudgetBytes;
    Stopwatch watch;
    auto run = RunChase(kb, options);
    double wall_ms = watch.ElapsedMillis();
    registry->GetHistogram("phase." + workload.name + ".wall_ms")
        ->Observe(wall_ms);
    if (!run.ok() || run->stop_reason == StopReason::kMemoryBudget) {
      std::fprintf(stderr, "large-instance workload %s %s\n",
                   workload.name.c_str(),
                   run.ok() ? "tripped the memory budget" : "failed");
      return "";
    }
    std::printf("%-30s %9.2f %10zu %10zu %14s\n", workload.name.c_str(),
                wall_ms, run->steps, run->stats.peak_instance_size,
                StopReasonName(run->stop_reason));
    char buffer[640];
    std::snprintf(
        buffer, sizeof(buffer),
        "      {\"name\": \"%s\", \"variant\": \"%s\", \"wall_ms\": %.3f, "
        "\"steps\": %zu, \"rounds\": %zu, \"peak_atoms\": %zu, "
        "\"final_atoms\": %zu, \"stop_reason\": \"%s\", "
        "\"index_probes\": %llu, \"index_builds\": %llu, "
        "\"index_build_bytes\": %llu}",
        workload.name.c_str(), ChaseVariantName(workload.variant), wall_ms,
        run->steps, run->rounds, run->stats.peak_instance_size,
        run->derivation.Last().size(), StopReasonName(run->stop_reason),
        static_cast<unsigned long long>(run->stats.match_index_probes),
        static_cast<unsigned long long>(run->stats.match_index_builds),
        static_cast<unsigned long long>(run->stats.match_index_build_bytes));
    json += buffer;
    json += (i + 1 < workloads.size()) ? ",\n" : "\n";
  }
  json += "    ]\n  }";
  return json;
}

// ---------------------------------------------------------------------------
// Service sweep.

// Measures daemon job throughput over real HTTP: an in-process ChaseDaemon
// (4 chase workers, loopback HTTP) serves 6 identical staircase core-chase
// jobs per tenant at 1, 4 and 8 concurrent tenants; the row records the
// wall time from the first submission to the last terminal poll and the
// resulting jobs/sec. Every job's final instance hash must agree — the jobs
// are the same program under the same options, so a divergent hash means
// the concurrent service path perturbed a run. Returns the "service_sweep"
// JSON object (empty string on any failure).
std::string RunServiceSweep(MetricsRegistry* registry) {
  constexpr const char* kProgram = R"(
f(X00), h(X00, X00).
[Rh1] h(X, Y), v(X, Xp), h(Xp, Yp), v(Y, Yp), c(Yp) :- h(X, X).
[Rh2] c(Yp), h(X, Y), v(Y, Yp) :- h(X, X), v(X, Xp), h(Xp, Xp), h(Xp, Yp).
[Rh3] f(Y), h(Y, Y) :- f(X), h(X, X), h(X, Y).
[Rh4] h(Xp, Xp) :- h(X, X), v(X, Xp), c(Xp).
? :- f(X), v(X, Y), c(Y).
)";
  constexpr size_t kJobsPerTenant = 6;

  ChaseOptions chase;
  chase.variant = ChaseVariant::kCore;
  chase.limits.max_steps = 45;

  std::string json = "  \"service_sweep\": {\n    \"rows\": [\n";
  std::printf("\n%-26s %8s %10s %12s\n", "service", "jobs", "wall ms",
              "jobs/sec");
  const size_t tenant_counts[] = {1, 4, 8};
  const size_t num_rows = sizeof(tenant_counts) / sizeof(tenant_counts[0]);
  for (size_t row = 0; row < num_rows; ++row) {
    const size_t tenants = tenant_counts[row];
    DaemonOptions options;
    options.workers = 4;
    options.per_tenant_quota = kJobsPerTenant;
    options.http_threads = 4;
    ChaseDaemon daemon(options);
    if (Status started = daemon.Start(); !started.ok()) {
      std::fprintf(stderr, "service sweep: daemon start failed: %s\n",
                   started.message().c_str());
      return "";
    }
    auto fetch = [&](const std::string& method, const std::string& target,
                     const std::string& body) {
      return HttpFetch("127.0.0.1", daemon.port(), method, target, body);
    };

    Json request = Json::Object();
    request.Set("schema_version", Json::Number(uint64_t{kWireSchemaVersion}));
    request.Set("program", Json::String(kProgram));
    request.Set("options", ChaseOptionsToJson(chase));

    Stopwatch watch;
    std::vector<std::string> ids;
    for (size_t t = 0; t < tenants; ++t) {
      request.Set("tenant", Json::String("tenant-" + std::to_string(t)));
      for (size_t j = 0; j < kJobsPerTenant; ++j) {
        auto response = fetch("POST", "/v1/jobs", request.Dump());
        if (!response.ok() || response->status != 202) {
          std::fprintf(stderr, "service sweep: submit failed (HTTP %d)\n",
                       response.ok() ? response->status : -1);
          return "";
        }
        auto body = Json::Parse(response->body);
        if (!body.ok()) return "";
        ids.emplace_back(body->Get("job").Get("id").string_value());
      }
    }
    std::string expected_hash;
    for (const std::string& id : ids) {
      while (true) {
        auto response = fetch("GET", "/v1/jobs/" + id, "");
        if (!response.ok()) return "";
        auto body = Json::Parse(response->body);
        if (!body.ok()) return "";
        const std::string state(body->Get("state").string_value());
        if (state == "done") break;
        if (state == "failed" || state == "cancelled") {
          std::fprintf(stderr, "service sweep: job %s ended %s\n", id.c_str(),
                       state.c_str());
          return "";
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      auto result = fetch("GET", "/v1/jobs/" + id + "/result", "");
      if (!result.ok() || result->status != 200) return "";
      auto body = Json::Parse(result->body);
      if (!body.ok()) return "";
      const std::string hash(body->Get("instance_hash").string_value());
      if (expected_hash.empty()) expected_hash = hash;
      if (hash != expected_hash) {
        std::fprintf(stderr,
                     "PARITY VIOLATION in service sweep: job %s hash %s != "
                     "%s\n",
                     id.c_str(), hash.c_str(), expected_hash.c_str());
        return "";
      }
    }
    const double wall_ms = watch.ElapsedMillis();
    daemon.Stop();
    if (daemon.InFlightJobs() != 0) {
      std::fprintf(stderr, "service sweep: %zu jobs leaked past Stop()\n",
                   daemon.InFlightJobs());
      return "";
    }
    const double jobs_per_sec =
        wall_ms > 0 ? 1000.0 * static_cast<double>(ids.size()) / wall_ms : 0;
    registry
        ->GetHistogram("service.sweep.tenants_" + std::to_string(tenants) +
                       ".wall_ms")
        ->Observe(wall_ms);
    const std::string label = std::to_string(tenants) + "-tenant daemon";
    std::printf("%-26s %8zu %9.2f %11.2f\n", label.c_str(), ids.size(),
                wall_ms, jobs_per_sec);
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "      {\"tenants\": %zu, \"jobs\": %zu, \"wall_ms\": %.3f, "
                  "\"jobs_per_sec\": %.2f}",
                  tenants, ids.size(), wall_ms, jobs_per_sec);
    json += buffer;
    json += (row + 1 < num_rows) ? ",\n" : "\n";
  }
  json += "    ]\n  }";
  return json;
}

// ---------------------------------------------------------------------------
// Preflight sweep.

// Measures RunPreflight wall time and verdict per witness program: the
// paper's worlds (staircase → core-bts, elevator → unknown), the class
// witnesses from kb/examples.h, and one twgen program per labeled class.
// Fails (returns "") on any verdict that contradicts the known class — a
// wrong verdict here means --variant=auto would mislead users. Returns the
// "preflight_sweep" JSON object.
std::string RunPreflightSweep(MetricsRegistry* registry) {
  struct Row {
    std::string name;
    KnowledgeBase kb;
    // The verdicts this program may legally receive (label taxonomy is not
    // the verdict lattice: e.g. a guarded fes program may be seen as fes).
    std::vector<TerminationClass> allowed;
  };
  auto generated = [](GeneratedClass label, uint64_t seed) {
    GeneratorOptions options;
    options.label = label;
    options.seed = seed;
    auto parsed = ParseProgram(GenerateProgram(options).text);
    return parsed.ok() ? parsed->kb : KnowledgeBase{};
  };
  std::vector<Row> rows;
  rows.push_back({"weakly-acyclic-pipeline", MakeWeaklyAcyclicPipeline(6),
                  {TerminationClass::kFes}});
  rows.push_back({"transitive-closure-8", MakeTransitiveClosure(8),
                  {TerminationClass::kFes}});
  rows.push_back({"guarded-chain", MakeGuardedChain(3),
                  {TerminationClass::kBts}});
  rows.push_back({"bts-not-fes", MakeBtsNotFes(), {TerminationClass::kBts}});
  rows.push_back({"fes-not-bts", MakeFesNotBts(), {TerminationClass::kFes}});
  rows.push_back({"staircase", StaircaseWorld().kb(),
                  {TerminationClass::kCoreBts}});
  rows.push_back({"elevator", ElevatorWorld().kb(),
                  {TerminationClass::kUnknown}});
  rows.push_back({"twgen-fes", generated(GeneratedClass::kFes, 5),
                  {TerminationClass::kFes}});
  rows.push_back({"twgen-bts", generated(GeneratedClass::kBts, 5),
                  {TerminationClass::kFes, TerminationClass::kBts}});
  rows.push_back({"twgen-core-bts", generated(GeneratedClass::kCoreBts, 5),
                  {TerminationClass::kBts, TerminationClass::kCoreBts,
                   TerminationClass::kUnknown}});
  rows.push_back(
      {"twgen-non-terminating",
       generated(GeneratedClass::kNonTerminating, 5),
       {TerminationClass::kBts, TerminationClass::kCoreBts,
        TerminationClass::kUnknown}});

  std::string json = "  \"preflight_sweep\": {\n    \"rows\": [\n";
  std::printf("\n%-26s %-10s %-14s %10s\n", "preflight", "verdict", "variant",
              "wall ms");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    Stopwatch watch;
    PreflightReport report = RunPreflight(row.kb);
    const double wall_ms = watch.ElapsedSeconds() * 1000.0;
    bool legal = false;
    for (TerminationClass allowed : row.allowed) {
      if (report.verdict == allowed) legal = true;
    }
    if (!legal) {
      std::fprintf(stderr,
                   "PREFLIGHT MISCLASSIFICATION on %s: verdict %s\n",
                   row.name.c_str(), TerminationClassName(report.verdict));
      return "";
    }
    registry->GetHistogram("preflight." + row.name + ".wall_ms")
        ->Observe(wall_ms);
    std::printf("%-26s %-10s %-14s %9.2f\n", row.name.c_str(),
                TerminationClassName(report.verdict),
                ChaseVariantName(report.recommended_variant), wall_ms);
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "      {\"name\": \"%s\", \"verdict\": \"%s\", "
                  "\"variant\": \"%s\", \"wall_ms\": %.3f}",
                  row.name.c_str(), TerminationClassName(report.verdict),
                  ChaseVariantName(report.recommended_variant), wall_ms);
    json += buffer;
    json += (i + 1 < rows.size()) ? ",\n" : "\n";
  }
  json += "    ]\n  }";
  return json;
}

// The commit of the source tree this binary was built from, "-dirty" when
// the tree has uncommitted changes; "none" when git cannot tell.
std::string SourceCommit() {
  const std::string command = std::string("git -C '") + TWCHASE_SOURCE_DIR +
                              "' describe --always --dirty --abbrev=40 "
                              "2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return "none";
  std::string out;
  char buffer[128];
  while (std::fgets(buffer, sizeof buffer, pipe) != nullptr) out += buffer;
  const int status = pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) {
    out.pop_back();
  }
  return status == 0 && !out.empty() ? out : "none";
}

int RunEngineSweep(const char* output_path) {
  const std::string commit = SourceCommit();
  std::vector<SweepWorkload> workloads;
  workloads.push_back({"transitive-closure-12", ChaseVariant::kRestricted,
                       2000, [] { return MakeTransitiveClosure(12); }});
  workloads.push_back({"guarded-chain-oblivious", ChaseVariant::kOblivious,
                       400, [] { return MakeGuardedChain(3); }});
  workloads.push_back({"bts-not-fes-oblivious", ChaseVariant::kOblivious, 300,
                       [] { return MakeBtsNotFes(); }});
  workloads.push_back({"pipeline-semi-oblivious", ChaseVariant::kSemiOblivious,
                       600, [] { return MakeWeaklyAcyclicPipeline(40); }});
  workloads.push_back({"staircase-restricted", ChaseVariant::kRestricted, 120,
                       [] { return StaircaseWorld().kb(); }});
  // A long run whose instance grows every step: its derivation_bytes shows
  // what the run record costs (journal only, no per-step copies).
  workloads.push_back({"staircase-restricted-2000", ChaseVariant::kRestricted,
                       2000, [] { return StaircaseWorld().kb(); }});
  workloads.push_back({"staircase-core", ChaseVariant::kCore, 45,
                       [] { return StaircaseWorld().kb(); }});
  workloads.push_back({"elevator-core", ChaseVariant::kCore, 60,
                       [] { return ElevatorWorld().kb(); }});
  // Long core runs, where the still-core guard's search dominates.
  workloads.push_back({"elevator-core-300", ChaseVariant::kCore, 300,
                       [] { return ElevatorWorld().kb(); }});
  workloads.push_back({"elevator-core-600", ChaseVariant::kCore, 600,
                       [] { return ElevatorWorld().kb(); }});
  workloads.push_back({"elevator-core-1000", ChaseVariant::kCore, 1000,
                       [] { return ElevatorWorld().kb(); }});
  workloads.push_back({"staircase-core-1500", ChaseVariant::kCore, 1500,
                       [] { return StaircaseWorld().kb(); }});

  // Per-phase wall times (one observation per repetition, so min is the
  // reported best) go into a registry and are embedded into the artifact
  // under "metrics". The measured runs themselves carry no observer.
  MetricsRegistry registry;
  std::string json = "{\n  \"benchmark\": \"engine_sweep\",\n";
  json += "  \"git_sha\": \"" + commit + "\",\n";
  json += "  \"hardware_concurrency\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "  \"workloads\": [\n";
  std::printf("%-26s %-14s %8s %10s %10s %10s %12s %10s\n", "workload",
              "variant", "steps", "wall ms", "core full", "certified",
              "guard nodes", "guard max");
  for (size_t i = 0; i < workloads.size(); ++i) {
    const SweepWorkload& workload = workloads[i];
    SweepMeasurement m = MeasureChase(
        workload, 3,
        registry.GetHistogram("phase." + workload.name + ".wall_ms"));
    const ChaseStats& stats = m.result.stats;
    std::printf("%-26s %-14s %8zu %9.2f %10zu %10zu %12llu %10llu\n",
                workload.name.c_str(), ChaseVariantName(workload.variant),
                m.result.steps, m.wall_ms, stats.core_full,
                stats.plan_core_certified,
                static_cast<unsigned long long>(stats.guard_search_nodes),
                static_cast<unsigned long long>(stats.guard_max_call_nodes));
    // One row per line: tools/check.sh reads the core rows' coring counts,
    // which must stay the last two fields.
    char buffer[768];
    std::snprintf(buffer, sizeof(buffer),
                  "    {\"name\": \"%s\", \"variant\": \"%s\", "
                  "\"rounds\": %zu, \"steps\": %zu, \"terminated\": %s, "
                  "\"wall_ms\": %.3f, \"triggers_found\": %zu, "
                  "\"triggers_considered\": %zu, \"full_enumerations\": %zu, "
                  "\"seed_probes\": %zu, \"matches_invalidated\": %zu, "
                  "\"peak_atoms\": %zu, \"final_atoms\": %zu, "
                  "\"derivation_bytes\": %zu, \"search_nodes\": %llu, "
                  "\"guard_nodes\": %llu, \"guard_max_nodes\": %llu, "
                  "\"core_full\": %zu, \"plan_core_proofs\": %zu, "
                  "\"plan_core_certified\": %zu}",
                  workload.name.c_str(), ChaseVariantName(workload.variant),
                  m.result.rounds, m.result.steps,
                  m.result.stop_reason == StopReason::kFixpoint ? "true"
                                                                : "false",
                  m.wall_ms, stats.triggers_found, stats.triggers_considered,
                  stats.full_enumerations, stats.seed_probes,
                  stats.matches_invalidated, stats.peak_instance_size,
                  m.result.derivation.Last().size(),
                  m.result.derivation.ApproxMemoryBytes(),
                  static_cast<unsigned long long>(stats.match_search_nodes),
                  static_cast<unsigned long long>(stats.guard_search_nodes),
                  static_cast<unsigned long long>(stats.guard_max_call_nodes),
                  stats.core_full,
                  stats.plan_core_proofs, stats.plan_core_certified);
    json += buffer;
    json += (i + 1 < workloads.size()) ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += RunMatchWorkloads(&registry) + ",\n";
  std::string large_instance = RunLargeInstanceSweep(&registry);
  if (large_instance.empty()) return 1;
  json += large_instance + ",\n";
  std::string service_sweep = RunServiceSweep(&registry);
  if (service_sweep.empty()) return 1;
  json += service_sweep + ",\n";
  std::string preflight_sweep = RunPreflightSweep(&registry);
  if (preflight_sweep.empty()) return 1;
  json += preflight_sweep + ",\n";
  json += "  \"metrics\": " + registry.ToJson(2) + "\n}\n";

  if (FILE* out = std::fopen(output_path, "w")) {
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::printf("\nwrote %s\n", output_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", output_path);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace twchase

int main(int argc, char** argv) {
  bool micro = false;
  const char* output_path = "BENCH_engine.json";
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--micro") == 0) {
      micro = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      output_path = argv[++i];
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!micro) return twchase::RunEngineSweep(output_path);
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
