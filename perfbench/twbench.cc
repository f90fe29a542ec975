// twbench: the twchase benchmark runner.
//
// Runs one named workload for a fixed wall-clock window through the public
// entry points (ParseProgram, ChaseSession, CQ evaluation, an in-process
// ChaseDaemon over loopback HTTP), checks every output, and prints the
// metrics. The last stdout line is one JSON object:
//
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (latency percentiles,
// throughput, CPU per op, peak RSS, setup time). With --trace 1 the same ops
// run again, alternately plain and traced, and the metrics are per layer:
// spans from a read-only ChaseObserver, counters from ChaseResult, and
// layer calls (ProveStillCore, ComputeCore, RunPreflight, ResumeChase)
// called again from this file on the run's own derivation. Nothing in src/ is
// instrumented. README.md in this directory documents every metric.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/generator.h"
#include "analysis/preflight.h"
#include "core/chase.h"
#include "core/checkpoint.h"
#include "core/session.h"
#include "hom/answers.h"
#include "hom/core.h"
#include "hom/matcher.h"
#include "obs/observer.h"
#include "parser/parser.h"
#include "plan/core_guard.h"
#include "service/daemon.h"
#include "service/http.h"
#include "service/json.h"
#include "tw/treewidth.h"

namespace {

using namespace twchase;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- basics

double Now() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Hex(uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%016" PRIx64, value);
  return buffer;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "twbench: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Linear-interpolation quantile of unsorted samples.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// The tail percentile is p90 at every sample count. A fixed rung keeps code
/// that gets faster (more samples in the window) from moving the metric to a
/// higher percentile; the windows are sized so that it has at least ten
/// samples beyond it.
double TailOf(const std::vector<double>& values) {
  return Quantile(values, 0.9);
}
constexpr const char* kTailNote = "(p90)";

/// splitmix64: the benchmark's own seed expander (inputs must not depend on
/// the standard library's distribution implementations).
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Balanced op schedule: repeatedly walks a seeded permutation of the input
/// family, so every run of any seed covers each input equally often.
class Schedule {
 public:
  Schedule(size_t size, uint64_t seed) : size_(size), state_(seed) {}

  size_t Next() {
    if (cursor_ == order_.size()) {
      order_.resize(size_);
      for (size_t i = 0; i < size_; ++i) order_[i] = i;
      for (size_t i = size_; i > 1; --i) {
        state_ = Mix(state_);
        std::swap(order_[i - 1], order_[state_ % i]);
      }
      cursor_ = 0;
    }
    return order_[cursor_++];
  }

 private:
  size_t size_;
  uint64_t state_;
  std::vector<size_t> order_;
  size_t cursor_ = 0;
};

// ---------------------------------------------------------------- args

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string data_dir = "data";
  std::string goldens = "perfbench/goldens.json";
  std::string work_dir = ".";
  std::string record_goldens;  // write goldens here instead of benchmarking
  bool tiny = false;           // self-test sizes
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "twbench: %s\nusage: twbench --workload W --seed N --seconds S "
               "--trace 0|1 [--data-dir D] [--goldens F] [--work-dir D] "
               "[--tiny] [--record-goldens F] [--git-sha S] "
               "[--source-digest S]\n",
               message);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else if (flag == "--data-dir") {
      args.data_dir = value;
    } else if (flag == "--goldens") {
      args.goldens = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--record-goldens") {
      args.record_goldens = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.record_goldens.empty() && args.workload.empty()) {
    Usage("--workload is required");
  }
  if (args.seconds <= 0) Usage("--seconds must be positive");
  return args;
}

// ---------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
  std::string note;
  bool table_only = false;  // printed as a line, left out of the JSON
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit, size_t samples,
           std::string note = "", bool table_only = false) {
    metrics_.push_back({std::move(name), value, std::move(unit), samples,
                        std::move(note), table_only});
  }

  /// Records one failed check (an op or a property); it counts into
  /// error_rate and makes the run incorrect.
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(what);
  }

  void Attempt(size_t n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    attempted_ += n;
  }

  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }

  /// Human-readable lines, then the one-line JSON result (last line).
  void Print(const Json& provenance) const {
    for (const std::string& failure : failures_) {
      std::printf("MISMATCH %s\n", failure.c_str());
    }
    std::printf("provenance %s\n", provenance.Dump().c_str());
    for (const Metric& m : metrics_) {
      std::printf("metric %-36s %.9g %s samples=%zu%s%s%s\n", m.name.c_str(),
                  m.value, m.unit.c_str(), m.samples, m.note.empty() ? "" : " ",
                  m.note.c_str(), m.table_only ? " (table only)" : "");
    }
    std::string json = "{\"correct\": ";
    json += failed_ == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : metrics_) {
      if (m.table_only) continue;
      char value[64];
      std::snprintf(value, sizeof value, "%.12g", m.value);
      json += first ? "" : ", ";
      json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
              m.unit + "\"}";
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  std::mutex mu_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------- spans

/// In-memory span store of the traced run, written out as JSONL at the end.
/// Trigger-level spans are only summed (tens of thousands per op); rounds,
/// phases, ops and requests are kept individually.
class SpanLog {
 public:
  int Begin(const char* name, int op, int parent) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, Now(), -1, parent, op});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int index) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(index)].end = Now();
  }
  void Add(const char* name, double start, double end, int op, int parent) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start, end, parent, op});
  }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof line,
                    "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                    "\"parent\":%d,\"op\":%d}\n",
                    i, s.name, s.start, s.end, s.parent, s.op);
      out << line;
    }
  }

  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
    int op;
  };
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Read-only observer of the traced run: splits the chase wall time into
/// establishment (RoundEnd -> next RoundBegin, and RunBegin -> round 1),
/// satisfaction checks (Considered -> next event, for triggers that were
/// not applied) and steps (Considered -> Applied: application plus coring),
/// and records the vocabulary's variable mark after every step, which the
/// guard recheck needs.
class LayerObserver : public ChaseObserver {
 public:
  LayerObserver(const Vocabulary* vocab, SpanLog* log, int op, int parent)
      : vocab_(vocab), log_(log), op_(op), parent_(parent) {}

  double establish_s = 0;
  double check_s = 0;
  double step_s = 0;
  std::vector<uint32_t> mark_after;  // [i] = num_variables after step i
  std::vector<char> cored;           // [i] = step i was cored
  size_t event_folds = 0;            // folds of per-step corings

  void OnRunBegin(const RunBeginEvent&) override {
    mark_after.assign(1, Mark());
    cored.assign(1, 0);
    establish_start_ = Now();
  }
  void OnRoundBegin(const RoundBeginEvent&) override {
    if (establish_start_ >= 0) {
      double now = Now();
      establish_s += now - establish_start_;
      log_->Add("core.establish", establish_start_, now, op_, parent_);
      establish_start_ = -1;
    }
  }
  void OnTriggerConsidered(const TriggerConsideredEvent&) override {
    CloseTrigger(false);
    trigger_start_ = Now();
  }
  void OnTriggerApplied(const TriggerAppliedEvent& event) override {
    CloseTrigger(true);
    mark_after.resize(event.step + 1, 0);
    cored.resize(event.step + 1, 0);
    mark_after[event.step] = Mark();
  }
  void OnTriggerRetired(const TriggerRetiredEvent& event) override {
    // Monotone variants retire an applied match before announcing the
    // application; the span closes at OnTriggerApplied.
    if (event.reason == TriggerRetireReason::kApplied) return;
    CloseTrigger(false);
  }
  void OnCoreRetraction(const CoreRetractionEvent& event) override {
    if (event.step == 0) return;
    cored[event.step] = 1;
    event_folds += event.folds;
  }
  void OnRoundEnd(const RoundEndEvent&) override {
    CloseTrigger(false);
    establish_start_ = Now();
  }
  void OnRunEnd(const RunEndEvent&) override {
    CloseTrigger(false);
    establish_start_ = -1;
  }

 private:
  uint32_t Mark() const {
    return static_cast<uint32_t>(vocab_->num_variables());
  }
  void CloseTrigger(bool applied) {
    if (trigger_start_ < 0) return;
    (applied ? step_s : check_s) += Now() - trigger_start_;
    trigger_start_ = -1;
  }

  const Vocabulary* vocab_;
  SpanLog* log_;
  int op_;
  int parent_;
  double establish_start_ = -1;
  double trigger_start_ = -1;
};

/// Calls again the still-core guard for every cored step on the run's own
/// derivation — ProveStillCore(F_{i-1} ∪ added, added since the last
/// certification, mark at that certification) — and ComputeCore where the
/// guard withholds its certificate. Parity with the run's counters is the
/// caller's check.
struct GuardRecheck {
  double guard_s = 0;
  double core_s = 0;
  size_t proofs = 0;
  size_t certified = 0;
  size_t core_calls = 0;
  size_t folds = 0;
};

GuardRecheck RecheckGuard(const Derivation& derivation,
                          const LayerObserver& observer, SpanLog* log, int op,
                          int parent) {
  GuardRecheck out;
  size_t base = 0;
  std::vector<Atom> since;
  for (size_t i = 1; i < derivation.size(); ++i) {
    const DerivationStep& step = derivation.step(i);
    since.insert(since.end(), step.added_atoms.begin(), step.added_atoms.end());
    if (i >= observer.cored.size() || !observer.cored[i]) continue;
    AtomSet pre = derivation.PreSimplification(i);
    double start = Now();
    CoreGuardOutcome guard =
        ProveStillCore(pre, since, observer.mark_after[base]);
    double end = Now();
    out.guard_s += end - start;
    log->Add("plan.guard", start, end, op, parent);
    ++out.proofs;
    if (guard.certified) {
      ++out.certified;
    } else {
      start = Now();
      CoreResult core = ComputeCore(pre);
      end = Now();
      out.core_s += end - start;
      log->Add("hom.core", start, end, op, parent);
      ++out.core_calls;
      out.folds += core.folds;
    }
    base = i;
    since.clear();
  }
  return out;
}

// ---------------------------------------------------------------- chase ops

/// What an op must reproduce: the final instance (content hash and size),
/// steps, stop reason and the CQ verdicts ("E"/"N" for Boolean queries,
/// "A<count>" for certain-answer queries).
struct Outcome {
  std::string hash;
  size_t size = 0;
  size_t steps = 0;
  size_t rounds = 0;
  std::string stop;
  std::string verdicts;

  std::string Describe() const {
    return "hash=" + hash + " size=" + std::to_string(size) +
           " steps=" + std::to_string(steps) + " rounds=" +
           std::to_string(rounds) + " stop=" + stop + " cq=" + verdicts;
  }
  bool operator==(const Outcome& other) const {
    return Describe() == other.Describe();
  }
  /// Matches a golden; a golden with rounds == 0 leaves rounds unchecked.
  bool Matches(const Outcome& golden) const {
    Outcome self = *this;
    if (golden.rounds == 0) self.rounds = 0;
    return self == golden;
  }
};

std::string EvalQueries(const ParsedProgram& program, const AtomSet& instance) {
  std::string verdicts;
  for (const ParsedQuery& query : program.queries) {
    if (!verdicts.empty()) verdicts += ",";
    if (query.answer_vars.empty()) {
      verdicts += ExistsHomomorphism(query.atoms, instance) ? "E" : "N";
    } else {
      AnswerOptions options;
      options.ground_only = true;
      verdicts += "A" + std::to_string(AnswerQuery(instance, query.atoms,
                                                   query.answer_vars, options)
                                           .size());
    }
  }
  return verdicts;
}

Outcome OutcomeOf(const ChaseResult& run, const std::string& verdicts) {
  Outcome o;
  o.hash = Hex(run.derivation.Last().ContentHash());
  o.size = run.derivation.Last().size();
  o.steps = run.steps;
  o.rounds = run.rounds;
  o.stop = StopReasonName(run.stop_reason);
  o.verdicts = verdicts;
  return o;
}

/// One benchmark input: a program text plus the options it runs under.
struct Input {
  std::string id;  // golden key
  std::string program;
  ChaseOptions options;
  std::string wire_variant;  // daemon submissions: "core", "auto", ...
  bool long_job = false;     // daemon-mixed: long elevator job
  enum class Property { kNone, kIsCore, kTreewidthAtMost2 } property =
      Property::kNone;
  bool has_oracle = false;   // datalog-closure: expected outcome computed
  Outcome oracle;            //   independently from the graph
};

ChaseOptions VariantOptions(ChaseVariant variant, size_t max_steps) {
  ChaseOptions options;  // library defaults: one thread, plan on, delta on
  options.variant = variant;
  options.limits.max_steps = max_steps;
  return options;
}

/// Per-op layer measurements of a traced op.
struct OpLayers {
  double parse_s = 0;
  double chase_s = 0;
  double query_s = 0;
  double establish_s = 0;
  double check_s = 0;
  double step_s = 0;
  ChaseStats stats;
  size_t steps = 0;
  size_t rounds = 0;
  size_t final_size = 0;
  double final_bytes = 0;
  uint64_t query_probes = 0;
  uint64_t query_scans = 0;
  uint64_t query_fallbacks = 0;
  GuardRecheck recheck;
  bool parity_ok = true;
  std::string parity_error;
};

struct OpResult {
  bool ok = false;
  std::string error;
  double latency = 0;
  Outcome outcome;
};

/// One library op: parse, chase through a session, answer the CQs. With
/// `layers` set the op is traced (observer attached, layer calls timed) and
/// the guard recheck plus its parity check run after the op's latency was
/// taken.
OpResult RunLibraryOp(const Input& input, OpLayers* layers, SpanLog* log,
                      int op) {
  OpResult out;
  double start = Now();
  int op_span = layers ? log->Begin("op", op, -1) : -1;
  double t = Now();
  auto program = ParseProgram(input.program);
  if (layers) {
    layers->parse_s = Now() - t;
    log->Add("parser.parse", t, Now(), op, op_span);
  }
  if (!program.ok()) {
    out.error = "parse: " + program.status().ToString();
    return out;
  }
  ChaseOptions options = input.options;
  if (options.preflight.auto_variant) {
    // What the daemon does on a job's first segment.
    auto resolved =
        ResolveAutoVariant(program->kb, PreflightOptions{}, &options);
    if (!resolved.ok()) {
      out.error = "preflight: " + resolved.status().ToString();
      return out;
    }
  }
  std::unique_ptr<LayerObserver> observer;
  int chase_span = -1;
  if (layers) {
    chase_span = log->Begin("core.chase", op, op_span);
    observer = std::make_unique<LayerObserver>(program->kb.vocab.get(), log, op,
                                               chase_span);
    options.observer = observer.get();
  }
  auto session = ChaseSession::Create(program->kb, options);
  if (!session.ok()) {
    out.error = "session: " + session.status().ToString();
    return out;
  }
  t = Now();
  Status started = (*session)->Start();
  if (layers) {
    layers->chase_s = Now() - t;
    log->End(chase_span);
  }
  if (!started.ok()) {
    out.error = "chase: " + started.ToString();
    return out;
  }
  const ChaseResult& run = (*session)->Result();
  const AtomSet& instance = run.derivation.Last();
  std::string verdicts;
  if (layers) {
    MatchCounters counters;
    t = Now();
    {
      MatchCountersScope scope(&counters);
      verdicts = EvalQueries(*program, instance);
    }
    layers->query_s = Now() - t;
    log->Add("hom.query", t, Now(), op, op_span);
    layers->query_probes = counters.index_probes.load();
    layers->query_scans = counters.column_scans.load();
    layers->query_fallbacks = counters.join_fallbacks.load();
  } else {
    verdicts = EvalQueries(*program, instance);
  }
  out.latency = Now() - start;
  if (layers) log->End(op_span);
  out.outcome = OutcomeOf(run, verdicts);
  out.ok = true;

  if (layers) {
    layers->establish_s = observer->establish_s;
    layers->check_s = observer->check_s;
    layers->step_s = observer->step_s;
    layers->stats = run.stats;
    layers->steps = run.steps;
    layers->rounds = run.rounds;
    layers->final_size = instance.size();
    layers->final_bytes = static_cast<double>(instance.ApproxMemoryBytes());
    if (options.variant == ChaseVariant::kCore) {
      int recheck_span = log->Begin("recheck", op, -1);
      layers->recheck =
          RecheckGuard(run.derivation, *observer, log, op, recheck_span);
      log->End(recheck_span);
      const GuardRecheck& r = layers->recheck;
      if (r.proofs != run.stats.plan_core_proofs ||
          r.certified != run.stats.plan_core_certified ||
          r.folds != observer->event_folds) {
        layers->parity_ok = false;
        layers->parity_error =
            input.id + ": guard recheck proofs/certified/folds " +
            std::to_string(r.proofs) + "/" + std::to_string(r.certified) + "/" +
            std::to_string(r.folds) + " vs run " +
            std::to_string(run.stats.plan_core_proofs) + "/" +
            std::to_string(run.stats.plan_core_certified) + "/" +
            std::to_string(observer->event_folds);
      }
    }
  }
  return out;
}

/// Checks the paper property of an input on a fresh, untimed run: elevator
/// results are cores (IsCore); every staircase element has treewidth <= 2.
std::string CheckProperty(const Input& input) {
  if (input.property == Input::Property::kNone) return "";
  auto program = ParseProgram(input.program);
  if (!program.ok()) return "parse failed";
  auto run = RunChase(program->kb, input.options);
  if (!run.ok()) return "chase failed: " + run.status().ToString();
  if (input.property == Input::Property::kIsCore) {
    return IsCore(run->derivation.Last()) ? "" : "result is not a core";
  }
  for (size_t i = 0; i < run->derivation.size(); ++i) {
    TreewidthResult tw = ComputeTreewidth(run->derivation.Instance(i));
    if (tw.upper_bound > 2) {
      return "element F_" + std::to_string(i) + " has treewidth bound " +
             std::to_string(tw.upper_bound);
    }
  }
  return "";
}

// ---------------------------------------------------------------- inputs

std::vector<size_t> ElevatorBudgets(bool tiny) {
  return tiny ? std::vector<size_t>{20, 24}
              : std::vector<size_t>{49, 50, 51, 52};
}
std::vector<size_t> StaircaseBudgets(bool tiny) {
  return tiny ? std::vector<size_t>{40, 50}
              : std::vector<size_t>{196, 198, 200, 202, 204};
}

std::vector<Input> BudgetFamily(const std::string& name,
                                const std::string& program,
                                const std::vector<size_t>& budgets,
                                Input::Property property) {
  std::vector<Input> inputs;
  for (size_t budget : budgets) {
    Input input;
    input.id = name + "/steps=" + std::to_string(budget);
    input.program = program;
    input.options = VariantOptions(ChaseVariant::kCore, budget);
    input.wire_variant = "core";
    input.property = property;
    inputs.push_back(std::move(input));
  }
  return inputs;
}

/// Transitive closure over a path-like digraph: the path n0 -> ... ->
/// n_{k-1} plus seeded forward skip edges, so the closure is exactly every
/// pair i < j whatever the skip edges.
Input ClosureInput(size_t nodes, uint64_t graph_seed) {
  std::set<std::pair<size_t, size_t>> edges;
  for (size_t i = 0; i + 1 < nodes; ++i) edges.insert({i, i + 1});
  uint64_t state = graph_seed;
  for (size_t k = 0; k < nodes / 2; ++k) {
    state = Mix(state);
    size_t from = state % (nodes - 2);
    size_t hop = 2 + (state >> 32) % 5;
    edges.insert({from, std::min(nodes - 1, from + hop)});
  }
  std::string text = "% transitive closure, seeded path-like digraph\n";
  bool first = true;
  for (const auto& [from, to] : edges) {
    text += first ? "" : ", ";
    text += "e(n" + std::to_string(from) + ", n" + std::to_string(to) + ")";
    first = false;
  }
  text += ".\n[T1] tc(X, Y) :- e(X, Y).\n[T2] tc(X, Z) :- tc(X, Y), e(Y, Z).\n";
  text += "? :- tc(n0, n" + std::to_string(nodes - 1) + ").\n";
  text += "? :- tc(n" + std::to_string(nodes - 1) + ", n0).\n";

  Input input;
  input.id = "closure/n=" + std::to_string(nodes) + "/graph=" +
             std::to_string(graph_seed);
  input.program = std::move(text);
  input.options = VariantOptions(ChaseVariant::kRestricted, 10'000'000);
  // One snapshot per step would hold O(steps * atoms) memory on a closure
  // of this size (as in bench_engine's large_instance rows).
  input.options.keep_snapshots = false;
  input.wire_variant = "restricted";

  return input;
}

/// The closure golden, computed independently of the engine: reachability
/// by depth-first search over the program's own e-facts, and the expected
/// instance built by hand. Runs outside the set-up timing, because it is the
/// benchmark's check, not work a user waits for before the first op.
void AddClosureOracle(Input* input) {
  auto program = ParseProgram(input->program);
  if (!program.ok()) {
    std::fprintf(stderr, "twbench: closure program does not parse\n");
    std::exit(2);
  }
  PredicateId tc = *program->kb.vocab->FindPredicate("tc");
  std::unordered_map<Term, std::vector<Term>, TermHash> next;
  program->kb.facts.ForEach(
      [&](const Atom& edge) { next[edge.arg(0)].push_back(edge.arg(1)); });
  AtomSet expected = program->kb.facts;
  size_t pairs = 0;
  for (const auto& [source, successors] : next) {
    std::unordered_set<Term, TermHash> seen;
    std::vector<Term> stack = successors;
    while (!stack.empty()) {
      Term node = stack.back();
      stack.pop_back();
      if (!seen.insert(node).second) continue;
      ++pairs;
      expected.Insert(Atom(tc, {source, node}));
      auto more = next.find(node);
      if (more != next.end()) {
        stack.insert(stack.end(), more->second.begin(), more->second.end());
      }
    }
  }
  input->has_oracle = true;
  input->oracle.hash = Hex(expected.ContentHash());
  input->oracle.size = expected.size();
  input->oracle.steps = pairs;  // one datalog application per derived atom
  input->oracle.stop = StopReasonName(StopReason::kFixpoint);
  input->oracle.rounds = 0;  // not predicted by the oracle: unchecked
  input->oracle.verdicts = "E,N";
}

size_t ClosureNodes(bool tiny) { return tiny ? 24 : 220; }
constexpr size_t kClosureGraphs = 5;

std::vector<Input> LibraryInputs(const Args& args) {
  if (args.workload == "elevator-core") {
    return BudgetFamily("elevator",
                        ReadFile(args.data_dir + "/elevator.twc"),
                        ElevatorBudgets(args.tiny), Input::Property::kIsCore);
  }
  if (args.workload == "staircase-core") {
    return BudgetFamily("staircase",
                        ReadFile(args.data_dir + "/staircase.twc"),
                        StaircaseBudgets(args.tiny),
                        Input::Property::kTreewidthAtMost2);
  }
  // A fixed family of graphs, as for the budget families: the seed orders
  // the ops, so every seed measures the same inputs.
  std::vector<Input> inputs;
  for (size_t g = 0; g < kClosureGraphs; ++g) {
    inputs.push_back(ClosureInput(ClosureNodes(args.tiny), Mix(g + 1)));
  }
  return inputs;
}

/// The daemon's job mix, fixed like the library families (the seed orders
/// each client's picks). Long: elevator core jobs. Short: corpus programs
/// and two twgen programs (fes and core-bts classes) as variant=auto jobs,
/// plus small staircase core runs. Programs whose preflight runs into its
/// two-second dynamic-tier deadline (bts_1, non_terminating_*, and the
/// generator's bts / non-terminating classes) are left out: they are not
/// short, and a deadline-bound verdict is not reproducible under load.
std::vector<Input> DaemonInputs(const Args& args) {
  std::vector<Input> inputs;
  std::string elevator = ReadFile(args.data_dir + "/elevator.twc");
  std::vector<size_t> long_budgets =
      args.tiny ? std::vector<size_t>{30} : std::vector<size_t>{60, 64, 68};
  for (Input& input : BudgetFamily("elevator", elevator, long_budgets,
                                   Input::Property::kNone)) {
    input.long_job = true;
    inputs.push_back(std::move(input));
  }
  const size_t short_budget = 40;
  auto add_auto = [&](std::string id, std::string program) {
    Input input;
    input.id = std::move(id);
    input.program = std::move(program);
    input.options = VariantOptions(ChaseVariant::kRestricted, short_budget);
    input.options.preflight.auto_variant = true;
    input.wire_variant = "auto";
    inputs.push_back(std::move(input));
  };
  for (const char* name : {"fes_1", "fes_2", "fes_3", "bts_2", "bts_3",
                           "core_bts_1", "core_bts_2", "core_bts_3"}) {
    add_auto(std::string("corpus/") + name,
             ReadFile(args.data_dir + "/corpus/" + name + ".twc"));
  }
  for (GeneratedClass label : {GeneratedClass::kFes, GeneratedClass::kCoreBts}) {
    GeneratorOptions options;
    options.label = label;
    options.seed = 100 + static_cast<uint64_t>(label);
    add_auto(std::string("twgen/") + GeneratedClassName(label) + "/" +
                 std::to_string(options.seed),
             GenerateProgram(options).text);
  }
  for (Input& input :
       BudgetFamily("staircase", ReadFile(args.data_dir + "/staircase.twc"),
                    {30, 40, 50}, Input::Property::kNone)) {
    inputs.push_back(std::move(input));
  }
  return inputs;
}

// ---------------------------------------------------------------- goldens

Json LoadGoldens(const std::string& path) {
  auto parsed = Json::Parse(ReadFile(path));
  if (!parsed.ok() || !parsed->is_object()) {
    std::fprintf(stderr, "twbench: malformed goldens %s\n", path.c_str());
    std::exit(2);
  }
  return *parsed;
}

Json GoldenJson(const Outcome& o) {
  Json json = Json::Object();
  json.Set("hash", Json::String(o.hash));
  json.Set("size", Json::Number(uint64_t{o.size}));
  json.Set("steps", Json::Number(uint64_t{o.steps}));
  json.Set("rounds", Json::Number(uint64_t{o.rounds}));
  json.Set("stop", Json::String(o.stop));
  json.Set("verdicts", Json::String(o.verdicts));
  return json;
}

Outcome GoldenOutcome(const Json& json) {
  Outcome o;
  o.hash = json.Get("hash").string_value();
  o.size = static_cast<size_t>(json.Get("size").number_value());
  o.steps = static_cast<size_t>(json.Get("steps").number_value());
  o.rounds = static_cast<size_t>(json.Get("rounds").number_value());
  o.stop = json.Get("stop").string_value();
  o.verdicts = json.Get("verdicts").string_value();
  return o;
}

int RecordGoldens(const Args& base) {
  Json root = Json::Object();
  for (const char* workload : {"elevator-core", "staircase-core"}) {
    Json entries = Json::Object();
    for (bool tiny : {false, true}) {
      Args args = base;
      args.workload = workload;
      args.tiny = tiny;
      for (const Input& input : LibraryInputs(args)) {
        OpResult result = RunLibraryOp(input, nullptr, nullptr, 0);
        if (!result.ok) {
          std::fprintf(stderr, "twbench: %s failed: %s\n", input.id.c_str(),
                       result.error.c_str());
          return 1;
        }
        entries.Set(input.id, GoldenJson(result.outcome));
      }
    }
    root.Set(workload, std::move(entries));
  }
  std::ofstream out(base.record_goldens);
  out << root.Dump(0) << "\n";
  return out ? 0 : 1;
}


// ---------------------------------------------------------------- layers

/// Layer calls the traced run calls again outside the timed ops.
struct LayerExtras {
  std::vector<double> preflight_s;     // RunPreflight per program
  std::vector<double> replay_s;        // ResumeChase, no extra budget
  std::vector<double> first_step_s;    // ... and the one extra live step
  // Service layer (daemon-mixed only; zero elsewhere).
  std::vector<double> submit_s, poll_s, result_s, run_s, wait_s, segments;
  double preemptions_per_job = 0;
  double store_bytes_per_job = 0;
  double overhead_ratio = 1;
};

/// Times RunPreflight on an input's program (kb is never mutated).
void TimePreflight(const Input& input, LayerExtras* extras, SpanLog* log) {
  auto program = ParseProgram(input.program);
  if (!program.ok()) return;
  double start = Now();
  RunPreflight(program->kb, PreflightOptions{});
  extras->preflight_s.push_back(Now() - start);
  log->Add("analysis.preflight", start, Now(), -1, -1);
}

/// Resumes `checkpoint` twice on fresh parses: with no extra budget (pure
/// replay), then with one more step. The replay must land on the
/// checkpoint's instance hash; a mismatch is returned instead of a number.
std::string TimeResume(const Input& input, const ChaseCheckpoint& checkpoint,
                       LayerExtras* extras, SpanLog* log) {
  double seconds[2] = {0, 0};
  for (int extra = 0; extra < 2; ++extra) {
    auto program = ParseProgram(input.program);
    if (!program.ok()) return "re-parse failed";
    ChaseOptions options = input.options;
    if (options.preflight.auto_variant) {
      auto resolved =
          ResolveAutoVariant(program->kb, PreflightOptions{}, &options);
      if (!resolved.ok()) return "preflight failed";
    }
    options.limits.max_steps = checkpoint.steps + static_cast<size_t>(extra);
    double start = Now();
    auto run = ResumeChase(program->kb, options, checkpoint);
    seconds[extra] = Now() - start;
    log->Add(extra == 0 ? "core.replay" : "core.resume_step", start, Now(), -1,
             -1);
    if (!run.ok()) return "resume failed: " + run.status().ToString();
    if (extra == 0 &&
        (run->derivation.Last().ContentHash() != checkpoint.instance_hash ||
         run->steps != checkpoint.steps)) {
      return "replay landed on " + Hex(run->derivation.Last().ContentHash()) +
             " at step " + std::to_string(run->steps) + ", checkpoint has " +
             Hex(checkpoint.instance_hash) + " at step " +
             std::to_string(checkpoint.steps);
    }
  }
  extras->replay_s.push_back(seconds[0]);
  extras->first_step_s.push_back(std::max(0.0, seconds[1] - seconds[0]));
  return "";
}

/// Library inputs: checkpoint a recorded run at half the expected steps,
/// then time the resume.
std::string TimeLibraryResume(const Input& input, LayerExtras* extras,
                              SpanLog* log) {
  auto program = ParseProgram(input.program);
  if (!program.ok()) return "parse failed";
  ChaseOptions options = input.options;
  options.resume.record_log = true;
  options.limits.max_steps =
      (input.has_oracle ? input.oracle.steps : options.limits.max_steps) / 2;
  auto run = RunChase(program->kb, options);
  if (!run.ok()) return "recorded run failed";
  if (run->stop_reason == StopReason::kFixpoint) {
    return "";  // terminated before the halfway checkpoint: nothing to resume
  }
  return TimeResume(input, MakeCheckpoint(program->kb, options, *run), extras,
                    log);
}

void AddLayerMetrics(const std::vector<OpLayers>& layers,
                     const LayerExtras& extras, Report* report) {
  size_t t = layers.size();
  auto mean_of = [&](auto field) {
    std::vector<double> values;
    for (const OpLayers& l : layers) values.push_back(double(field(l)));
    return Mean(values);
  };
  double considered =
      mean_of([](const OpLayers& l) { return l.stats.triggers_considered; });
  double steps = mean_of([](const OpLayers& l) { return l.steps; });
  double proofs = mean_of([](const OpLayers& l) { return l.recheck.proofs; });
  double certified =
      mean_of([](const OpLayers& l) { return l.recheck.certified; });
  auto add = [&](const char* name, double value, const char* unit,
                 size_t samples) { report->Add(name, value, unit, samples); };
  add("core.chase_s", mean_of([](const OpLayers& l) { return l.chase_s; }), "s", t);
  add("core.establish_s", mean_of([](const OpLayers& l) { return l.establish_s; }), "s", t);
  add("core.check_s", mean_of([](const OpLayers& l) { return l.check_s; }), "s", t);
  add("core.step_s", mean_of([](const OpLayers& l) { return l.step_s; }), "s", t);
  add("core.triggers_considered", considered, "count", t);
  add("core.steps", steps, "count", t);
  add("core.rounds", mean_of([](const OpLayers& l) { return l.rounds; }), "count", t);
  add("core.apply_ratio", considered > 0 ? steps / considered : 0, "ratio", t);
  add("core.seed_probes", mean_of([](const OpLayers& l) { return l.stats.seed_probes; }), "count", t);
  add("core.full_enumerations", mean_of([](const OpLayers& l) { return l.stats.full_enumerations; }), "count", t);
  add("core.matches_invalidated", mean_of([](const OpLayers& l) { return l.stats.matches_invalidated; }), "count", t);
  add("core.peak_atoms", mean_of([](const OpLayers& l) { return l.stats.peak_instance_size; }), "count", t);
  add("plan.guard_s", mean_of([](const OpLayers& l) { return l.recheck.guard_s; }), "s", t);
  add("plan.core_proofs", proofs, "count", t);
  add("plan.core_certified", certified, "count", t);
  add("plan.certify_ratio", proofs > 0 ? certified / proofs : 0, "ratio", t);
  add("hom.core_s", mean_of([](const OpLayers& l) { return l.recheck.core_s; }), "s", t);
  add("hom.core_calls", mean_of([](const OpLayers& l) { return l.recheck.core_calls; }), "count", t);
  add("hom.folds", mean_of([](const OpLayers& l) { return l.recheck.folds; }), "count", t);
  add("hom.query_s", mean_of([](const OpLayers& l) { return l.query_s; }), "s", t);
  add("hom.index_probes", mean_of([](const OpLayers& l) { return l.stats.match_index_probes + l.query_probes; }), "count", t);
  add("hom.column_scans", mean_of([](const OpLayers& l) { return l.stats.match_column_scans + l.query_scans; }), "count", t);
  add("hom.join_fallbacks", mean_of([](const OpLayers& l) { return l.stats.match_join_fallbacks + l.query_fallbacks; }), "count", t);
  add("model.index_builds", mean_of([](const OpLayers& l) { return l.stats.match_index_builds; }), "count", t);
  add("model.index_build_bytes_per_atom", mean_of([](const OpLayers& l) { return double(l.stats.match_index_build_bytes) / double(std::max<size_t>(1, l.final_size)); }), "B", t);
  add("model.bytes_per_atom", mean_of([](const OpLayers& l) { return l.final_bytes / double(std::max<size_t>(1, l.final_size)); }), "B", t);
  add("parser.parse_s", mean_of([](const OpLayers& l) { return l.parse_s; }), "s", t);
  add("analysis.preflight_s", Mean(extras.preflight_s), "s", extras.preflight_s.size());
  add("core.replay_s", Mean(extras.replay_s), "s", extras.replay_s.size());
  add("core.resume_first_step_s", Mean(extras.first_step_s), "s", extras.first_step_s.size());
  add("service.submit_s", Median(extras.submit_s), "s", extras.submit_s.size());
  add("service.poll_s", Median(extras.poll_s), "s", extras.poll_s.size());
  add("service.result_s", Median(extras.result_s), "s", extras.result_s.size());
  add("service.run_s_per_job", Mean(extras.run_s), "s", extras.run_s.size());
  add("service.wait_s_per_job", Mean(extras.wait_s), "s", extras.wait_s.size());
  add("service.segments_per_job", Mean(extras.segments), "count", extras.segments.size());
  add("service.preemptions", extras.preemptions_per_job, "count", extras.segments.size());
  add("job_store.bytes_per_job", extras.store_bytes_per_job, "B", extras.segments.size());
  add("trace.overhead_ratio", extras.overhead_ratio, "ratio", t);
}

/// The end-to-end metrics shared by every workload; `latencies` are the
/// op latencies answer_s summarises. The median, throughput and CPU per op
/// are table lines: on a shared host they follow the share of the window in
/// which a neighbour contends for the core, which changes from run to run,
/// while the p90 sits in the contended mode and holds steady.
void AddEndToEndMetrics(const std::vector<double>& setups,
                        const std::vector<double>& latencies, size_t ops,
                        double elapsed, double cpu, double peak_rss,
                        Report* report) {
  size_t n = latencies.size();
  report->Add("setup_s", Median(setups), "s", setups.size());
  report->Add("answer_s.tail", TailOf(latencies), "s", n, kTailNote);
  report->Add("peak_rss_mb", peak_rss, "MB", 1);
  report->Add("answer_s.p50", Median(latencies), "s", n, "", true);
  report->Add("ops_per_s", static_cast<double>(ops) / elapsed, "1/s", ops, "",
              true);
  report->Add("cpu_s_per_op", cpu / static_cast<double>(std::max<size_t>(1, ops)),
              "s", ops, "", true);
}

void AddErrorRate(Report* report) {
  report->Add("error_rate",
              static_cast<double>(report->failed()) /
                  static_cast<double>(std::max<size_t>(1, report->attempted())),
              "ratio", report->attempted(), "", true);
}

// ---------------------------------------------------------------- library

void RunLibraryWorkload(const Args& args, Report* report, SpanLog* log) {
  Json goldens = args.workload == "datalog-closure" ? Json::Object()
                                                    : LoadGoldens(args.goldens);
  const Json& family_goldens = goldens.Get(args.workload);

  // Set-up: build the inputs (read or generate) and run one warm-up op. The
  // median of kSetups repetitions is setup_s. The first runs before the
  // window; the others are spread evenly through it, so that they sample
  // the host over the whole run and not only its first seconds. They share
  // the window with the ops; its op count, time and CPU exclude them.
  constexpr int kSetups = 11;
  std::vector<double> setups;
  double setup_cpu = 0;
  auto set_up = [&] {
    double cpu = CpuSeconds();
    double start = Now();
    std::vector<Input> fresh = LibraryInputs(args);
    RunLibraryOp(fresh[0], nullptr, nullptr, 0);
    setups.push_back(Now() - start);
    setup_cpu += CpuSeconds() - cpu;
    return fresh;
  };
  std::vector<Input> inputs = set_up();
  if (args.workload == "datalog-closure") {
    for (Input& input : inputs) AddClosureOracle(&input);
  }

  auto expected_of = [&](const Input& input, Outcome* expected) {
    if (input.has_oracle) {
      *expected = input.oracle;
      return true;
    }
    if (!family_goldens.Has(input.id)) return false;
    *expected = GoldenOutcome(family_goldens.Get(input.id));
    return true;
  };

  // --trace 1 alternates plain and traced ops over the same schedule, so
  // the two halves see the same input mix (the overhead ratio compares them).
  const bool traced_run = args.trace == 1;
  Schedule schedule(inputs.size(), Mix(args.seed));
  std::vector<double> latencies;         // untraced ops
  std::vector<double> traced_latencies;  // traced ops
  std::vector<OpLayers> layers;
  std::map<std::string, std::map<bool, Outcome>> seen;  // id -> traced -> out
  size_t ops = 0;

  setup_cpu = 0;  // only the repetitions inside the window are subtracted
  double cpu0 = CpuSeconds();
  double start = Now();
  double deadline = start + args.seconds;
  double setup_time = 0;  // spent on set-ups inside the window
  while (Now() < deadline) {
    if (static_cast<int>(setups.size()) < kSetups &&
        Now() - start >= args.seconds * static_cast<double>(setups.size()) /
                             static_cast<double>(kSetups)) {
      double before = Now();
      set_up();
      setup_time += Now() - before;
      continue;
    }
    const Input& input = inputs[schedule.Next()];
    const bool traced = traced_run && ops % 2 == 1;
    OpLayers op_layers;
    OpResult result = RunLibraryOp(input, traced ? &op_layers : nullptr, log,
                                   static_cast<int>(ops));
    ++ops;
    report->Attempt();
    if (!result.ok) {
      report->Fail(input.id + ": " + result.error);
      continue;
    }
    Outcome expected;
    if (!expected_of(input, &expected)) {
      report->Fail(input.id + ": no golden recorded");
    } else if (!result.outcome.Matches(expected)) {
      report->Fail(input.id + ": got " + result.outcome.Describe() +
                   " want " + expected.Describe());
    }
    auto [it, fresh] = seen[input.id].emplace(traced, result.outcome);
    if (!fresh && !(it->second == result.outcome)) {
      report->Fail(input.id + ": outcome changed between identical ops");
    }
    if (traced) {
      traced_latencies.push_back(result.latency);
      if (!op_layers.parity_ok) report->Fail(op_layers.parity_error);
      layers.push_back(std::move(op_layers));
    } else {
      latencies.push_back(result.latency);
    }
  }
  double elapsed = Now() - start - setup_time;
  double cpu = CpuSeconds() - cpu0 - setup_cpu;
  double peak_rss = PeakRssMb();

  for (const auto& [id, by_mode] : seen) {
    if (by_mode.size() == 2 && !(by_mode.at(false) == by_mode.at(true))) {
      report->Fail(id + ": traced and untraced outcomes differ");
    }
  }
  // Paper properties, once per input, outside the timed window.
  for (const Input& input : inputs) {
    if (input.property == Input::Property::kNone) continue;
    report->Attempt();
    std::string problem = CheckProperty(input);
    if (!problem.empty()) report->Fail(input.id + ": " + problem);
  }

  if (!traced_run) {
    AddEndToEndMetrics(setups, latencies, ops, elapsed, cpu, peak_rss, report);
    AddErrorRate(report);
    return;
  }
  LayerExtras extras;
  std::set<std::string> preflighted;  // the budget family shares one program
  for (const Input& input : inputs) {
    if (preflighted.insert(input.program).second) {
      TimePreflight(input, &extras, log);
    }
    report->Attempt();
    std::string problem = TimeLibraryResume(input, &extras, log);
    if (!problem.empty()) report->Fail(input.id + ": " + problem);
  }
  extras.overhead_ratio = Median(traced_latencies) / Median(latencies);
  AddLayerMetrics(layers, extras, report);
}

// ---------------------------------------------------------------- daemon

struct JobRecord {
  size_t input = 0;
  std::string id;
  bool ok = false;
  std::string error;
  double latency = 0;
  double submit_s = 0;
  double result_s = 0;
  std::vector<double> poll_s;
  Json result;
};

/// One HTTP exchange; the body parsed as JSON. Any status other than
/// `want_status` is an error (429 included).
StatusOr<Json> Exchange(uint16_t port, const char* method,
                        const std::string& target, const std::string& body,
                        int want_status, double* seconds) {
  double start = Now();
  auto response = HttpFetch("127.0.0.1", port, method, target, body);
  *seconds = Now() - start;
  if (!response.ok()) return response.status();
  if (response->status != want_status) {
    return Status::Internal(std::string(method) + " " + target + " answered " +
                            std::to_string(response->status) + ": " +
                            response->body.substr(0, 200));
  }
  return Json::Parse(response->body);
}

std::string SubmitBody(const Input& input, const std::string& tenant) {
  Json limits = Json::Object();
  limits.Set("max_steps", Json::Number(uint64_t{input.options.limits.max_steps}));
  Json options = Json::Object();
  options.Set("variant", Json::String(input.wire_variant));
  options.Set("limits", std::move(limits));
  Json body = Json::Object();
  body.Set("schema_version", Json::Number(uint64_t{kWireSchemaVersion}));
  body.Set("tenant", Json::String(tenant));
  body.Set("program", Json::String(input.program));
  body.Set("options", std::move(options));
  return body.Dump();
}

/// submit -> poll until terminal -> fetch the result. The latency ends when
/// the result is in hand; verification against the library run happens
/// after the window.
JobRecord RunJob(uint16_t port, const Input& input, size_t index,
                 const std::string& tenant, double poll_interval, SpanLog* log,
                 int op) {
  JobRecord record;
  record.input = index;
  double start = Now();
  int job_span = log ? log->Begin("job", op, -1) : -1;
  auto submitted = Exchange(port, "POST", "/v1/jobs", SubmitBody(input, tenant),
                            202, &record.submit_s);
  if (log) log->Add("service.submit", Now() - record.submit_s, Now(), op, job_span);
  if (!submitted.ok()) {
    record.error = "submit: " + submitted.status().ToString();
    return record;
  }
  record.id = submitted->Get("job").Get("id").string_value();
  std::string state;
  while (true) {
    std::this_thread::sleep_for(std::chrono::duration<double>(poll_interval));
    double seconds = 0;
    auto status =
        Exchange(port, "GET", "/v1/jobs/" + record.id, "", 200, &seconds);
    record.poll_s.push_back(seconds);
    if (log) log->Add("service.poll", Now() - seconds, Now(), op, job_span);
    if (!status.ok()) {
      record.error = "poll: " + status.status().ToString();
      return record;
    }
    state = status->Get("state").string_value();
    if (state == "done" || state == "cancelled" || state == "failed") break;
    if (Now() - start > 120) {
      record.error = "job " + record.id + " still " + state + " after 120s";
      return record;
    }
  }
  if (state != "done") {
    record.error = "job " + record.id + " ended " + state;
    return record;
  }
  auto result = Exchange(port, "GET", "/v1/jobs/" + record.id + "/result", "",
                         200, &record.result_s);
  if (log) log->Add("service.result", Now() - record.result_s, Now(), op, job_span);
  if (!result.ok()) {
    record.error = "result: " + result.status().ToString();
    return record;
  }
  record.latency = Now() - start;
  if (log) log->End(job_span);
  record.result = std::move(*result);
  record.ok = true;
  return record;
}

Outcome JobOutcome(const Json& result) {
  Outcome o;
  o.hash = result.Get("instance_hash").string_value();
  o.size = static_cast<size_t>(result.Get("instance_size").number_value());
  o.steps = static_cast<size_t>(result.Get("steps").number_value());
  o.rounds = static_cast<size_t>(result.Get("rounds").number_value());
  o.stop = result.Get("stop_reason").string_value();
  for (const Json& query : result.Get("queries").items()) {
    if (!o.verdicts.empty()) o.verdicts += ",";
    if (query.Has("entailed")) {
      o.verdicts += query.Get("entailed").bool_value() ? "E" : "N";
    } else {
      o.verdicts += "A" + std::to_string(query.Get("answers").items().size());
    }
  }
  return o;
}

uint64_t DirectoryBytes(const fs::path& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

constexpr int kDaemonClients = 4;  // 0,1: long jobs; 2,3: short jobs

void RunDaemonWorkload(const Args& args, Report* report, SpanLog* log) {
  std::vector<Input> inputs = DaemonInputs(args);
  std::vector<size_t> long_pool;
  std::vector<size_t> short_pool;
  for (size_t i = 0; i < inputs.size(); ++i) {
    (inputs[i].long_job ? long_pool : short_pool).push_back(i);
  }
  const bool traced_run = args.trace == 1;

  // Set-up: daemon start plus durable store open, up to the first answered
  // request, on a fresh state dir. It takes well under a millisecond, so it
  // is repeated many times, half before the window and half after it (two
  // moments of the host, not one); the median is setup_s. The last start
  // before the window is the daemon the clients use.
  fs::path state_root = fs::absolute(fs::path(args.work_dir)) /
                        ("daemon-state-" + std::to_string(getpid()));
  fs::remove_all(state_root);
  fs::create_directories(state_root);
  DaemonOptions options;
  options.workers = 2;
  options.preempt_after_ms = 100;
  constexpr int kSetupsPerSide = 16;
  std::vector<double> setups;
  auto set_up = [&](int rep) {
    DaemonOptions fresh = options;
    fresh.state_dir = (state_root / ("rep" + std::to_string(rep))).string();
    double start = Now();
    auto started = std::make_unique<ChaseDaemon>(fresh);
    Status status = started->Start();
    double seconds = 0;
    auto health = status.ok()
                      ? Exchange(started->port(), "GET", "/v1/healthz", "", 200,
                                 &seconds)
                      : StatusOr<Json>(status);
    setups.push_back(Now() - start);
    if (!health.ok() || health->Get("persistence").string_value() != "durable") {
      std::fprintf(stderr, "twbench: daemon did not come up durable: %s\n",
                   health.ok() ? health->Dump().c_str()
                               : health.status().ToString().c_str());
      started->Stop();
      fs::remove_all(state_root);
      std::exit(2);
    }
    return started;
  };
  auto set_up_and_stop = [&](int rep) {
    set_up(rep)->Stop();
    fs::remove_all(state_root / ("rep" + std::to_string(rep)));
  };
  for (int rep = 0; rep + 1 < kSetupsPerSide; ++rep) set_up_and_stop(rep);
  std::unique_ptr<ChaseDaemon> daemon = set_up(kSetupsPerSide - 1);
  options.state_dir =
      (state_root / ("rep" + std::to_string(kSetupsPerSide - 1))).string();
  const uint16_t port = daemon->port();

  std::vector<std::vector<JobRecord>> records(kDaemonClients);
  double cpu0 = CpuSeconds();
  double start = Now();
  double deadline = start + args.seconds;
  std::atomic<int> next_op{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kDaemonClients; ++c) {
    clients.emplace_back([&, c] {
      const bool long_client = c < 2;
      const std::vector<size_t>& pool = long_client ? long_pool : short_pool;
      Schedule schedule(pool.size(), Mix(args.seed * 64 + c));
      const std::string tenant = "tenant-" + std::to_string(c);
      const double poll = long_client ? 0.005 : 0.002;
      while (Now() < deadline) {
        size_t index = pool[schedule.Next()];
        records[c].push_back(RunJob(port, inputs[index], index, tenant, poll,
                                    traced_run ? log : nullptr, next_op++));
      }
    });
  }
  for (std::thread& client : clients) client.join();
  double elapsed = Now() - start;
  double cpu = CpuSeconds() - cpu0;
  double peak_rss = PeakRssMb();
  for (int rep = kSetupsPerSide; rep < 2 * kSetupsPerSide; ++rep) {
    set_up_and_stop(rep);
  }

  Json fleet = daemon->MetricsJson();
  double preemptions = fleet.Get("scheduler").Get("preemptions").number_value();
  daemon->Stop();
  report->Attempt();
  if (daemon->InFlightJobs() != 0) {
    report->Fail("daemon leaked " + std::to_string(daemon->InFlightJobs()) +
                 " jobs at shutdown");
  }
  daemon.reset();
  uint64_t store_bytes = DirectoryBytes(options.state_dir);

  // The uninterrupted library run of every input the clients used (traced
  // and plain with --trace 1); daemon results must match it bit for bit.
  std::set<size_t> used;
  for (const auto& client : records) {
    for (const JobRecord& record : client) used.insert(record.input);
  }
  std::map<size_t, Outcome> reference;
  std::vector<OpLayers> layers;
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  int ref_op = 1'000'000;
  for (size_t index : used) {
    OpResult plain = RunLibraryOp(inputs[index], nullptr, nullptr, 0);
    report->Attempt();
    if (!plain.ok) {
      report->Fail(inputs[index].id + ": library run: " + plain.error);
      continue;
    }
    reference[index] = plain.outcome;
    if (!traced_run) continue;
    OpLayers op_layers;
    OpResult traced = RunLibraryOp(inputs[index], &op_layers, log, ref_op++);
    if (!traced.ok || !(traced.outcome == plain.outcome)) {
      report->Fail(inputs[index].id + ": traced and untraced outcomes differ");
    }
    if (!op_layers.parity_ok) report->Fail(op_layers.parity_error);
    plain_s.push_back(plain.latency);
    traced_s.push_back(traced.latency);
    layers.push_back(std::move(op_layers));
  }

  std::vector<double> short_latencies;
  std::vector<double> long_latencies;
  size_t completed = 0;
  LayerExtras extras;
  std::map<std::string, size_t> job_input;  // job id -> input index
  for (const auto& client : records) {
    for (const JobRecord& record : client) {
      report->Attempt();
      const Input& input = inputs[record.input];
      if (!record.ok) {
        report->Fail(input.id + ": " + record.error);
        continue;
      }
      ++completed;
      job_input[record.id] = record.input;
      (input.long_job ? long_latencies : short_latencies)
          .push_back(record.latency);
      Outcome got = JobOutcome(record.result);
      auto want = reference.find(record.input);
      if (want == reference.end() || !(got == want->second)) {
        report->Fail(input.id + " job " + record.id + ": daemon " +
                     got.Describe() + " library " +
                     (want == reference.end() ? std::string("missing")
                                              : want->second.Describe()));
      }
      extras.submit_s.push_back(record.submit_s);
      extras.poll_s.insert(extras.poll_s.end(), record.poll_s.begin(),
                           record.poll_s.end());
      extras.result_s.push_back(record.result_s);
      double run_s = record.result.Get("elapsed_seconds").number_value();
      extras.run_s.push_back(run_s);
      extras.wait_s.push_back(record.latency - run_s);
      extras.segments.push_back(record.result.Get("segments").number_value());
    }
  }

  if (!traced_run) {
    AddEndToEndMetrics(setups, short_latencies, completed, elapsed, cpu,
                       peak_rss, report);
    report->Add("short_job_s.p50", Median(short_latencies), "s",
                short_latencies.size(), "", true);
    report->Add("short_job_s.tail", TailOf(short_latencies), "s",
                short_latencies.size(), kTailNote, true);
    report->Add("long_job_s.p50", Median(long_latencies), "s",
                long_latencies.size(), "", true);
    report->Add("jobs_per_s", static_cast<double>(completed) / elapsed, "1/s",
                completed, "", true);
    AddErrorRate(report);
  } else {
    double jobs = static_cast<double>(std::max<size_t>(1, completed));
    extras.preemptions_per_job = preemptions / jobs;
    extras.store_bytes_per_job = static_cast<double>(store_bytes) / jobs;
    for (size_t index : short_pool) {
      if (inputs[index].options.preflight.auto_variant) {
        TimePreflight(inputs[index], &extras, log);
      }
    }
    // Resume from the sealed snapshots the daemon left behind (a few, to
    // bound the time spent after the window).
    std::vector<fs::path> snapshots;
    std::error_code ec;
    for (const auto& entry :
         fs::directory_iterator(fs::path(options.state_dir) / "checkpoints", ec)) {
      if (entry.path().extension() == ".ckpt") snapshots.push_back(entry.path());
    }
    std::sort(snapshots.begin(), snapshots.end());
    size_t resumed = 0;
    for (const fs::path& path : snapshots) {
      auto known = job_input.find(path.stem().string());
      if (known == job_input.end() || resumed == 4) continue;
      ++resumed;
      report->Attempt();
      auto checkpoint = ParseSealedCheckpoint(ReadFile(path.string()));
      std::string problem =
          checkpoint.ok()
              ? TimeResume(inputs[known->second], *checkpoint, &extras, log)
              : "sealed snapshot does not parse: " +
                    checkpoint.status().ToString();
      if (!problem.empty()) report->Fail(path.filename().string() + ": " + problem);
    }
    extras.overhead_ratio = Median(traced_s) / Median(plain_s);
    AddLayerMetrics(layers, extras, report);
  }
  fs::remove_all(state_root);
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  if (!args.record_goldens.empty()) return RecordGoldens(args);
  const bool daemon = args.workload == "daemon-mixed";
  if (!daemon && args.workload != "elevator-core" &&
      args.workload != "staircase-core" &&
      args.workload != "datalog-closure") {
    Usage(("unknown workload " + args.workload).c_str());
  }

  Report report;
  SpanLog log;
  if (daemon) {
    RunDaemonWorkload(args, &report, &log);
  } else {
    RunLibraryWorkload(args, &report, &log);
  }

  Json provenance = Json::Object();
  provenance.Set("workload", Json::String(args.workload));
  provenance.Set("seed", Json::Number(args.seed));
  provenance.Set("seconds", Json::Number(args.seconds));
  provenance.Set("trace", Json::Bool(args.trace == 1));
  provenance.Set("loop", Json::String("closed"));
  provenance.Set("clients", Json::Number(static_cast<uint64_t>(daemon ? kDaemonClients : 1)));
  provenance.Set("nproc",
                 Json::Number(static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN))));
  provenance.Set("hardware_concurrency",
                 Json::Number(uint64_t{std::thread::hardware_concurrency()}));
  provenance.Set("git_sha", Json::String(args.git_sha));
  provenance.Set("source_digest", Json::String(args.source_digest));
  provenance.Set("build_type", Json::String(TWBENCH_BUILD_TYPE));
  provenance.Set("compiler", Json::String(TWBENCH_COMPILER));
  if (args.trace == 1) {
    std::string path = (fs::path(args.work_dir) /
                        ("spans-" + args.workload + "-" +
                         std::to_string(args.seed) + ".jsonl"))
                           .string();
    log.Write(path);
    provenance.Set("spans", Json::String(path));
    provenance.Set("span_count", Json::Number(uint64_t{log.size()}));
  }
  report.Print(provenance);
  return report.failed() == 0 ? 0 : 1;
}
