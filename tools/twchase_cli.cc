// twchase_cli — command-line driver for the library: parse a program file
// (facts, rules, queries in the twchase text format), run a chase variant,
// answer the queries, and optionally report structural measures, static
// ruleset analysis, the robust aggregation and structured observability
// streams (per-step metrics rows, JSONL event log).
//
// Usage:
//   twchase_cli [flags] <program-file>
//     --variant=oblivious|semi|restricted|frugal|core|auto (default: core;
//                          auto runs the termination preflight and picks the
//                          cheapest variant the analysis proves sound)
//     --max-steps=N        rule-application budget        (default: 1000)
//     --measures           print per-step |F_i| and treewidth series
//     --robust             print the robust aggregation summary
//     --analyze            print static ruleset analysis
//     --trace              print the derivation trace (rules, triggers)
//     --print-result       print the final instance
//     --metrics-out=FILE   write one JSONL metrics row per derivation step
//     --events-out=FILE    write every observer event as one JSON line
//     --deadline-ms=N      wall-clock budget (0 stops at the first boundary;
//                          omit the flag for unlimited)
//     --memory-budget-mb=N estimated-memory budget (0 = unlimited)
//     --checkpoint-out=FILE record the run and write a resumable checkpoint
//     --resume-from=FILE   resume a checkpointed run (same program file)
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "analysis/preflight.h"
#include "core/chase.h"
#include "core/checkpoint.h"
#include "core/session.h"
#include "core/measures.h"
#include "core/robust.h"
#include "core/trace.h"
#include "kb/analysis.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/stock_observers.h"
#include "parser/parser.h"
#include "parser/printer.h"
#include "tools/flags.h"
#include "tw/treewidth.h"
#include "util/stopwatch.h"

namespace {

struct CliOptions {
  twchase::ChaseOptions chase;
  bool measures = false;
  bool robust = false;
  bool analyze = false;
  bool trace = false;
  bool print_result = false;
  std::string metrics_out;
  std::string events_out;
  std::string checkpoint_out;
  std::string resume_from;
  std::string file;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--variant=V] [--max-steps=N] [--measures] "
               "[--robust] [--analyze] [--trace] "
               "[--print-result] [--metrics-out=FILE] [--events-out=FILE] "
               "[--deadline-ms=N] [--memory-budget-mb=N] "
               "[--checkpoint-out=FILE] "
               "[--resume-from=FILE] <program-file>\n",
               argv0);
  return 2;
}

bool ParseVariant(const std::string& name, twchase::ChaseVariant* out) {
  using twchase::ChaseVariant;
  if (name == "oblivious") *out = ChaseVariant::kOblivious;
  else if (name == "semi" || name == "semi-oblivious")
    *out = ChaseVariant::kSemiOblivious;
  else if (name == "restricted") *out = ChaseVariant::kRestricted;
  else if (name == "frugal") *out = ChaseVariant::kFrugal;
  else if (name == "core") *out = ChaseVariant::kCore;
  else return false;
  return true;
}

// --variant=auto defers the choice to the termination preflight, which needs
// the parsed program; ParseArgs only records the request.

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  options->chase.variant = twchase::ChaseVariant::kCore;
  size_t deadline_ms = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    twchase::flags::ArgMatcher m(arg);
    std::string variant_name;
    if (m.Value("--variant", &variant_name)) {
      if (variant_name == "auto") {
        options->chase.preflight.auto_variant = true;
      } else if (!ParseVariant(variant_name, &options->chase.variant)) {
        std::fprintf(stderr, "unknown variant: %s (expected oblivious, semi, "
                     "restricted, frugal, core, or auto)\n",
                     variant_name.c_str());
        return false;
      }
    } else if (m.SizeValue("--deadline-ms", &deadline_ms)) {
      options->chase.limits.deadline_ms = deadline_ms;
    } else if (m.SizeValue("--max-steps", &options->chase.limits.max_steps) ||
               // The MB→bytes scaling is range-checked inside the matcher; a
               // budget whose byte count overflows 64 bits is a flag error,
               // not a silently wrapped (near-zero) budget.
               m.ScaledSizeValue("--memory-budget-mb",
                                 &options->chase.limits.memory_budget_bytes,
                                 size_t{1024} * 1024) ||
               m.Value("--checkpoint-out", &options->checkpoint_out) ||
               m.Value("--resume-from", &options->resume_from) ||
               m.Flag("--measures", &options->measures) ||
               m.Flag("--robust", &options->robust) ||
               m.Flag("--analyze", &options->analyze) ||
               m.Flag("--trace", &options->trace) ||
               m.Flag("--print-result", &options->print_result) ||
               m.Value("--metrics-out", &options->metrics_out) ||
               m.Value("--events-out", &options->events_out)) {
      // dispatched; value errors surface below
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    } else if (options->file.empty()) {
      options->file = arg;
    } else {
      return false;
    }
    if (!m.ok()) {
      std::fprintf(stderr, "%s\n", m.error().c_str());
      return false;
    }
  }
  if (!options->checkpoint_out.empty()) {
    options->chase.resume.record_log = true;
  }
  return !options->file.empty();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace twchase;
  CliOptions options;
  if (!ParseArgs(argc, argv, &options)) return Usage(argv[0]);

  std::ifstream in(options.file);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", options.file.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  auto program = ParseProgram(buffer.str());
  if (!program.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 program.status().ToString().c_str());
    return 1;
  }
  const KnowledgeBase& kb = program->kb;
  std::printf("program: %zu facts, %zu rules, %zu queries\n", kb.facts.size(),
              kb.rules.size(), program->queries.size());

  // --variant=auto: run the termination preflight and adopt its verdict (the
  // resolved variant plus suggested budgets for programs it cannot prove
  // terminating). Explicit --variant runs never reach this branch, so their
  // output stays byte-identical to the pre-preflight CLI.
  if (options.chase.preflight.auto_variant) {
    StatusOr<PreflightReport> resolved =
        ResolveAutoVariant(kb, PreflightOptions{}, &options.chase);
    if (!resolved.ok()) {
      std::fprintf(stderr, "preflight error: %s\n",
                   resolved.status().ToString().c_str());
      return 1;
    }
    std::printf("preflight: %s\n", resolved->Summary().c_str());
  }

  if (options.analyze) {
    RulesetAnalysis analysis = AnalyzeRuleset(kb.rules);
    std::printf("static analysis: %s\n", analysis.Summary().c_str());
    std::printf("  termination guaranteed (weakly acyclic / datalog): %s\n",
                analysis.ImpliesTermination() ? "yes" : "no");
    std::printf("  treewidth-bounded chase guaranteed (guarded): %s\n",
                analysis.ImpliesTreewidthBounded() ? "yes" : "no");
  }

  // Observability surfaces: both files hold one JSON object per line and are
  // fed by observers attached to the live run.
  ObserverList observers;
  std::ofstream metrics_file;
  std::ofstream events_file;
  MetricsRegistry registry;
  std::optional<MetricsObserver> metrics_observer;
  if (!options.metrics_out.empty()) {
    metrics_file.open(options.metrics_out);
    if (!metrics_file) {
      std::fprintf(stderr, "cannot open %s\n", options.metrics_out.c_str());
      return 1;
    }
    MetricsObserverOptions metrics_options;
    metrics_options.out = &metrics_file;
    metrics_observer.emplace(&registry, metrics_options);
    observers.Add(&*metrics_observer);
  }
  std::optional<EventLogObserver> event_log;
  if (!options.events_out.empty()) {
    events_file.open(options.events_out);
    if (!events_file) {
      std::fprintf(stderr, "cannot open %s\n", options.events_out.c_str());
      return 1;
    }
    event_log.emplace(&events_file);
    observers.Add(&*event_log);
  }
  if (!observers.empty()) options.chase.observer = &observers;

  // The CLI drives a ChaseSession directly (the lifecycle surface the
  // daemon shares); a session that is only Start()ed or Resume()d once is
  // bit-identical to the historical RunChase/ResumeChase free functions.
  Stopwatch sw;
  StatusOr<ChaseResult> run =
      Status::Internal("chase did not run");  // replaced below
  auto session = ChaseSession::Create(kb, options.chase);
  if (!session.ok()) {
    std::fprintf(stderr, "chase error: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  if (!options.resume_from.empty()) {
    std::ifstream checkpoint_in(options.resume_from);
    if (!checkpoint_in) {
      std::fprintf(stderr, "cannot open %s\n", options.resume_from.c_str());
      return 1;
    }
    std::ostringstream checkpoint_text;
    checkpoint_text << checkpoint_in.rdbuf();
    auto checkpoint = ParseCheckpoint(checkpoint_text.str());
    if (!checkpoint.ok()) {
      std::fprintf(stderr, "checkpoint error: %s\n",
                   checkpoint.status().ToString().c_str());
      return 1;
    }
    std::printf("resuming from %s: recorded %zu steps in %zu rounds (%s)\n",
                options.resume_from.c_str(), checkpoint->steps,
                checkpoint->rounds, StopReasonName(checkpoint->stop_reason));
    Status resumed = (*session)->Resume(*checkpoint);
    run = resumed.ok() ? StatusOr<ChaseResult>((*session)->TakeResult())
                       : StatusOr<ChaseResult>(resumed);
  } else {
    Status started = (*session)->Start();
    run = started.ok() ? StatusOr<ChaseResult>((*session)->TakeResult())
                       : StatusOr<ChaseResult>(started);
  }
  if (!run.ok()) {
    std::fprintf(stderr, "chase error: %s\n", run.status().ToString().c_str());
    return 1;
  }
  std::printf("%s chase: %zu steps in %zu rounds, %.3fs, stop: %s; "
              "|result| = %zu\n",
              ChaseVariantName(options.chase.variant), run->steps, run->rounds,
              sw.ElapsedSeconds(), StopReasonName(run->stop_reason),
              run->derivation.Last().size());

  if (!options.checkpoint_out.empty()) {
    std::ofstream checkpoint_file(options.checkpoint_out);
    if (!checkpoint_file) {
      std::fprintf(stderr, "cannot open %s\n", options.checkpoint_out.c_str());
      return 1;
    }
    ChaseCheckpoint checkpoint = MakeCheckpoint(kb, options.chase, *run);
    checkpoint_file << SerializeCheckpoint(checkpoint);
    std::printf("checkpoint written to %s (%zu recorded rounds)\n",
                options.checkpoint_out.c_str(), checkpoint.log.rounds.size());
  }

  if (options.measures) {
    std::vector<int> sizes = MeasureSeries(run->derivation, Measure::kSize);
    std::vector<int> tw =
        MeasureSeries(run->derivation, Measure::kTreewidthUpper);
    std::printf("%6s %8s %6s\n", "step", "size", "tw_ub");
    size_t stride = std::max<size_t>(1, sizes.size() / 25);
    for (size_t i = 0; i < sizes.size(); i += stride) {
      std::printf("%6zu %8d %6d\n", i, sizes[i], tw[i]);
    }
    BoundednessSummary summary = SummarizeBoundedness(tw, 8);
    std::printf("treewidth: uniform bound %d, tail estimate %d\n",
                summary.uniform_bound, summary.recurring_estimate);
  }

  if (options.trace) {
    TraceOptions trace_options;
    trace_options.max_steps = 200;
    std::printf("%s",
                DerivationTrace(run->derivation, *kb.vocab, trace_options)
                    .c_str());
  }

  if (options.robust) {
    RobustAggregator agg = RobustAggregator::FromDerivation(
        run->derivation, 0, observers.empty() ? nullptr : &observers);
    TreewidthResult tw = ComputeTreewidth(agg.Aggregate());
    std::printf(
        "robust aggregation D~: %zu atoms, tw <= %d, %zu stable variables\n",
        agg.Aggregate().size(), tw.upper_bound,
        agg.stats().empty() ? 0 : agg.stats().back().stable_variables);
  }

  if (options.print_result) {
    std::printf("result: %s\n",
                run->derivation.Last().ToString(*kb.vocab).c_str());
  }

  std::printf("%s",
              EvaluateQueries(program->queries, run->derivation.Last(),
                              run->stop_reason == StopReason::kFixpoint,
                              *kb.vocab)
                  .text.c_str());
  return 0;
}
