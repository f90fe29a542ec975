// twgen: seeded rule-set generator with known termination-class labels,
// plus the definition sweep and label-soundness gates built on it.
//
//   twgen --class=fes --seed=7                    emit one program to stdout
//   twgen --class=bts --seed=3 --out=prog.twc     ... or to a file
//   twgen --corpus-dir=data/corpus --per-class=3  emit a labeled corpus
//   twgen --soundness --programs=500              label-soundness gate
//   twgen --sweep --programs=40 --max-steps=30    definition sweep gate
//
// Both gates exit non-zero on any violation; the sweep prints the minimized
// reproducer so it can be pinned as a regression test.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/generator.h"
#include "analysis/preflight.h"
#include "analysis/sweep.h"
#include "core/chase.h"
#include "kb/analysis.h"
#include "parser/parser.h"
#include "tools/flags.h"
#include "util/fs.h"

namespace twchase {
namespace {

constexpr GeneratedClass kClasses[] = {
    GeneratedClass::kFes, GeneratedClass::kBts, GeneratedClass::kCoreBts,
    GeneratedClass::kNonTerminating};

int Usage() {
  std::fprintf(
      stderr,
      "usage: twgen [--class=fes|bts|core-bts|non-terminating] [--seed=N]\n"
      "             [--rules=N] [--predicates=N] [--facts=N] [--max-arity=N]\n"
      "             [--out=FILE] [--preflight]\n"
      "       twgen --corpus-dir=DIR [--per-class=N] [--seed=N]\n"
      "       twgen --soundness --programs=N [--seed=N]\n"
      "       twgen --sweep --programs=N [--seed=N] [--max-steps=N]\n");
  return 2;
}

GeneratedProgram Generate(const GeneratorOptions& base, GeneratedClass label,
                          uint64_t seed) {
  GeneratorOptions options = base;
  options.label = label;
  options.seed = seed;
  return GenerateProgram(options);
}

// A budgeted run of one variant; returns the stop reason (or nullopt on an
// engine error, which the gates treat as a violation).
std::optional<StopReason> RunOnce(const std::string& text, ChaseVariant variant,
                                  size_t max_steps) {
  StatusOr<ParsedProgram> parsed = ParseProgram(text);
  if (!parsed.ok()) return std::nullopt;
  ChaseOptions options;
  options.variant = variant;
  options.limits.max_steps = max_steps;
  options.limits.max_instance_size = 20000;
  options.keep_snapshots = false;
  StatusOr<ChaseResult> run = RunChase(parsed.value().kb, options);
  if (!run.ok()) return std::nullopt;
  return run.value().stop_reason;
}

const ChaseVariant kAllVariants[] = {
    ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
    ChaseVariant::kRestricted, ChaseVariant::kFrugal, ChaseVariant::kCore};

// Label-soundness gate: every fes-labeled program must reach a fixpoint
// under EVERY variant within budget (the generator's fes part is weakly
// acyclic, which covers all five); every non-terminating program must
// exhaust the step budget under every variant; bts programs must be
// guarded; core-bts programs must still be running (their staircase kernel
// never terminates). This is the CI pin for the acceptance criterion that
// the classifier never labels a diverging program fes.
int RunSoundness(const GeneratorOptions& base, uint64_t seed0,
                 size_t programs) {
  size_t checked = 0;
  uint64_t seed = seed0;
  while (checked < programs) {
    for (GeneratedClass label : kClasses) {
      if (checked >= programs) break;
      GeneratedProgram program = Generate(base, label, seed);
      ++checked;
      switch (label) {
        case GeneratedClass::kFes:
          for (ChaseVariant variant : kAllVariants) {
            std::optional<StopReason> stop =
                RunOnce(program.text, variant, 4000);
            if (!stop.has_value() || *stop != StopReason::kFixpoint) {
              std::fprintf(stderr,
                           "soundness VIOLATION: fes seed=%llu variant=%s "
                           "did not terminate\n%s\n",
                           static_cast<unsigned long long>(seed),
                           ChaseVariantName(variant), program.text.c_str());
              return 1;
            }
          }
          break;
        case GeneratedClass::kBts: {
          StatusOr<ParsedProgram> parsed = ParseProgram(program.text);
          if (!parsed.ok() || !IsGuarded(parsed.value().kb.rules)) {
            std::fprintf(stderr,
                         "soundness VIOLATION: bts seed=%llu not guarded\n",
                         static_cast<unsigned long long>(seed));
            return 1;
          }
          break;
        }
        case GeneratedClass::kCoreBts:
        case GeneratedClass::kNonTerminating:
          for (ChaseVariant variant : kAllVariants) {
            std::optional<StopReason> stop =
                RunOnce(program.text, variant, 60);
            if (!stop.has_value() || *stop == StopReason::kFixpoint) {
              std::fprintf(stderr,
                           "soundness VIOLATION: %s seed=%llu variant=%s "
                           "terminated (label says it must not)\n%s\n",
                           GeneratedClassName(label),
                           static_cast<unsigned long long>(seed),
                           ChaseVariantName(variant), program.text.c_str());
              return 1;
            }
          }
          break;
      }
    }
    ++seed;
  }
  std::printf("soundness: %zu labeled programs, all labels held\n", checked);
  return 0;
}

int RunSweep(const GeneratorOptions& base, uint64_t seed0, size_t programs,
             size_t max_steps) {
  std::vector<std::string> texts;
  uint64_t seed = seed0;
  while (texts.size() < programs) {
    for (GeneratedClass label : kClasses) {
      if (texts.size() >= programs) break;
      texts.push_back(Generate(base, label, seed).text);
    }
    ++seed;
  }
  SweepOptions options;
  options.max_steps = max_steps;
  SweepReport report = RunDifferentialSweep(texts, options);
  if (!report.clean()) {
    for (const SweepDivergence& d : report.divergences) {
      std::fprintf(stderr,
                   "sweep VIOLATION: variant=%s check=%s (%s)\n"
                   "--- reproducer ---\n%s\n",
                   ChaseVariantName(d.variant), d.config.c_str(),
                   d.detail.c_str(), d.minimized.c_str());
    }
    std::fprintf(stderr, "sweep: %zu violations over %zu programs (%zu runs)\n",
                 report.divergences.size(), report.programs, report.runs);
    return 1;
  }
  std::printf("sweep: %zu programs, %zu runs, clean\n", report.programs,
              report.runs);
  return 0;
}

int RunCorpus(const GeneratorOptions& base, uint64_t seed0, size_t per_class,
              const std::string& dir) {
  Status status = EnsureDirectory(dir);
  if (!status.ok()) {
    std::fprintf(stderr, "twgen: %s\n", status.ToString().c_str());
    return 1;
  }
  for (GeneratedClass label : kClasses) {
    for (size_t i = 0; i < per_class; ++i) {
      const uint64_t seed = seed0 + i;
      GeneratedProgram program = Generate(base, label, seed);
      std::string name = GeneratedClassName(label);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      const std::string path =
          dir + "/" + name + "_" + std::to_string(seed) + ".twc";
      status = WriteFileDurable(path, program.text);
      if (!status.ok()) {
        std::fprintf(stderr, "twgen: %s\n", status.ToString().c_str());
        return 1;
      }
      std::printf("wrote %s\n", path.c_str());
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  GeneratorOptions base;
  std::string class_name = "fes";
  std::string out_path;
  std::string corpus_dir;
  size_t seed = 1;
  size_t per_class = 3;
  size_t programs = 100;
  size_t sweep_max_steps = 40;
  size_t max_arity = base.max_arity;
  bool soundness = false;
  bool sweep = false;
  bool preflight = false;
  bool help = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    flags::ArgMatcher m(arg);
    if (m.Flag("--help", &help)) {
    } else if (m.Value("--class", &class_name)) {
    } else if (m.SizeValue("--seed", &seed)) {
    } else if (m.SizeValue("--rules", &base.rules)) {
    } else if (m.SizeValue("--predicates", &base.predicates)) {
    } else if (m.SizeValue("--facts", &base.facts)) {
    } else if (m.BoundedSizeValue("--max-arity", &max_arity, 1, 5)) {
    } else if (m.Value("--out", &out_path)) {
    } else if (m.Value("--corpus-dir", &corpus_dir)) {
    } else if (m.SizeValue("--per-class", &per_class)) {
    } else if (m.SizeValue("--programs", &programs)) {
    } else if (m.SizeValue("--max-steps", &sweep_max_steps)) {
    } else if (m.Flag("--soundness", &soundness)) {
    } else if (m.Flag("--sweep", &sweep)) {
    } else if (m.Flag("--preflight", &preflight)) {
    } else {
      std::fprintf(stderr, "twgen: unknown argument '%s'\n", argv[i]);
      return Usage();
    }
    if (!m.ok()) {
      std::fprintf(stderr, "twgen: %s\n", m.error().c_str());
      return 2;
    }
  }
  if (help) return Usage();
  base.max_arity = static_cast<uint32_t>(max_arity);

  GeneratedClass label = GeneratedClass::kFes;
  if (!ParseGeneratedClass(class_name, &label)) {
    std::fprintf(stderr,
                 "twgen: unknown class '%s' (fes, bts, core-bts, "
                 "non-terminating)\n",
                 class_name.c_str());
    return 2;
  }

  if (soundness) return RunSoundness(base, seed, programs);
  if (sweep) return RunSweep(base, seed, programs, sweep_max_steps);
  if (!corpus_dir.empty()) return RunCorpus(base, seed, per_class, corpus_dir);

  GeneratedProgram program = Generate(base, label, seed);
  std::string text = program.text;
  if (preflight) {
    StatusOr<ParsedProgram> parsed = ParseProgram(text);
    if (parsed.ok()) {
      PreflightReport report = RunPreflight(parsed.value().kb);
      text += "% preflight: " + report.Summary() + "\n";
    }
  }
  if (out_path.empty()) {
    std::fputs(text.c_str(), stdout);
  } else {
    Status status = WriteFileDurable(out_path, text);
    if (!status.ok()) {
      std::fprintf(stderr, "twgen: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace twchase

int main(int argc, char** argv) { return twchase::Main(argc, argv); }
