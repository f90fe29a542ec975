// Termination-analysis preflight suite: verdict witnesses for every class
// (hand-built programs whose classification is known from the paper),
// evidence-tier soundness of the auto-variant policy, governor-interrupt
// degradation to kUnknown, label soundness of the seeded generator, the
// parse/print round-trip property over generated programs, and the
// --variant=auto path through the wire schema and a live daemon.
//
// Runs under `ctest -L analysis`, including the asan and tsan passes of
// tools/check.sh.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "analysis/generator.h"
#include "analysis/preflight.h"
#include "analysis/sweep.h"
#include "core/chase.h"
#include "kb/analysis.h"
#include "kb/examples.h"
#include "parser/parser.h"
#include "parser/printer.h"
#include "service/daemon.h"
#include "service/http.h"
#include "service/json.h"
#include "service/wire.h"
#include "util/governor.h"

namespace twchase {
namespace {

// ---------------------------------------------------------------------------
// Verdict witnesses

TEST(PreflightVerdictTest, WeaklyAcyclicPipelineIsFesForAllVariants) {
  KnowledgeBase kb = MakeWeaklyAcyclicPipeline(4);
  PreflightReport report = RunPreflight(kb);
  EXPECT_EQ(report.verdict, TerminationClass::kFes);
  EXPECT_EQ(report.fes_evidence, FesEvidence::kStaticAllVariants);
  EXPECT_FALSE(report.empirical);
  // All-variants evidence, not datalog: the cheapest skolem variant wins.
  EXPECT_EQ(report.recommended_variant, ChaseVariant::kSemiOblivious);
  // Provable termination needs no suggested budgets.
  EXPECT_EQ(report.suggested_max_steps, 0u);
}

TEST(PreflightVerdictTest, DatalogClosureIsFesAndRunsRestricted) {
  KnowledgeBase kb = MakeTransitiveClosure(4);
  PreflightReport report = RunPreflight(kb);
  EXPECT_EQ(report.verdict, TerminationClass::kFes);
  EXPECT_EQ(report.fes_evidence, FesEvidence::kStaticAllVariants);
  EXPECT_EQ(report.recommended_variant, ChaseVariant::kRestricted);
}

TEST(PreflightVerdictTest, GuardedChainIsBtsWithSuggestedBudgets) {
  KnowledgeBase kb = MakeGuardedChain(3);
  PreflightReport report = RunPreflight(kb);
  EXPECT_EQ(report.verdict, TerminationClass::kBts);
  EXPECT_EQ(report.fes_evidence, FesEvidence::kNone);
  EXPECT_EQ(report.recommended_variant, ChaseVariant::kRestricted);
  // No termination proof: the preflight must suggest budgets.
  EXPECT_GT(report.suggested_max_steps, 0u);
  EXPECT_GT(report.suggested_memory_budget_bytes, 0u);
}

TEST(PreflightVerdictTest, BtsNotFesWitnessStaysBts) {
  KnowledgeBase kb = MakeBtsNotFes();
  PreflightReport report = RunPreflight(kb);
  EXPECT_EQ(report.verdict, TerminationClass::kBts);
  // A diverging program must never be called fes.
  EXPECT_EQ(report.fes_evidence, FesEvidence::kNone);
}

TEST(PreflightVerdictTest, FesNotBtsIsCaughtByADynamicTier) {
  KnowledgeBase kb = MakeFesNotBts();
  PreflightReport report = RunPreflight(kb);
  // Not weakly acyclic and not guarded: only the dynamic tiers can prove
  // this one fes, and the evidence decides which variants are covered.
  EXPECT_EQ(report.verdict, TerminationClass::kFes);
  EXPECT_TRUE(report.fes_evidence == FesEvidence::kCriticalInstance ||
              report.fes_evidence == FesEvidence::kCoreRun)
      << static_cast<uint32_t>(report.fes_evidence);
  if (report.fes_evidence == FesEvidence::kCoreRun) {
    EXPECT_EQ(report.recommended_variant, ChaseVariant::kCore);
  } else {
    EXPECT_EQ(report.recommended_variant, ChaseVariant::kSemiOblivious);
  }
  // Whatever the tier: the recommended variant must actually terminate.
  ChaseOptions options;
  options.variant = report.recommended_variant;
  options.limits.max_steps = 4000;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->stop_reason, StopReason::kFixpoint);
}

TEST(PreflightVerdictTest, StaircaseIsEmpiricallyCoreBts) {
  StaircaseWorld world;
  PreflightReport report = RunPreflight(world.kb());
  EXPECT_EQ(report.verdict, TerminationClass::kCoreBts);
  EXPECT_TRUE(report.empirical);
  EXPECT_TRUE(report.probe_tw_bounded);
  EXPECT_EQ(report.recommended_variant, ChaseVariant::kCore);
  EXPECT_GT(report.suggested_max_steps, 0u);
}

TEST(PreflightVerdictTest, ElevatorStaysUnknown) {
  ElevatorWorld world;
  PreflightReport report = RunPreflight(world.kb());
  // The elevator's cores keep growing (Proposition 8): no tier may claim
  // fes, bts, or a stopped treewidth series.
  EXPECT_EQ(report.verdict, TerminationClass::kUnknown);
  EXPECT_FALSE(report.probe_tw_bounded);
  EXPECT_EQ(report.recommended_variant, ChaseVariant::kCore);
  EXPECT_GT(report.suggested_max_steps, 0u);
}

// ---------------------------------------------------------------------------
// Governor interaction: an interrupted check is never evidence

TEST(PreflightGovernorTest, ExpiredAmbientGovernorDegradesToUnknown) {
  // MakeFesNotBts is only provably fes via the dynamic tiers; with an
  // already-expired ambient deadline those tiers are interrupted and the
  // verdict must degrade to kUnknown, never to a wrong kFes.
  KnowledgeBase kb = MakeFesNotBts();
  ResourceLimits limits;
  limits.deadline_ms = 0;
  ResourceGovernor governor(limits);
  GovernorScope ambient(&governor);
  PreflightReport report = RunPreflight(kb);
  EXPECT_EQ(report.verdict, TerminationClass::kUnknown);
  EXPECT_NE(report.fes_evidence, FesEvidence::kCriticalInstance);
  EXPECT_NE(report.fes_evidence, FesEvidence::kCoreRun);
  EXPECT_TRUE(report.critical_interrupted || !report.critical_ran);
  EXPECT_TRUE(report.probe_interrupted || !report.probe_ran);
}

// ---------------------------------------------------------------------------
// ResolveAutoVariant contract

TEST(ResolveAutoVariantTest, RequiresTheAutoFlagAndPinsTheDecision) {
  KnowledgeBase kb = MakeTransitiveClosure(3);
  ChaseOptions options;
  EXPECT_FALSE(ResolveAutoVariant(kb, PreflightOptions{}, &options).ok());

  options.preflight.auto_variant = true;
  auto report = ResolveAutoVariant(kb, PreflightOptions{}, &options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(options.preflight.resolved);
  EXPECT_EQ(options.preflight.verdict,
            static_cast<uint32_t>(TerminationClass::kFes));
  EXPECT_EQ(options.variant, ChaseVariant::kRestricted);
  // The resolved options now pass engine validation; unresolved auto is
  // rejected before the chase ever starts.
  EXPECT_TRUE(options.Validate().ok());
  ChaseOptions unresolved;
  unresolved.preflight.auto_variant = true;
  EXPECT_FALSE(unresolved.Validate().ok());
}

// ---------------------------------------------------------------------------
// Generator label soundness (the CI pin for "never call a diverging
// program fes"; the full ≥500-program gate runs via twgen in check.sh)

TEST(GeneratorSoundnessTest, LabelsHoldOnASeedSweep) {
  const ChaseVariant kAll[] = {
      ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
      ChaseVariant::kRestricted, ChaseVariant::kFrugal, ChaseVariant::kCore};
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    for (GeneratedClass label :
         {GeneratedClass::kFes, GeneratedClass::kBts, GeneratedClass::kCoreBts,
          GeneratedClass::kNonTerminating}) {
      GeneratorOptions gen;
      gen.label = label;
      gen.seed = seed;
      GeneratedProgram program = GenerateProgram(gen);
      SCOPED_TRACE(std::string(GeneratedClassName(label)) + " seed=" +
                   std::to_string(seed));
      auto parsed = ParseProgram(program.text);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

      if (label == GeneratedClass::kFes) {
        for (ChaseVariant variant : kAll) {
          ChaseOptions options;
          options.variant = variant;
          options.limits.max_steps = 4000;
          auto run = RunChase(parsed->kb, options);
          ASSERT_TRUE(run.ok());
          EXPECT_EQ(run->stop_reason, StopReason::kFixpoint)
              << ChaseVariantName(variant);
        }
      } else if (label == GeneratedClass::kBts) {
        EXPECT_TRUE(IsGuarded(parsed->kb.rules));
      } else {
        // core-bts and non-terminating kernels must not reach a fixpoint
        // under any variant — and the preflight must never say fes.
        for (ChaseVariant variant : kAll) {
          ChaseOptions options;
          options.variant = variant;
          options.limits.max_steps = 60;
          options.limits.max_instance_size = 20000;
          auto run = RunChase(parsed->kb, options);
          ASSERT_TRUE(run.ok());
          EXPECT_NE(run->stop_reason, StopReason::kFixpoint)
              << ChaseVariantName(variant);
        }
        PreflightReport report = RunPreflight(parsed->kb);
        EXPECT_NE(report.verdict, TerminationClass::kFes);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Parse/print round-trip property over generated programs

TEST(RoundTripPropertyTest, ParseOfPrintIsIdentityOnGeneratedPrograms) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    for (GeneratedClass label :
         {GeneratedClass::kFes, GeneratedClass::kBts, GeneratedClass::kCoreBts,
          GeneratedClass::kNonTerminating}) {
      GeneratorOptions gen;
      gen.label = label;
      gen.seed = seed;
      GeneratedProgram program = GenerateProgram(gen);
      SCOPED_TRACE(std::string(GeneratedClassName(label)) + " seed=" +
                   std::to_string(seed));

      auto first = ParseProgram(program.text);
      ASSERT_TRUE(first.ok()) << first.status().ToString();
      std::string printed = PrintProgram(first->kb, first->queries);
      auto second = ParseProgram(printed);
      ASSERT_TRUE(second.ok()) << second.status().ToString() << "\n"
                               << printed;

      // parse(Print(P)) == P: identical fact sets, rule count, query count,
      // and a printed fixed point (Print ∘ Parse ∘ Print == Print).
      EXPECT_EQ(second->kb.facts.ContentHash(), first->kb.facts.ContentHash());
      EXPECT_TRUE(second->kb.facts == first->kb.facts);
      ASSERT_EQ(second->kb.rules.size(), first->kb.rules.size());
      for (size_t i = 0; i < first->kb.rules.size(); ++i) {
        EXPECT_EQ(second->kb.rules[i].label(), first->kb.rules[i].label());
        EXPECT_EQ(second->kb.rules[i].body().size(),
                  first->kb.rules[i].body().size());
        EXPECT_EQ(second->kb.rules[i].head().size(),
                  first->kb.rules[i].head().size());
      }
      EXPECT_EQ(second->queries.size(), first->queries.size());
      EXPECT_EQ(PrintProgram(second->kb, second->queries), printed);
    }
  }
}

// ---------------------------------------------------------------------------
// The wire and daemon accept --variant=auto

TEST(AutoVariantWireTest, AutoRoundTripsAndResolvedOptionsKeepProvenance) {
  // "variant": "auto" parses to an unresolved auto request...
  auto body = Json::Parse(R"({"variant": "auto"})");
  ASSERT_TRUE(body.ok());
  ChaseOptions options;
  FieldError error;
  ASSERT_TRUE(ChaseOptionsFromJson(*body, "options", &options, &error).ok())
      << error.path << ": " << error.message;
  EXPECT_TRUE(options.preflight.auto_variant);
  EXPECT_FALSE(options.preflight.resolved);
  // ...and serializes back as "auto".
  Json wire = ChaseOptionsToJson(options);
  EXPECT_EQ(wire.Get("variant").string_value(), "auto");

  // A resolved decision round-trips with its provenance intact.
  options.preflight.resolved = true;
  options.preflight.verdict = static_cast<uint32_t>(TerminationClass::kFes);
  options.variant = ChaseVariant::kSemiOblivious;
  Json resolved = ChaseOptionsToJson(options);
  EXPECT_EQ(resolved.Get("variant").string_value(), "semi-oblivious");
  auto reparsed = Json::Parse(resolved.Dump());
  ASSERT_TRUE(reparsed.ok());
  ChaseOptions back;
  ASSERT_TRUE(ChaseOptionsFromJson(*reparsed, "", &back, &error).ok())
      << error.path << ": " << error.message;
  EXPECT_TRUE(back.preflight.auto_variant);
  EXPECT_TRUE(back.preflight.resolved);
  EXPECT_EQ(back.preflight.verdict, options.preflight.verdict);
  EXPECT_EQ(back.variant, ChaseVariant::kSemiOblivious);

  // Unknown variant strings still fail with the exact field path.
  auto bad = Json::Parse(R"({"variant": "automatic"})");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(ChaseOptionsFromJson(*bad, "options", &options, &error).ok());
  EXPECT_EQ(error.path, "options.variant");
}

TEST(AutoVariantDaemonTest, DaemonResolvesAutoAndReportsTheDecision) {
  DaemonOptions daemon_options;
  daemon_options.workers = 1;
  ChaseDaemon daemon(daemon_options);
  ASSERT_TRUE(daemon.Start().ok());

  GeneratorOptions gen;
  gen.label = GeneratedClass::kFes;
  gen.seed = 7;
  GeneratedProgram program = GenerateProgram(gen);

  Json body = Json::Object();
  body.Set("schema_version", Json::Number(uint64_t{kWireSchemaVersion}));
  body.Set("tenant", Json::String("analysis"));
  body.Set("program", Json::String(program.text));
  Json options = Json::Object();
  options.Set("variant", Json::String("auto"));
  body.Set("options", std::move(options));

  auto submit = HttpFetch("127.0.0.1", daemon.port(), "POST", "/v1/jobs",
                          body.Dump());
  ASSERT_TRUE(submit.ok()) << submit.status();
  ASSERT_EQ(submit->status, 202) << submit->body;
  auto accepted = Json::Parse(submit->body);
  ASSERT_TRUE(accepted.ok());
  const std::string id(accepted->Get("job").Get("id").string_value());

  std::string state;
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    auto status =
        HttpFetch("127.0.0.1", daemon.port(), "GET", "/v1/jobs/" + id, "");
    ASSERT_TRUE(status.ok());
    auto json = Json::Parse(status->body);
    ASSERT_TRUE(json.ok());
    state = json->Get("state").string_value();
    if (state == "done" || state == "failed" || state == "cancelled") {
      // The terminal status carries the resolved preflight decision.
      ASSERT_TRUE(json->Has("preflight")) << status->body;
      EXPECT_TRUE(json->Get("preflight").Get("resolved").bool_value());
      EXPECT_EQ(json->Get("preflight").Get("verdict").string_value(), "fes");
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(state, "done");

  auto result = HttpFetch("127.0.0.1", daemon.port(), "GET",
                          "/v1/jobs/" + id + "/result", "");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->status, 200) << result->body;
  auto payload = Json::Parse(result->body);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(payload->Get("stop_reason").string_value(), "fixpoint");
  ASSERT_TRUE(payload->Has("preflight")) << result->body;
  const Json& preflight = payload->Get("preflight");
  EXPECT_TRUE(preflight.Get("resolved").bool_value());
  EXPECT_EQ(preflight.Get("verdict").string_value(), "fes");
  // The generator's fes part is weakly acyclic, so the policy picks the
  // cheapest skolem variant; the CLI-identical text shows the same line the
  // CLI prints for --variant=auto.
  EXPECT_EQ(preflight.Get("variant").string_value(), "semi-oblivious");
  EXPECT_NE(payload->Get("text").string_value().find("preflight: "),
            std::string::npos);
  daemon.Stop();
}

// ---------------------------------------------------------------------------
// A small in-process definition sweep stays clean (the big seeded sweep
// runs via twgen in check.sh and EXPERIMENTS.md)

TEST(DifferentialSweepTest, GeneratedProgramsPassTheDefinitionChecks) {
  std::vector<std::string> programs;
  for (uint64_t seed = 21; seed <= 22; ++seed) {
    for (GeneratedClass label :
         {GeneratedClass::kFes, GeneratedClass::kBts,
          GeneratedClass::kCoreBts, GeneratedClass::kNonTerminating}) {
      GeneratorOptions gen;
      gen.label = label;
      gen.seed = seed;
      programs.push_back(GenerateProgram(gen).text);
    }
  }
  SweepOptions options;
  options.max_steps = 25;
  SweepReport report = RunDifferentialSweep(programs, options);
  EXPECT_TRUE(report.clean());
  for (const SweepDivergence& divergence : report.divergences) {
    ADD_FAILURE() << "check " << divergence.config << " failed ("
                  << divergence.detail << "):\n"
                  << divergence.minimized;
  }
  EXPECT_EQ(report.programs, programs.size());
  EXPECT_GT(report.runs, 0u);
}

}  // namespace
}  // namespace twchase
