// Semantic oracle: every run is checked against the paper's definitions, not
// against another configuration of the engine. All searches go through the
// naive backtracking matcher of tests/reference_matcher.h (linear scans, no
// postings, columns, delta or plan code), so a bug shared by every engine
// path still fails here. Carral et al. (restricted-chase termination) show
// that restricted results depend on the trigger order, so the oracle checks
// only what every fair run must satisfy:
//   * a terminated restricted, frugal or core result is a model: every body
//     match of every rule extends to the head;
//   * terminated results of all variants are homomorphically equivalent,
//     and the last element of every unterminated run maps into each of them
//     (every element of a derivation maps into every model of the KB);
//   * sampled core-chase elements F_i are cores (Definition 2): F_i has no
//     homomorphism into F_i − {a} for any atom a;
//   * every simplification σ_i is a retraction (Definition 1): σ_i(A_i) = F_i
//     and σ_i fixes every term of F_i. The elements F_i are rebuilt from the
//     derivation journal (for i ≥ 1 as σ_i(A_i), so there the check is on
//     the fixed terms and the recorded |F_i|); derivation_test's
//     JournalMatchesTheLiveRun checks that they are the live run's;
//   * the robust renaming of every frugal and core run keeps Lemma 1's
//     invariants at every step: the forwarded union U_i lies inside G_i,
//     and ρ_i renames F_i onto G_i;
//   * the queries of every bundled program under data/ get the verdicts
//     and answers the reference matcher finds on each run's last element,
//     terminated runs agree on them, and whatever holds on any run's last
//     element holds on every terminated result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/chase.h"
#include "core/robust.h"
#include "kb/examples.h"
#include "kb/knowledge_base.h"
#include "parser/parser.h"
#include "parser/printer.h"
#include "reference_matcher.h"

namespace twchase {
namespace {

const ChaseVariant kAllVariants[] = {
    ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
    ChaseVariant::kRestricted, ChaseVariant::kFrugal, ChaseVariant::kCore};

// Core elements larger than this are not sampled: the reference core check
// runs |F_i| backtracking searches of F_i into itself minus one atom.
constexpr size_t kMaxCoreCheckAtoms = 80;

// Core elements checked per run (evenly spaced over the eligible steps,
// the last eligible one always included).
constexpr size_t kCoreSamples = 8;

struct Workload {
  std::string name;
  size_t max_steps;
  std::function<KnowledgeBase()> make_kb;  // fresh KB per run: nulls are
                                           // minted into the KB's vocabulary
};

std::vector<Workload> Workloads() {
  return {
      {"transitive-closure-6", 400, [] { return MakeTransitiveClosure(6); }},
      {"guarded-chain-2", 120, [] { return MakeGuardedChain(2); }},
      {"bts-not-fes", 80, [] { return MakeBtsNotFes(); }},
      {"fes-not-bts", 150, [] { return MakeFesNotBts(); }},
      {"weakly-acyclic-pipeline-12", 200,
       [] { return MakeWeaklyAcyclicPipeline(12); }},
      {"staircase", 40, [] { return StaircaseWorld().kb(); }},
      {"elevator", 40, [] { return ElevatorWorld().kb(); }},
  };
}

struct OracleRun {
  KnowledgeBase kb;
  ChaseResult result;
};

OracleRun RunWorkload(const Workload& workload, ChaseVariant variant) {
  OracleRun run{workload.make_kb(), {}};
  ChaseOptions options;
  options.variant = variant;
  options.limits.max_steps = workload.max_steps;
  auto result = RunChase(run.kb, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok()) run.result = std::move(result).value();
  return run;
}

bool Terminated(const OracleRun& run) {
  return run.result.stop_reason == StopReason::kFixpoint;
}

// Every trigger of `instance` is satisfied: each body match, restricted to
// the frontier, extends to a homomorphism of the head.
bool IsModelByDefinition(const KnowledgeBase& kb, const AtomSet& instance) {
  bool model = true;
  for (const Rule& rule : kb.rules) {
    reference::ForEachHomomorphism(
        rule.body(), instance, {}, [&](const Substitution& match) {
          model = reference::ExistsHomomorphism(
              rule.head(), instance, match.RestrictTo(rule.frontier()));
          return model;
        });
    if (!model) return false;
  }
  return true;
}

// σ is a retraction of A onto F: σ(A) = F and σ fixes every term of F.
bool IsRetractionOnto(const Substitution& sigma, const AtomSet& pre,
                      const AtomSet& image) {
  if (!(sigma.Apply(pre) == image)) return false;
  for (Term t : image.Terms()) {
    if (!(sigma.Apply(t) == t)) return false;
  }
  return true;
}

// Every σ_i retracts A_i onto F_i, where A_0 is the input fact set and
// A_i = F_{i-1} plus the atoms the application added.
void ExpectRetractions(const KnowledgeBase& kb, const Derivation& derivation,
                       const std::string& context) {
  for (DerivationCursor c(derivation); !c.done(); c.Next()) {
    const size_t i = c.index();
    const AtomSet& pre = i == 0 ? kb.facts : c.pre_simplification();
    EXPECT_TRUE(IsRetractionOnto(c.step().simplification, pre, c.instance()))
        << context << ": σ_" << i << " is not a retraction onto F_" << i;
    EXPECT_EQ(c.instance().size(), c.step().instance_size)
        << context << ": F_" << i << " is not the recorded size";
  }
}

// F is a core iff no endomorphism misses an atom, i.e. F maps into F − {a}
// for no atom a.
bool IsCoreByDefinition(const AtomSet& instance) {
  for (const Atom& atom : instance.Atoms()) {
    AtomSet smaller = instance;
    smaller.Erase(atom);
    if (reference::ExistsHomomorphism(instance, smaller)) return false;
  }
  return true;
}

void ExpectSampledCores(const Derivation& derivation,
                        const std::string& context) {
  std::vector<size_t> eligible;
  for (size_t i = 0; i < derivation.size(); ++i) {
    if (derivation.step(i).instance_size <= kMaxCoreCheckAtoms) {
      eligible.push_back(i);
    }
  }
  ASSERT_FALSE(eligible.empty()) << context;
  const size_t stride = std::max<size_t>(1, eligible.size() / kCoreSamples);
  DerivationCursor cursor(derivation);
  for (size_t k = 0; k < eligible.size(); ++k) {
    if (k % stride != 0 && k + 1 != eligible.size()) continue;
    const size_t i = eligible[k];
    while (cursor.index() < i) cursor.Next();
    EXPECT_TRUE(IsCoreByDefinition(cursor.instance()))
        << context << ": F_" << i << " is not a core";
  }
}

// ρ witnesses F ≅ G: it fixes every constant of F, maps F's variables
// injectively to variables, and ρ(F) = G.
bool IsRenamingOnto(const Substitution& rho, const AtomSet& f,
                    const AtomSet& g) {
  std::unordered_set<Term, TermHash> images;
  for (Term t : f.Terms()) {
    const Term image = rho.Apply(t);
    if (t.is_constant() ? !(image == t) : !image.is_variable()) return false;
    if (!images.insert(image).second) return false;
  }
  return rho.Apply(f) == g;
}

// Lemma 1 along the whole derivation, walked once through the robust
// aggregation (Definition 15): U_i ⊆ G_i, and ρ_i renames F_i onto G_i.
void ExpectRobustInvariants(const Derivation& derivation,
                            const std::string& context) {
  DerivationCursor c(derivation);
  RobustAggregator agg;
  agg.Begin(c.instance(), c.step().simplification);
  while (true) {
    const size_t i = c.index();
    EXPECT_TRUE(agg.Aggregate().IsSubsetOf(agg.CurrentG()))
        << context << ": U_" << i << " is not a subset of G_" << i;
    EXPECT_TRUE(IsRenamingOnto(agg.CurrentRho(), c.instance(), agg.CurrentG()))
        << context << ": ρ_" << i << " does not rename F_" << i
        << " onto G_" << i;
    c.Next();
    if (c.done()) break;
    agg.Step(c.pre_simplification(), c.step().simplification);
  }
}

class SemanticOracleTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SemanticOracleTest, RunsSatisfyThePapersDefinitions) {
  const Workload workload = Workloads()[GetParam()];
  std::vector<OracleRun> runs;
  for (ChaseVariant variant : kAllVariants) {
    runs.push_back(RunWorkload(workload, variant));
  }

  std::vector<size_t> terminated;
  for (size_t v = 0; v < runs.size(); ++v) {
    const ChaseVariant variant = kAllVariants[v];
    const OracleRun& run = runs[v];
    const std::string context =
        workload.name + "/" + ChaseVariantName(variant);
    ExpectRetractions(run.kb, run.result.derivation, context);
    if (variant == ChaseVariant::kCore) {
      ExpectSampledCores(run.result.derivation, context);
    }
    if (variant == ChaseVariant::kFrugal || variant == ChaseVariant::kCore) {
      ExpectRobustInvariants(run.result.derivation, context);
    }
    if (!Terminated(run)) continue;
    terminated.push_back(v);
    if (variant != ChaseVariant::kOblivious &&
        variant != ChaseVariant::kSemiOblivious) {
      EXPECT_TRUE(IsModelByDefinition(run.kb, run.result.derivation.Last()))
          << context << ": the terminated result is not a model";
    }
  }
  for (size_t v = 0; v < runs.size(); ++v) {
    const AtomSet& result = runs[v].result.derivation.Last();
    for (size_t t : terminated) {
      const std::string context = workload.name + "/" +
                                  ChaseVariantName(kAllVariants[v]) + " vs " +
                                  ChaseVariantName(kAllVariants[t]);
      const AtomSet& other = runs[t].result.derivation.Last();
      EXPECT_TRUE(reference::ExistsHomomorphism(result, other))
          << context << ": the result does not map into the terminated one";
      if (Terminated(runs[v])) {
        EXPECT_TRUE(reference::ExistsHomomorphism(other, result))
            << context << ": the terminated result does not map back";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperWorkloads, SemanticOracleTest,
    ::testing::Range<size_t>(0, Workloads().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      std::string name = Workloads()[info.param].name;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// A query's outcome on one run's last element: whether it is entailed
// (Boolean queries) and its ground answer tuples (the others).
struct QueryOutcome {
  bool entailed = false;
  std::set<std::vector<Term>> answers;
};

QueryOutcome ReferenceOutcome(const ParsedQuery& query,
                              const AtomSet& instance) {
  QueryOutcome out;
  reference::ForEachHomomorphism(
      query.atoms, instance, {}, [&](const Substitution& h) {
        out.entailed = true;
        std::vector<Term> tuple;
        for (Term v : query.answer_vars) tuple.push_back(h.Apply(v));
        if (std::all_of(tuple.begin(), tuple.end(),
                        [](Term t) { return t.is_constant(); })) {
          out.answers.insert(std::move(tuple));
        }
        return !query.answer_vars.empty();
      });
  return out;
}

std::vector<std::filesystem::path> BundledPrograms() {
  std::vector<std::filesystem::path> out;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(TWCHASE_DATA_DIR)) {
    if (entry.path().extension() == ".twc") out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The verdict path the CLI and the daemon print (EvaluateQueries) on every
// bundled program under every variant, at one step budget. Each run is
// parsed afresh, and parsing the same text assigns the same constant ids,
// so answer tuples compare across runs.
TEST(SemanticOracleQueryTest, BundledQueriesAgreeWithTheReference) {
  constexpr size_t kMaxSteps = 60;
  const std::vector<std::filesystem::path> programs = BundledPrograms();
  ASSERT_GE(programs.size(), 15u);
  size_t queries_checked = 0;
  for (const std::filesystem::path& path : programs) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    struct Evaluated {
      ChaseVariant variant;
      bool terminated;
      std::vector<QueryOutcome> outcomes;
    };
    std::vector<Evaluated> runs;
    for (ChaseVariant variant : kAllVariants) {
      const std::string context =
          path.filename().string() + "/" + ChaseVariantName(variant);
      auto program = ParseProgram(text.str());
      ASSERT_TRUE(program.ok()) << context << ": " << program.status();
      ChaseOptions options;
      options.variant = variant;
      options.limits.max_steps = kMaxSteps;
      auto run = RunChase(program->kb, options);
      ASSERT_TRUE(run.ok()) << context << ": " << run.status();
      const AtomSet& last = run->derivation.Last();
      const bool terminated = run->stop_reason == StopReason::kFixpoint;
      const QueryVerdicts verdicts = EvaluateQueries(
          program->queries, last, terminated, *program->kb.vocab);
      ASSERT_EQ(verdicts.verdicts.size(), program->queries.size()) << context;
      Evaluated evaluated{variant, terminated, {}};
      for (size_t q = 0; q < program->queries.size(); ++q) {
        const ParsedQuery& query = program->queries[q];
        const QueryVerdict& verdict = verdicts.verdicts[q];
        QueryOutcome want = ReferenceOutcome(query, last);
        const std::string at = context + ", query " + std::to_string(q + 1);
        if (query.answer_vars.empty()) {
          EXPECT_EQ(verdict.entailed, want.entailed) << at;
          EXPECT_EQ(verdict.certain, terminated || want.entailed) << at;
        } else {
          EXPECT_EQ(std::set<std::vector<Term>>(verdict.answers.begin(),
                                                verdict.answers.end()),
                    want.answers)
              << at;
        }
        evaluated.outcomes.push_back(std::move(want));
        ++queries_checked;
      }
      runs.push_back(std::move(evaluated));
    }
    // Every element of a derivation maps into every model of the KB, so
    // what holds on any last element holds on each terminated result, and
    // terminated results agree.
    for (const Evaluated& any : runs) {
      for (const Evaluated& done : runs) {
        if (!done.terminated) continue;
        const std::string pair = path.filename().string() + "/" +
                                 ChaseVariantName(any.variant) + " vs " +
                                 ChaseVariantName(done.variant);
        for (size_t q = 0; q < any.outcomes.size(); ++q) {
          const QueryOutcome& got = any.outcomes[q];
          const QueryOutcome& result = done.outcomes[q];
          const std::string at = pair + ", query " + std::to_string(q + 1);
          EXPECT_TRUE(!got.entailed || result.entailed) << at;
          EXPECT_TRUE(std::includes(result.answers.begin(),
                                    result.answers.end(), got.answers.begin(),
                                    got.answers.end()))
              << at;
          if (any.terminated) {
            EXPECT_EQ(got.entailed, result.entailed) << at;
            EXPECT_EQ(got.answers, result.answers) << at;
          }
        }
      }
    }
  }
  EXPECT_GE(queries_checked, 5 * 18u);
}

// The oracle is not vacuous: it rejects a non-model, a non-core and a
// simplification that is not a retraction.
TEST(SemanticOracleSelfTest, RejectsWhatTheDefinitionsReject) {
  KbBuilder b;
  Term x = b.V("X"), y = b.V("Y"), n1 = b.V("N1"), n2 = b.V("N2");
  Term c = b.C("c");
  b.Fact("p", {c});
  b.AddRule("succ", {b.A("p", {x})}, {b.A("e", {x, y})});
  KnowledgeBase kb = b.Build();

  // p(c) alone is not a model: the trigger X ↦ c has no head image. Adding
  // e(c, N1) satisfies it.
  const PredicateId e = kb.rules[0].head().Atoms()[0].predicate();
  EXPECT_FALSE(IsModelByDefinition(kb, kb.facts));
  AtomSet closed = kb.facts;
  closed.Insert(Atom(e, {c, n1}));
  EXPECT_TRUE(IsModelByDefinition(kb, closed));

  // {e(c, N1), e(c, N2)} folds N2 onto N1; {e(c, N1)} is a core.
  AtomSet redundant;
  redundant.Insert(Atom(e, {c, n1}));
  redundant.Insert(Atom(e, {c, n2}));
  EXPECT_FALSE(IsCoreByDefinition(redundant));
  AtomSet single;
  single.Insert(Atom(e, {c, n1}));
  EXPECT_TRUE(IsCoreByDefinition(single));

  // Folding N2 onto N1 retracts `redundant` onto `single`; the swap
  // N1 ↔ N2 is an automorphism, which moves the terms of its image.
  Substitution fold;
  fold.Bind(n2, n1);
  EXPECT_TRUE(IsRetractionOnto(fold, redundant, single));
  Substitution swap;
  swap.Bind(n1, n2);
  swap.Bind(n2, n1);
  EXPECT_FALSE(IsRetractionOnto(swap, redundant, swap.Apply(redundant)));
}

}  // namespace
}  // namespace twchase
