// Unit tests for the execution-planning layer (src/plan/): two-sided atom
// unification, the positive-reliance graph, SCC stratification, dormancy
// and the still-core guard, each checked against hand-computed programs or
// counts pinned before planning became unconditional. End-to-end, runs are
// checked against the paper's definitions by tests/semantic_oracle_test.cc
// and pinned by tests/storage_equivalence_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/generator.h"
#include "core/chase.h"
#include "core/checkpoint.h"
#include "core/trigger.h"
#include "hom/core.h"
#include "hom/matcher.h"
#include "kb/examples.h"
#include "kb/knowledge_base.h"
#include "model/atom_set.h"
#include "obs/observer.h"
#include "obs/stock_observers.h"
#include "parser/parser.h"
#include "plan/core_guard.h"
#include "plan/execution_plan.h"
#include "plan/reliance.h"

namespace twchase {
namespace {

class UnifiableTest : public ::testing::Test {
 protected:
  UnifiableTest() {
    p_ = vocab_.MustPredicate("p", 2);
    q_ = vocab_.MustPredicate("q", 2);
    c_ = vocab_.Constant("c");
    d_ = vocab_.Constant("d");
    x_ = vocab_.NamedVariable("X");
    y_ = vocab_.NamedVariable("Y");
  }

  Vocabulary vocab_;
  PredicateId p_, q_;
  Term c_, d_, x_, y_;
};

TEST_F(UnifiableTest, PredicateMismatchFails) {
  EXPECT_FALSE(
      AtomsUnifiableDisjoint(Atom(p_, {x_, y_}), Atom(q_, {x_, y_})));
}

TEST_F(UnifiableTest, TwoSidedUnificationSucceedsWhereMatchingFails) {
  // p(c, X) and p(Y, d) unify (Y := c, X := d) although neither matches
  // into the other — the case a one-way matcher would misclassify.
  EXPECT_TRUE(AtomsUnifiableDisjoint(Atom(p_, {c_, x_}), Atom(p_, {y_, d_})));
}

TEST_F(UnifiableTest, ConstantClashFails) {
  EXPECT_FALSE(AtomsUnifiableDisjoint(Atom(p_, {c_, x_}), Atom(p_, {d_, y_})));
}

TEST_F(UnifiableTest, TransitiveConstantClashFails) {
  // p(X, X) vs p(c, d): X would have to be both c and d.
  EXPECT_FALSE(AtomsUnifiableDisjoint(Atom(p_, {x_, x_}), Atom(p_, {c_, d_})));
}

TEST_F(UnifiableTest, SharedNamesAreStandardisedApart) {
  // The two sides use separate variable namespaces: p(X, c) and p(d, X)
  // unify (left X := d, right X := c) even though the raw terms collide.
  EXPECT_TRUE(AtomsUnifiableDisjoint(Atom(p_, {x_, c_}), Atom(p_, {d_, x_})));
}

TEST_F(UnifiableTest, VariableOnlyAtomsUnify) {
  EXPECT_TRUE(AtomsUnifiableDisjoint(Atom(p_, {x_, x_}), Atom(p_, {y_, y_})));
  EXPECT_TRUE(AtomsUnifiableDisjoint(Atom(p_, {x_, y_}), Atom(p_, {y_, x_})));
}

KnowledgeBase ChainProgram() {
  // a -> b -> c: two reliance edges, three singleton strata in order.
  KbBuilder b;
  b.Fact("a", {b.C("k")});
  b.AddRule("r0", {b.A("a", {b.V("X")})}, {b.A("b", {b.V("X")})});
  b.AddRule("r1", {b.A("b", {b.V("X")})}, {b.A("c", {b.V("X")})});
  b.AddRule("r2", {b.A("c", {b.V("X")})}, {b.A("d", {b.V("X")})});
  return b.Build();
}

TEST(RelianceGraph, ChainProgramHasForwardEdgesOnly) {
  KnowledgeBase kb = ChainProgram();
  RelianceGraph graph = ComputePositiveReliances(kb.rules);
  ASSERT_EQ(graph.rule_count, 3u);
  EXPECT_EQ(graph.edge_count, 2u);
  EXPECT_EQ(graph.successors[0], std::vector<int>{1});
  EXPECT_EQ(graph.successors[1], std::vector<int>{2});
  EXPECT_TRUE(graph.successors[2].empty());
}

TEST(RelianceGraph, ConstantGuardedHeadDoesNotFeedClashingBody) {
  KbBuilder b;
  b.Fact("a", {b.C("k")});
  // r0 produces only b(c, _); r1 consumes only b(d, _): no reliance.
  b.AddRule("r0", {b.A("a", {b.V("X")})}, {b.A("b", {b.C("c"), b.V("X")})});
  b.AddRule("r1", {b.A("b", {b.C("d"), b.V("Y")})}, {b.A("e", {b.V("Y")})});
  KnowledgeBase kb = b.Build();
  RelianceGraph graph = ComputePositiveReliances(kb.rules);
  EXPECT_EQ(graph.edge_count, 0u);
}

TEST(ExecutionPlanTest, ChainProgramStratifiesInTopologicalOrder) {
  KnowledgeBase kb = ChainProgram();
  ExecutionPlan plan = BuildExecutionPlan(kb.rules, kb.facts);
  ASSERT_EQ(plan.strata.size(), 3u);
  EXPECT_EQ(plan.strata[0], std::vector<int>{0});
  EXPECT_EQ(plan.strata[1], std::vector<int>{1});
  EXPECT_EQ(plan.strata[2], std::vector<int>{2});
  EXPECT_EQ(plan.dormant_count, 0u);
}

TEST(ExecutionPlanTest, MutualRecursionCollapsesIntoOneStratum) {
  KbBuilder b;
  b.Fact("a", {b.C("k")});
  b.AddRule("r0", {b.A("a", {b.V("X")})}, {b.A("b", {b.V("X")})});
  b.AddRule("r1", {b.A("b", {b.V("X")})}, {b.A("a", {b.V("X")})});
  KnowledgeBase kb = b.Build();
  ExecutionPlan plan = BuildExecutionPlan(kb.rules, kb.facts);
  ASSERT_EQ(plan.strata.size(), 1u);
  EXPECT_EQ(plan.strata[0], (std::vector<int>{0, 1}));
}

TEST(ExecutionPlanTest, UnreachablePredicateMakesRuleDormant) {
  KbBuilder b;
  b.Fact("a", {b.C("k")});
  b.AddRule("live", {b.A("a", {b.V("X")})}, {b.A("b", {b.V("X")})});
  // "ghost" is neither a fact predicate nor any rule's head: the rule can
  // never fire.
  b.AddRule("dead", {b.A("ghost", {b.V("X")})}, {b.A("c", {b.V("X")})});
  // Producible only through the dead rule — transitively dormant too.
  b.AddRule("downstream", {b.A("c", {b.V("X")})}, {b.A("e", {b.V("X")})});
  KnowledgeBase kb = b.Build();
  ExecutionPlan plan = BuildExecutionPlan(kb.rules, kb.facts);
  ASSERT_EQ(plan.dormant.size(), 3u);
  EXPECT_FALSE(plan.dormant[0]);
  EXPECT_TRUE(plan.dormant[1]);
  EXPECT_TRUE(plan.dormant[2]);
  EXPECT_EQ(plan.dormant_count, 2u);
}

TEST(ExecutionPlanTest, CountActiveStrataFiltersByInsertedPredicates) {
  KnowledgeBase kb = ChainProgram();
  ExecutionPlan plan = BuildExecutionPlan(kb.rules, kb.facts);
  std::vector<std::unordered_set<PredicateId>> bodies;
  for (const Rule& rule : kb.rules) {
    std::unordered_set<PredicateId> preds;
    rule.body().ForEach([&](const Atom& atom) { preds.insert(atom.predicate()); });
    bodies.push_back(std::move(preds));
  }
  Vocabulary& vocab = *kb.vocab;
  std::unordered_set<PredicateId> inserted;
  EXPECT_EQ(CountActiveStrata(plan, bodies, inserted), 0u);
  inserted.insert(vocab.MustPredicate("b", 1));
  EXPECT_EQ(CountActiveStrata(plan, bodies, inserted), 1u);
  inserted.insert(vocab.MustPredicate("a", 1));
  EXPECT_EQ(CountActiveStrata(plan, bodies, inserted), 2u);
}

class CoreGuardTest : public ::testing::Test {
 protected:
  CoreGuardTest() {
    p_ = vocab_.MustPredicate("p", 1);
    q_ = vocab_.MustPredicate("q", 2);
    e_ = vocab_.MustPredicate("e", 2);
    a_ = vocab_.Constant("a");
  }

  Vocabulary vocab_;
  PredicateId p_, q_, e_;
  Term a_;
};

TEST_F(CoreGuardTest, CertifiesWhenFreshNullIsRigidAndNothingMapsOnto) {
  AtomSet instance;
  instance.Insert(Atom(p_, {a_}));
  uint32_t mark = static_cast<uint32_t>(vocab_.num_variables());
  Term fresh = vocab_.NamedVariable("N0");
  Atom added(q_, {a_, fresh});
  instance.Insert(added);
  CoreGuardOutcome outcome = ProveStillCore(instance, {added}, mark);
  EXPECT_TRUE(outcome.certified);
  EXPECT_EQ(outcome.fresh_null_checks, 1u);
  EXPECT_TRUE(IsCore(instance));
}

TEST_F(CoreGuardTest, RefutesWhenFreshNullFoldsAway) {
  AtomSet instance;
  instance.Insert(Atom(p_, {a_}));
  uint32_t mark = static_cast<uint32_t>(vocab_.num_variables());
  Term fresh = vocab_.NamedVariable("N0");
  Atom added(p_, {fresh});
  instance.Insert(added);
  CoreGuardOutcome outcome = ProveStillCore(instance, {added}, mark);
  EXPECT_FALSE(outcome.certified);
  EXPECT_FALSE(IsCore(instance));
}

TEST_F(CoreGuardTest, WithholdsWhenOldAtomMapsOntoAddedOne) {
  // Base e(X, Y) is a core; adding e(X, a) lets the base atom retract onto
  // the added one (Y := a) — the guard must not certify.
  Term x = vocab_.NamedVariable("X");
  Term y = vocab_.NamedVariable("Y");
  AtomSet instance;
  instance.Insert(Atom(e_, {x, y}));
  uint32_t mark = static_cast<uint32_t>(vocab_.num_variables());
  Atom added(e_, {x, a_});
  instance.Insert(added);
  CoreGuardOutcome outcome = ProveStillCore(instance, {added}, mark);
  EXPECT_FALSE(outcome.certified);
  EXPECT_GT(outcome.onto_checks, 0u);
  EXPECT_FALSE(IsCore(instance));
}

TEST_F(CoreGuardTest, RefutesTwoFreshNullsThatFoldOnlyTogether) {
  // Base: the 2-cycle e(a, b), e(b, a). Added: a fresh 2-cycle e(N0, N1),
  // e(N1, N0). Neither null folds while the other stays put; together they
  // fold onto the base. The pinned case-(ii) search moves both at once.
  Term b = vocab_.Constant("b");
  AtomSet instance;
  instance.Insert(Atom(e_, {a_, b}));
  instance.Insert(Atom(e_, {b, a_}));
  uint32_t mark = static_cast<uint32_t>(vocab_.num_variables());
  Term n0 = vocab_.NamedVariable("N0");
  Term n1 = vocab_.NamedVariable("N1");
  std::vector<Atom> added = {Atom(e_, {n0, n1}), Atom(e_, {n1, n0})};
  for (const Atom& atom : added) instance.Insert(atom);
  CoreGuardOutcome outcome = ProveStillCore(instance, added, mark);
  EXPECT_FALSE(outcome.certified);
  EXPECT_EQ(outcome.fresh_null_checks, 1u);
  EXPECT_EQ(outcome.onto_checks, 0u);
  EXPECT_FALSE(IsCore(instance));
}

TEST_F(CoreGuardTest, CertifiesWhenOnlyANonIdempotentMapSendsAnAtomOnto) {
  // Base e(X, Y) is a core; adding e(Y, X) closes a 2-cycle, still a core.
  // The seed e(X, Y) -> e(Y, X) extends to the swap automorphism, which is
  // not idempotent: X -> Y would have to fix Y. No retraction extends it.
  Term x = vocab_.NamedVariable("X");
  Term y = vocab_.NamedVariable("Y");
  AtomSet instance;
  instance.Insert(Atom(e_, {x, y}));
  uint32_t mark = static_cast<uint32_t>(vocab_.num_variables());
  Atom added(e_, {y, x});
  instance.Insert(added);
  CoreGuardOutcome outcome = ProveStillCore(instance, {added}, mark);
  EXPECT_TRUE(outcome.certified);
  EXPECT_EQ(outcome.fresh_null_checks, 0u);
  EXPECT_EQ(outcome.onto_checks, 1u);
  EXPECT_TRUE(IsCore(instance));
}

TEST_F(CoreGuardTest, EmptyAdditionCertifiesTrivially) {
  AtomSet instance;
  instance.Insert(Atom(p_, {a_}));
  CoreGuardOutcome outcome = ProveStillCore(
      instance, {}, static_cast<uint32_t>(vocab_.num_variables()));
  EXPECT_TRUE(outcome.certified);
  EXPECT_EQ(outcome.fresh_null_checks, 0u);
  EXPECT_EQ(outcome.onto_checks, 0u);
}

// End-to-end: on the staircase world the planner's guard replaces most
// ComputeCore verifications of the core chase with certificates.
TEST(PlanChase, StaircaseCoreRunsCertifyInsteadOfRefolding) {
  KnowledgeBase kb = StaircaseWorld().kb();
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 30;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run->stats.plan_core_proofs, 0u);
  EXPECT_GT(run->stats.plan_core_certified, 0u);
  EXPECT_TRUE(IsCore(run->derivation.Last()));
}

// What the chase handed the guard at each step: whether the step was cored
// and the vocabulary mark right after it (the mark the next certification
// base carries).
class GuardInputs : public ChaseObserver {
 public:
  explicit GuardInputs(const Vocabulary* vocab) : vocab_(vocab) {}

  void OnRunBegin(const RunBeginEvent&) override {
    marks.assign(1, Mark());
    cored.assign(1, 0);
  }
  void OnTriggerApplied(const TriggerAppliedEvent& event) override {
    marks.resize(event.step + 1, 0);
    cored.resize(event.step + 1, 0);
    marks[event.step] = Mark();
  }
  void OnCoreRetraction(const CoreRetractionEvent& event) override {
    if (event.step > 0) cored[event.step] = 1;
  }

  std::vector<uint32_t> marks;
  std::vector<uint8_t> cored;

 private:
  uint32_t Mark() const {
    return static_cast<uint32_t>(vocab_->num_variables());
  }
  const Vocabulary* vocab_;
};

// Runs the core chase with the planner on, then calls the guard again on
// every cored step of the run's own derivation. Every instance it certifies
// must pass the exhaustive IsCore, and the recheck must agree with the
// run's certificate count. Returns that count.
size_t ExpectCertifiedStepsAreCores(const KnowledgeBase& kb, size_t max_steps) {
  GuardInputs inputs(kb.vocab.get());
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = max_steps;
  options.limits.max_instance_size = 4000;
  options.observer = &inputs;
  auto run = RunChase(kb, options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  if (!run.ok()) return 0;
  const Derivation& derivation = run->derivation;
  size_t certified = 0;
  size_t base = 0;
  std::vector<Atom> since;
  DerivationCursor c(derivation);
  for (c.Next(); !c.done(); c.Next()) {
    const size_t i = c.index();
    const std::vector<Atom>& added = c.step().added_atoms;
    since.insert(since.end(), added.begin(), added.end());
    if (i >= inputs.cored.size() || !inputs.cored[i]) continue;
    const AtomSet& pre = c.pre_simplification();
    if (ProveStillCore(pre, since, inputs.marks[base]).certified) {
      ++certified;
      EXPECT_TRUE(IsCore(pre)) << "certified step " << i << " is not a core";
    }
    base = i;
    since.clear();
  }
  EXPECT_EQ(certified, run->stats.plan_core_certified);
  return run->stats.plan_core_certified;
}

// Soundness of the guard on the paper's two worlds and on generated
// core-bts programs. The floors are the certificate counts of the
// whole-instance guard this one replaced (the remaining staircase steps do
// fold): searching only what can move must never certify less.
TEST(CoreGuardProperty, CertifiedStepsAreCores) {
  EXPECT_GE(ExpectCertifiedStepsAreCores(StaircaseWorld().kb(), 60), 54u);
  EXPECT_GE(ExpectCertifiedStepsAreCores(ElevatorWorld().kb(), 50), 50u);
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("core-bts seed " + std::to_string(seed));
    GeneratorOptions gen;
    gen.label = GeneratedClass::kCoreBts;
    gen.seed = seed;
    auto parsed = ParseProgram(GenerateProgram(gen).text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_GE(ExpectCertifiedStepsAreCores(parsed->kb, 60), 54u);
  }
}

// FNV-1a over a string: the digest of an event log.
uint64_t FnvString(const std::string& text) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// The dormant rule's enumeration is skipped, and the run is the one recorded
// before the planner could be switched off: with the planner off it took
// the same steps and rounds and reached the same instance and event log.
TEST(PlanChase, DormantRuleSkipsMatchWorkWithoutChangingTheRun) {
  KbBuilder b;
  b.Fact("a", {b.C("k")});
  b.AddRule("live", {b.A("a", {b.V("X")})},
            {b.A("b", {b.V("X"), b.V("Z")})});
  b.AddRule("dead", {b.A("ghost", {b.V("X")})}, {b.A("c", {b.V("X")})});
  KnowledgeBase kb = b.Build();

  std::ostringstream events;
  EventLogObserver log(&events);
  ChaseOptions options;
  options.variant = ChaseVariant::kRestricted;
  options.limits.max_steps = 20;
  options.observer = &log;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->stats.plan_enumerations_skipped, 0u);
  EXPECT_EQ(run->stats.plan_dormant_rules, 1u);
  EXPECT_EQ(run->stop_reason, StopReason::kFixpoint);
  EXPECT_EQ(run->steps, 1u);
  EXPECT_EQ(run->rounds, 2u);
  EXPECT_EQ(run->derivation.Last().ContentHash(), 0x3b0742767af5effaull);
  EXPECT_EQ(FnvString(events.str()), 0xe95056e5f5c2edfcull);
}

// The guard proves every coring of a core run and certifies most of them;
// only the uncertified ones pay for a full ComputeCore. Counts recorded
// before the planner could no longer be switched off.
TEST(CoreGuardProperty, GuardProvesAndCertifiesOnCoreRuns) {
  struct Case {
    const char* name;
    KnowledgeBase kb;
    size_t core_full;
    size_t proofs;
    size_t certified;
  };
  Case cases[] = {
      {"staircase", StaircaseWorld().kb(), 5, 40, 35},
      {"elevator", ElevatorWorld().kb(), 0, 40, 40},
  };
  for (const Case& c : cases) {
    ChaseOptions options;
    options.variant = ChaseVariant::kCore;
    options.limits.max_steps = 40;
    auto run = RunChase(c.kb, options);
    ASSERT_TRUE(run.ok()) << c.name;
    EXPECT_EQ(run->stats.core_full, c.core_full) << c.name;
    EXPECT_EQ(run->stats.plan_core_proofs, c.proofs) << c.name;
    EXPECT_EQ(run->stats.plan_core_certified, c.certified) << c.name;
    EXPECT_TRUE(IsCore(run->derivation.Last())) << c.name;
  }
}

// A replayed coring restores the guard's certified base: it was a guard
// proof or a ComputeCore result in the recorded run, so it is a core. The
// first live coring after a resume is then proved, not recomputed from
// scratch (without the base it fell back to a full ComputeCore over the
// whole instance, and resumed elevator segments took minutes).
TEST(CoreGuardProperty, ResumedRunKeepsTheGuardBase) {
  ChaseOptions recorded;
  recorded.variant = ChaseVariant::kCore;
  recorded.limits.max_steps = 100;
  recorded.resume.record_log = true;
  ElevatorWorld recorded_world;
  auto run = RunChase(recorded_world.kb(), recorded);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ElevatorWorld checkpoint_world;
  ChaseCheckpoint checkpoint =
      MakeCheckpoint(checkpoint_world.kb(), recorded, *run);

  ChaseOptions resumed_options;
  resumed_options.variant = ChaseVariant::kCore;
  resumed_options.limits.max_steps = 101;
  ElevatorWorld resumed_world;
  auto resumed = ResumeChase(resumed_world.kb(), resumed_options, checkpoint);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->steps, 101u);
  EXPECT_EQ(resumed->stats.plan_core_proofs, 1u);
  EXPECT_EQ(resumed->stats.plan_core_certified, 1u);
}

// Guard call 226 of the elevator core chase (|F| = 391) is where a case-(i)
// search that selects only atoms with a moved variable explodes: one seed
// took 493,372 nodes where the whole-instance search takes 555, and the
// call passed 20M. The frontier-bounded search keeps boundary atoms
// selectable; guard call 373 (|F| = 662) then still took 6.1M nodes, and a
// 450-step run 12.1M guard nodes and 26 s. The consistency pass refutes
// every case-(i) seed of the run before its search starts, so no guard
// call gets near that, and the run ends well before the deadline.
TEST(CoreGuardProperty, ElevatorCoreReachesStep450BeforeTheDeadline) {
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 450;
  options.limits.deadline_ms = 120000;
  ElevatorWorld world;
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->stop_reason, StopReason::kStepBudget);
  EXPECT_EQ(run->steps, 450u);
  EXPECT_EQ(run->stats.plan_core_proofs, 450u);
  EXPECT_EQ(run->stats.plan_core_certified, 450u);
  // 4,960 and 135 when pinned; 12.1M and 6.1M before the pass.
  EXPECT_LE(run->stats.guard_search_nodes, 10000u);
  EXPECT_LE(run->stats.guard_max_call_nodes, 1000u);
}

// The seeds behind the cliff: step 373 of the elevator core chase applies
// Rv6, so every one of guard call 373's 289 case-(i) seeds (|F| = 662)
// targets the loop it adds, v(X,X) or f(X). Before the consistency pass
// they took 6.1M nodes, most of them in about 25 UNSAT searches of 1-2.3 s
// each. The pass refutes every seed before its search visits a node.
TEST(CoreGuardProperty, ConsistencyRefutesTheLoopSeedsOfGuardCall373) {
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 373;
  ElevatorWorld world;
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->steps, 373u);
  const AtomSet pre = run->derivation.PreSimplification(373);
  ASSERT_EQ(pre.size(), 662u);
  const std::vector<Atom>& added = run->derivation.step(373).added_atoms;
  RetractionSearch search(pre);
  MatchCounters counters;
  MatchCountersScope scope(&counters);
  size_t seeds = 0;
  size_t loop_seeds = 0;
  for (const Atom& d : added) {
    const bool loop = std::all_of(d.args().begin(), d.args().end(),
                                  [&](Term t) { return t == d.arg(0); });
    for (const Atom* a : pre.ByPredicate(d.predicate())) {
      if (*a == d || !UnifyBodyAtomWithFact(*a, d).has_value()) continue;
      ++seeds;
      loop_seeds += loop;
      EXPECT_TRUE(search.RefutedByConsistency(*a, d));
      EXPECT_FALSE(search.MapsOnto(*a, d));
    }
  }
  EXPECT_EQ(seeds, 289u);  // the call's onto_checks
  EXPECT_EQ(loop_seeds, seeds);
  EXPECT_EQ(counters.search_nodes.load(), 0u);
}

}  // namespace
}  // namespace twchase
