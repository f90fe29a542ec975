#include "core/chase.h"

#include <algorithm>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/delta.h"
#include "core/session.h"
#include "core/trigger.h"
#include "core/trigger_key.h"
#include "hom/core.h"
#include "hom/endomorphism.h"
#include "hom/matcher.h"
#include "obs/observer.h"
#include "plan/core_guard.h"
#include "plan/execution_plan.h"
#include "util/fault.h"
#include "util/governor.h"
#include "util/logging.h"
#include "util/status.h"

namespace twchase {

const char* ChaseVariantName(ChaseVariant variant) {
  switch (variant) {
    case ChaseVariant::kOblivious:
      return "oblivious";
    case ChaseVariant::kSemiOblivious:
      return "semi-oblivious";
    case ChaseVariant::kRestricted:
      return "restricted";
    case ChaseVariant::kFrugal:
      return "frugal";
    case ChaseVariant::kCore:
      return "core";
  }
  return "unknown";
}

// Error messages lead with the full nested field path (limits. / core. /
// delta. / resume. / preflight.), so CLI users see which flag to fix and the
// HTTP surface (src/service/wire.cc) can lift the path into its structured
// 400 payload without guessing.
Status ChaseOptions::Validate() const {
  if (core.core_every == 0) {
    return Status::InvalidArgument("core.core_every must be positive");
  }
  if (preflight.auto_variant && !preflight.resolved) {
    return Status::InvalidArgument(
        "preflight.auto_variant requires resolution: run "
        "ResolveAutoVariant (analysis/preflight.h) before starting the "
        "chase — an unresolved --variant=auto must never reach the engine");
  }
  return Status::OK();
}

namespace {

// A body match of one rule. Under delta evaluation it is kept across rounds;
// under naive evaluation it lives for one round. `key` packs the full
// binding map and serves as both the deduplication identity and the
// within-rule sort key (via PackedBindings::LegacyLess, which reproduces the
// engine's historical string-key order exactly).
struct StoredMatch {
  Substitution match;
  PackedBindings key;

  // Monotone variants only: this match was considered this round and can
  // never be active again (applied, duplicate, or satisfied in a growing
  // instance); dropped from the stored set at round end.
  bool retired = false;
};

struct RuleState {
  bool datalog = false;

  // Predicates occurring in the rule body — the probe filter for inserted
  // atoms.
  std::unordered_set<PredicateId> body_predicates;

  // Invariant under delta evaluation (at every round start): `matches` is
  // exactly the set of homomorphisms body → current instance, minus retired
  // ones, and `match_keys` contains the key of every match ever stored and
  // not invalidated (retired keys are kept: their atoms can never be
  // re-inserted in a monotone run, so the probes cannot rediscover them).
  std::vector<StoredMatch> matches;
  std::unordered_set<PackedBindings, PackedBindingsHash> match_keys;

  // (Semi-)oblivious: keys already applied, persistent for the whole run.
  std::unordered_set<PackedBindings, PackedBindingsHash> applied;
};

// Records the effect of replacing `before` by retraction(before) into the
// delta index: exactly the atoms containing a moved variable disappear (a
// retraction is the identity on all terms of its image, so an atom of the
// image never contains a moved variable), and their images appear. An image
// atom may have existed already — recording it as inserted is harmless, the
// seeded probes deduplicate against the stored keys.
void RecordRetractionDelta(const Substitution& retraction,
                           const AtomSet& before, DeltaIndex* delta) {
  for (const auto& [var, image] : retraction.map()) {
    if (var == image) continue;
    for (const Atom* atom : before.ByTerm(var)) {
      delta->RecordErase(*atom);
      delta->RecordInsert(retraction.Apply(*atom));
    }
  }
}

// Telemetry of one round's planner decisions (src/plan/), aggregated for the
// per-round PlanEvent and ChaseStats.
struct RoundPlanStats {
  size_t active_strata = 0;
  size_t enumerations_skipped = 0;
  size_t probes_skipped = 0;
  size_t core_proofs = 0;
  size_t core_certified = 0;

  bool any() const {
    return active_strata + enumerations_skipped + probes_skipped +
               core_proofs + core_certified >
           0;
  }
};

// Walks a recorded ResumeLog in lock-step with the scheduler. While
// `active`, committed decisions come from the log instead of satisfaction
// checks, and recorded retractions are applied instead of recomputing
// cores. The cursor deactivates — execution "goes live" — exactly at the
// boundary where the recorded run stopped.
struct ReplayCursor {
  const ResumeLog* log = nullptr;
  size_t round_index = 0;
  size_t bit_index = 0;
  size_t step_index = 0;
  bool active = false;
};

}  // namespace

// The one-shot compatibility surface: both free functions are thin wrappers
// over ChaseSession (core/session.h), which owns validation and lifecycle.
// A session that is only ever started is exactly the historical run — the
// goldens and the differential suites pin the bit-identity.
StatusOr<ChaseResult> RunChase(const KnowledgeBase& kb,
                               const ChaseOptions& options) {
  return RunChaseWithReplay(kb, options, nullptr);
}

StatusOr<ChaseResult> RunChaseWithReplay(const KnowledgeBase& kb,
                                         const ChaseOptions& options,
                                         const ResumeLog* replay) {
  auto session = ChaseSession::Create(kb, options);
  if (!session.ok()) return session.status();
  TWCHASE_RETURN_IF_ERROR((*session)->StartWithReplay(replay));
  return (*session)->TakeResult();
}

namespace internal {

StatusOr<ChaseResult> ExecuteChase(const KnowledgeBase& kb,
                                   const ChaseOptions& options,
                                   const ResumeLog* replay) {
  if (kb.vocab == nullptr) {
    return Status::InvalidArgument("knowledge base has no vocabulary");
  }
  TWCHASE_RETURN_IF_ERROR(options.Validate());
  // A log that never committed anything records a run that stopped before
  // the initial element; replaying it is a plain fresh run.
  if (replay != nullptr && !replay->have_initial) replay = nullptr;
  Vocabulary* vocab = kb.vocab.get();
  const bool is_core = options.variant == ChaseVariant::kCore;
  const bool delta_on = options.delta.enabled;
  // The observer is a read-only tap; every emission site below is a single
  // untaken branch when no observer is attached.
  ChaseObserver* const obs = options.observer;
  // Monotone variants never erase atoms, so a trigger once applied — or, for
  // the restricted chase, once satisfied — can never become active again:
  // the delta evaluation retires such matches instead of re-checking them
  // every round. Frugal and core runs erase atoms (satisfaction is not
  // stable), so their matches are kept and re-checked.
  const bool retire_considered =
      delta_on && (options.variant == ChaseVariant::kOblivious ||
                   options.variant == ChaseVariant::kSemiOblivious ||
                   options.variant == ChaseVariant::kRestricted);

  ChaseResult result;
  result.derivation = Derivation(options.keep_snapshots);
  ScopedCrashContext crash_context("chase run", &result.steps);

  // Cooperative resource governance: the governor is polled at every
  // trigger/round boundary here and at every search node inside the
  // homomorphism, coring, entailment and treewidth procedures via the
  // ambient scope. Once it stops, nothing past the last committed step is
  // trusted: partial search results are discarded, uncommitted mutations
  // rolled back, and the run returns the consistent prefix.
  ResourceLimits governor_limits;
  governor_limits.deadline_ms = options.limits.deadline_ms;
  governor_limits.memory_budget_bytes = options.limits.memory_budget_bytes;
  governor_limits.cancel = options.limits.cancel;
  ResourceGovernor governor(governor_limits);
  GovernorScope governor_scope(&governor);

  // Ambient chase.match.* telemetry: every homomorphism search of this run
  // (trigger enumeration, satisfaction checks, core folds) folds its
  // probe/scan/build counts in here. Totals are a pure function of the
  // searches performed.
  MatchCounters match_counters;
  MatchCountersScope match_scope(&match_counters);
  auto fold_match_stats = [&]() {
    result.stats.match_index_probes =
        match_counters.index_probes.load(std::memory_order_relaxed);
    result.stats.match_column_scans =
        match_counters.column_scans.load(std::memory_order_relaxed);
    result.stats.match_join_fallbacks =
        match_counters.join_fallbacks.load(std::memory_order_relaxed);
    result.stats.match_index_builds =
        match_counters.index_builds.load(std::memory_order_relaxed);
    result.stats.match_index_build_bytes =
        match_counters.index_build_bytes.load(std::memory_order_relaxed);
  };

  // Counter values already reported through MatchPlanEvent, so each round's
  // event carries deltas. Besides the round ends, this is flushed once after
  // the scheduler loop (and on the pre-run budget-stop path): a mid-round
  // stop used to drop the final round's counts from any attached
  // MetricsRegistry while ChaseStats kept them, so the registry totals
  // depended on where the stop landed.
  MatchPlanEvent match_reported;
  auto emit_match_plan_delta = [&](size_t round) {
    if (obs == nullptr) return;
    MatchPlanEvent plan;
    plan.round = round;
    plan.index_probes =
        match_counters.index_probes.load(std::memory_order_relaxed) -
        match_reported.index_probes;
    plan.column_scans =
        match_counters.column_scans.load(std::memory_order_relaxed) -
        match_reported.column_scans;
    plan.join_fallbacks =
        match_counters.join_fallbacks.load(std::memory_order_relaxed) -
        match_reported.join_fallbacks;
    plan.index_builds =
        match_counters.index_builds.load(std::memory_order_relaxed) -
        match_reported.index_builds;
    plan.index_build_bytes =
        match_counters.index_build_bytes.load(std::memory_order_relaxed) -
        match_reported.index_build_bytes;
    if (plan.index_probes + plan.column_scans + plan.join_fallbacks +
            plan.index_builds + plan.index_build_bytes ==
        0) {
      return;
    }
    obs->OnMatchPlan(plan);
    match_reported.index_probes += plan.index_probes;
    match_reported.column_scans += plan.column_scans;
    match_reported.join_fallbacks += plan.join_fallbacks;
    match_reported.index_builds += plan.index_builds;
    match_reported.index_build_bytes += plan.index_build_bytes;
  };

  // Still-core guard (plan/core_guard.h). The instance is a certified core
  // exactly while `guard_base_established`: every certified variable was
  // minted before `guard_base_mark` and `guard_atoms_since` holds the atoms
  // added since certification. Certification sites are exactly the live
  // coring successes (initial, per-step, round-end) and guard proofs;
  // replayed retractions never certify (the base predates the replayed
  // mutations).
  const bool plan_on = options.plan.enabled;
  const bool guard_cores = plan_on && is_core;
  bool guard_base_established = false;
  uint32_t guard_base_mark = 0;
  std::vector<Atom> guard_atoms_since;
  auto note_certified = [&]() {
    if (!guard_cores) return;
    guard_base_established = true;
    guard_base_mark = static_cast<uint32_t>(vocab->num_variables());
    guard_atoms_since.clear();
  };

  ResumeLog* const rec = options.resume.record_log ? &result.resume_log
                                                   : nullptr;
  ReplayCursor cursor;
  if (replay != nullptr) {
    cursor.log = replay;
    cursor.active = true;
  }
  // Set once, when replay reaches the end of the log but the reconstructed
  // state does not match the checkpointed one.
  Status replay_error = Status::OK();
  AtomSet current = kb.facts;
  // Deactivates the cursor (all further decisions are live) and, when the
  // log carries landing-verification data, cross-checks the reconstructed
  // state against the checkpointed one. Every deactivation site is a full
  // consumption of the log, so the check fires exactly at the recorded
  // stop boundary.
  auto go_live = [&]() {
    cursor.active = false;
    if (cursor.log == nullptr || !cursor.log->verify_landing) return;
    if (current.size() != cursor.log->expected_instance_size ||
        current.ContentHash() != cursor.log->expected_instance_hash ||
        vocab->num_variables() != cursor.log->committed_num_variables) {
      replay_error = Status::FailedPrecondition(
          "resume replay did not reconstruct the checkpointed state "
          "(instance or fresh-null counter mismatch; the checkpoint does "
          "not belong to this knowledge base / options)");
    }
  };

  governor.NoteMemoryUsage(current.ApproxMemoryBytes());
  bool budget_stop = governor.ShouldStop(FaultSite::kRoundBoundary);

  Substitution sigma0;
  size_t initial_folds = 0;
  size_t initial_size_before = current.size();
  if (!budget_stop && is_core && options.core.core_initial) {
    if (cursor.active) {
      sigma0 = cursor.log->initial_sigma;
      initial_folds = cursor.log->initial_folds;
      current = sigma0.Apply(current);
    } else {
      CoreResult cored = ComputeCore(current);
      if (governor.stopped()) {
        // Coring aborted mid-search: the partial retraction is not a
        // retraction of anything. Keep F untouched.
        budget_stop = true;
      } else {
        current = std::move(cored.core);
        sigma0 = std::move(cored.retraction);
        initial_folds = cored.folds;
        note_certified();
      }
    }
  }
  if (budget_stop) {
    // Stopped before the initial element committed: the result is the
    // untouched input (zero steps, empty resume log with have_initial
    // false — resuming is a fresh run).
    result.derivation.AddInitial(current, {});
    result.stop_reason = governor.reason();
    result.stats.peak_instance_size = current.size();
    if (obs != nullptr) {
      RunBeginEvent begin;
      begin.variant = options.variant;
      begin.rule_count = kb.rules.size();
      begin.initial_size = current.size();
      begin.initial_simplification = &result.derivation.step(0).simplification;
      begin.instance = &current;
      obs->OnRunBegin(begin);
      if (governor.fault_fired()) {
        obs->OnFaultInjected(
            {governor.fault_site(), governor.fault_visit(), governor.reason()});
      }
      emit_match_plan_delta(0);
      obs->OnRunEnd({result.steps, result.rounds, /*terminated=*/false,
                     /*size_guard_tripped=*/false, current.size(),
                     result.stop_reason});
    }
    fold_match_stats();
    return result;
  }
  if (rec != nullptr) {
    rec->have_initial = true;
    rec->initial_sigma = sigma0;
    rec->initial_folds = initial_folds;
    rec->initial_num_variables = vocab->num_variables();
  }
  result.derivation.AddInitial(current, std::move(sigma0));
  if (rec != nullptr) rec->committed_num_variables = vocab->num_variables();
  result.stats.peak_instance_size = current.size();
  // The final retained snapshot is the live instance; counting both would
  // double the estimate (see ApproxMemoryBytesExcludingFinalSnapshot).
  governor.NoteMemoryUsage(
      current.ApproxMemoryBytes() +
      result.derivation.ApproxMemoryBytesExcludingFinalSnapshot());

  if (obs != nullptr) {
    RunBeginEvent begin;
    begin.variant = options.variant;
    begin.rule_count = kb.rules.size();
    begin.initial_size = current.size();
    begin.initial_simplification = &result.derivation.step(0).simplification;
    begin.instance = &current;
    obs->OnRunBegin(begin);
    if (is_core && options.core.core_initial) {
      CoreRetractionEvent retraction;
      retraction.step = 0;
      retraction.folds = initial_folds;
      retraction.size_before = initial_size_before;
      retraction.size_after = current.size();
      obs->OnCoreRetraction(retraction);
    }
  }

  std::vector<RuleState> rule_states(kb.rules.size());
  for (size_t r = 0; r < kb.rules.size(); ++r) {
    rule_states[r].datalog = kb.rules[r].IsDatalog();
    kb.rules[r].body().ForEach([&](const Atom& atom) {
      rule_states[r].body_predicates.insert(atom.predicate());
    });
  }

  // Execution plan (src/plan/): positive-reliance graph, SCC strata and
  // dormant rules. A pure function of the program and the input facts'
  // predicates, computed once and valid for the whole run: every atom any
  // chase instance can ever hold has a producible predicate (induction over
  // applications), so a dormant rule has no match in any reachable
  // instance, retractions included — see BuildExecutionPlan.
  ExecutionPlan exec_plan;
  std::vector<std::unordered_set<PredicateId>> plan_body_predicates;
  if (plan_on) {
    exec_plan = BuildExecutionPlan(kb.rules, kb.facts);
    result.stats.plan_reliance_edges = exec_plan.graph.edge_count;
    result.stats.plan_strata = exec_plan.strata.size();
    result.stats.plan_dormant_rules = exec_plan.dormant_count;
    plan_body_predicates.reserve(rule_states.size());
    for (const RuleState& state : rule_states) {
      plan_body_predicates.push_back(state.body_predicates);
    }
    if (obs != nullptr) {
      PlanEvent plan_event;
      plan_event.rules = kb.rules.size();
      plan_event.reliance_edges = exec_plan.graph.edge_count;
      plan_event.strata = exec_plan.strata.size();
      plan_event.dormant_rules = exec_plan.dormant_count;
      obs->OnPlan(plan_event);
    }
  }
  const bool prune_dormant = plan_on && exec_plan.dormant_count > 0;

  DeltaIndex pending_delta;
  bool delta_primed = false;
  if (delta_on) current.EnableDeltaJournal();

  size_t since_last_core = 0;
  bool fixpoint = false;
  bool size_guard_tripped = false;

  while (result.steps < options.limits.max_steps) {
    if (governor.ShouldStop(FaultSite::kRoundBoundary)) {
      budget_stop = true;
      break;
    }
    if (cursor.active && cursor.round_index >= cursor.log->rounds.size()) {
      go_live();
      if (!replay_error.ok()) break;
    }
    ++result.rounds;
    if (rec != nullptr) rec->rounds.emplace_back();
    const size_t steps_at_round_start = result.steps;
    RoundPlanStats round_plan;

    // Establish this round's match sets: naive evaluation re-enumerates
    // from scratch; delta evaluation repairs the stored sets from the atoms
    // inserted/erased since the last round. Either way, afterwards each
    // rule's matches (minus retired ones, which are inactive by
    // construction) are exactly its triggers for `current`.
    if (!delta_on || !delta_primed) {
      for (size_t r = 0; r < kb.rules.size(); ++r) {
        RuleState& state = rule_states[r];
        state.matches.clear();
        if (prune_dormant && exec_plan.dormant[r]) {
          // The enumeration is guaranteed empty for a dormant rule.
          ++result.stats.plan_enumerations_skipped;
          ++round_plan.enumerations_skipped;
          continue;
        }
        for (Trigger& tr :
             FindTriggers(kb.rules[r], static_cast<int>(r), current)) {
          PackedBindings key = PackedBindings::FromMatch(tr.match);
          if (delta_on) state.match_keys.insert(key);
          state.matches.push_back(
              StoredMatch{std::move(tr.match), std::move(key)});
        }
        ++result.stats.full_enumerations;
      }
      delta_primed = true;
    } else {
      pending_delta.Absorb(current.DrainDelta());
      DeltaRepairEvent repair;
      repair.round = result.rounds;
      repair.inserted_atoms = pending_delta.inserted().size();
      repair.erased_atoms = pending_delta.erased().size();
      if (pending_delta.has_erasures()) {
        // Revalidation fast path: insertions never falsify a stored match,
        // so a rule none of whose body predicates lost an atom keeps its
        // whole match set, and within a touched rule only matches whose
        // body image meets the erased segment need the full re-probe.
        // Outcomes (and with them retire events and counters) are exactly
        // those of the unconditional IsTriggerFor sweep.
        auto rule_touched_by_erasure = [&](size_t r) {
          for (PredicateId p : rule_states[r].body_predicates) {
            if (pending_delta.ErasedTouchesPredicate(p)) return true;
          }
          return false;
        };
        auto still_valid = [&](size_t r, const StoredMatch& stored) {
          return !MatchImageTouchesErased(kb.rules[r], stored.match,
                                          pending_delta) ||
                 IsTriggerFor(kb.rules[r], stored.match, current);
        };
        for (size_t r = 0; r < kb.rules.size(); ++r) {
          RuleState& state = rule_states[r];
          if (!rule_touched_by_erasure(r)) continue;
          size_t kept = 0;
          for (size_t i = 0; i < state.matches.size(); ++i) {
            if (still_valid(r, state.matches[i])) {
              if (kept != i) state.matches[kept] = std::move(state.matches[i]);
              ++kept;
            } else {
              state.match_keys.erase(state.matches[i].key);
              ++result.stats.matches_invalidated;
              ++repair.matches_invalidated;
              if (obs != nullptr) {
                obs->OnTriggerRetired({result.rounds, static_cast<int>(r),
                                       TriggerRetireReason::kInvalidated});
              }
            }
          }
          state.matches.resize(kept);
        }
      }
      for (const Atom& fact : pending_delta.inserted()) {
        // An atom inserted and erased again within the round yields no
        // matches (the probe pins a body atom's image to it).
        if (!current.Contains(fact)) continue;
        for (size_t r = 0; r < kb.rules.size(); ++r) {
          RuleState& state = rule_states[r];
          if (!state.body_predicates.contains(fact.predicate())) continue;
          // Skipped probes stay accounted: the DeltaRepairEvent payload
          // (and the seed_probes counters) must not depend on the planner.
          ++result.stats.seed_probes;
          ++repair.seed_probes;
          if (prune_dormant && exec_plan.dormant[r]) {
            ++result.stats.plan_probes_skipped;
            ++round_plan.probes_skipped;
            continue;
          }
          for (Substitution& m :
               FindSeededMatches(kb.rules[r], fact, current)) {
            PackedBindings key = PackedBindings::FromMatch(m);
            if (state.match_keys.insert(key).second) {
              state.matches.push_back(
                  StoredMatch{std::move(m), std::move(key)});
              ++repair.matches_added;
            }
          }
        }
      }
      if (plan_on) {
        round_plan.active_strata = CountActiveStrata(
            exec_plan, plan_body_predicates, pending_delta.InsertedPredicates());
      }
      pending_delta.Clear();
      if (obs != nullptr) obs->OnDeltaRepair(repair);
    }
    // The match search polls the governor internally and may have returned
    // a partial enumeration; a round scheduled from one would not be a fair
    // round, so stop before snapshotting.
    if (governor.stopped()) {
      budget_stop = true;
      break;
    }

    // Snapshot and order the round's triggers. The order is total — within
    // a rule, distinct matches have distinct packed keys — and equals the
    // historical (datalog_first, rule_index, string sort key) order.
    struct PendingTrigger {
      int rule_index;
      bool datalog;
      size_t match_index;
    };
    std::vector<PendingTrigger> pending;
    for (size_t r = 0; r < rule_states.size(); ++r) {
      for (size_t i = 0; i < rule_states[r].matches.size(); ++i) {
        pending.push_back(
            PendingTrigger{static_cast<int>(r), rule_states[r].datalog, i});
      }
    }
    std::sort(pending.begin(), pending.end(),
              [&](const PendingTrigger& a, const PendingTrigger& b) {
                if (options.datalog_first && a.datalog != b.datalog) {
                  return a.datalog;
                }
                if (a.rule_index != b.rule_index) {
                  return a.rule_index < b.rule_index;
                }
                return PackedBindings::LegacyLess(
                    rule_states[a.rule_index].matches[a.match_index].key,
                    rule_states[b.rule_index].matches[b.match_index].key);
              });
    result.stats.triggers_found += pending.size();

    if (obs != nullptr) {
      obs->OnRoundBegin({result.rounds, pending.size(), current.size()});
    }

    bool progressed = false;
    // Set when replay hits the end of a round record that carries a
    // committed round-end coring: the recorded run left its trigger loop
    // early (step budget or size guard) and then amended — follow it.
    bool replay_round_cut = false;
    Substitution sigma_round;  // composition of simplifications this round
    for (const PendingTrigger& p : pending) {
      if (result.steps >= options.limits.max_steps) break;
      if (governor.ShouldStop(FaultSite::kTriggerBoundary)) {
        budget_stop = true;
        break;
      }
      // Replay: consume this consideration's committed decision, or detect
      // the recorded stop point and go live at exactly this trigger.
      bool replaying_this = false;
      bool replay_bit = false;
      if (cursor.active) {
        const ResumeLog::RoundRecord& rr =
            cursor.log->rounds[cursor.round_index];
        if (cursor.bit_index < rr.decisions.size()) {
          replaying_this = true;
          replay_bit = rr.decisions[cursor.bit_index++] != 0;
        } else if (rr.have_round_end) {
          replay_round_cut = true;
          break;
        } else {
          go_live();
          if (!replay_error.ok()) break;
        }
      }
      const Rule& rule = kb.rules[p.rule_index];
      RuleState& state = rule_states[p.rule_index];
      StoredMatch& stored = state.matches[p.match_index];
      ++result.stats.triggers_considered;
      if (obs != nullptr) {
        obs->OnTriggerConsidered({result.rounds, p.rule_index});
      }
      // Re-map the trigger through the simplifications applied since the
      // round snapshot (σ^j_i of Definition 2); σ is a homomorphism between
      // successive instances, so the image is still a trigger.
      Substitution composed;
      const Substitution* match = &stored.match;
      if (!sigma_round.empty()) {
        composed = Substitution::Compose(sigma_round, stored.match);
        match = &composed;
      }
      // Activeness per variant. Replay substitutes the recorded decision
      // for the satisfaction check (the oblivious key bookkeeping still
      // runs — it is deterministic — and is cross-checked against the log).
      bool satisfaction_aborted = false;
      bool skip = false;
      switch (options.variant) {
        case ChaseVariant::kOblivious: {
          PackedBindings key = match == &stored.match
                                   ? stored.key
                                   : PackedBindings::FromMatch(*match);
          bool fresh = state.applied.insert(std::move(key)).second;
          if (replaying_this) {
            TWCHASE_CHECK_MSG(fresh == replay_bit,
                              "resume log diverged from the oblivious "
                              "application keys");
          }
          stored.retired = true;
          if (obs != nullptr && retire_considered) {
            obs->OnTriggerRetired({result.rounds, p.rule_index,
                                   fresh ? TriggerRetireReason::kApplied
                                         : TriggerRetireReason::kDuplicate});
          }
          if (!fresh) skip = true;
          break;
        }
        case ChaseVariant::kSemiOblivious: {
          PackedBindings key =
              PackedBindings::FromRestricted(*match, rule.frontier());
          bool fresh = state.applied.insert(std::move(key)).second;
          if (replaying_this) {
            TWCHASE_CHECK_MSG(fresh == replay_bit,
                              "resume log diverged from the semi-oblivious "
                              "application keys");
          }
          stored.retired = true;
          if (obs != nullptr && retire_considered) {
            obs->OnTriggerRetired({result.rounds, p.rule_index,
                                   fresh ? TriggerRetireReason::kApplied
                                         : TriggerRetireReason::kDuplicate});
          }
          if (!fresh) skip = true;
          break;
        }
        case ChaseVariant::kRestricted:
        case ChaseVariant::kFrugal:
        case ChaseVariant::kCore: {
          bool satisfied;
          if (replaying_this) {
            satisfied = !replay_bit;
          } else {
            satisfied = TriggerIsSatisfied(rule, *match, current);
            if (governor.stopped()) {
              // The satisfaction search aborted; its verdict is not
              // trustworthy and nothing has been committed for this
              // consideration — stop exactly here.
              satisfaction_aborted = true;
              break;
            }
          }
          if (retire_considered) {
            stored.retired = true;
            if (obs != nullptr) {
              obs->OnTriggerRetired({result.rounds, p.rule_index,
                                     satisfied
                                         ? TriggerRetireReason::kSatisfied
                                         : TriggerRetireReason::kApplied});
            }
          }
          if (satisfied) skip = true;
          break;
        }
      }
      if (satisfaction_aborted) {
        budget_stop = true;
        break;
      }
      if (skip) {
        if (rec != nullptr) rec->rounds.back().decisions.push_back(0);
        continue;
      }

      TriggerApplication application =
          ApplyTrigger(rule, *match, &current, vocab);
      if (guard_cores && guard_base_established) {
        // Copied, not moved: added_atoms still feeds the derivation step
        // (and the abort rollback) below.
        guard_atoms_since.insert(guard_atoms_since.end(),
                                 application.added_atoms.begin(),
                                 application.added_atoms.end());
      }
      Substitution sigma;
      std::vector<Substitution> fold_sigmas;
      size_t core_folds = 0;
      bool have_core_event = false;
      bool application_aborted = false;
      CoreRetractionEvent core_event;
      const bool do_core = is_core && !options.core.core_at_round_end &&
                           ++since_last_core >= options.core.core_every;
      if (do_core) since_last_core = 0;
      const ResumeLog::StepRecord* step_record = nullptr;
      if (replaying_this) {
        TWCHASE_CHECK_MSG(cursor.step_index < cursor.log->steps.size(),
                          "resume log diverged: missing step record");
        step_record = &cursor.log->steps[cursor.step_index++];
        TWCHASE_CHECK_MSG(step_record->cored == do_core,
                          "resume log diverged from the coring schedule");
      }
      if (do_core) {
        core_event.size_before = current.size();
        if (step_record != nullptr) {
          // Replay the recorded retraction through the same mutation
          // sequence as live coring (drain, record delta, rebuild): the
          // resulting instance, journal and delta state are identical.
          if (delta_on) pending_delta.Absorb(current.DrainDelta());
          if (delta_on) {
            RecordRetractionDelta(step_record->sigma, current, &pending_delta);
          }
          current = step_record->sigma.Apply(current);
          if (delta_on) current.EnableDeltaJournal();
          sigma = step_record->sigma;
          ++result.stats.core_full;
          core_event.folds = step_record->folds;
        } else {
          if (delta_on) pending_delta.Absorb(current.DrainDelta());
          bool guard_certified = false;
          if (guard_cores && guard_base_established && !governor.stopped()) {
            ++result.stats.plan_core_proofs;
            ++round_plan.core_proofs;
            CoreGuardOutcome guard =
                ProveStillCore(current, guard_atoms_since, guard_base_mark);
            // An inner search the governor aborted can miss a refutation,
            // so a stopped run never certifies: it falls through to
            // ComputeCore, whose abort path rolls the application back.
            guard_certified = guard.certified && !governor.stopped();
          }
          if (guard_certified) {
            // Proven still a core without folding anything: ComputeCore
            // would have returned the instance itself with an empty
            // retraction and zero folds, so leaving `current` in place
            // (its journal survives the drain) with `sigma` empty
            // reproduces the unguarded records and events bit for bit.
            ++result.stats.plan_core_certified;
            ++round_plan.core_certified;
            if (delta_on) current.EnableDeltaJournal();
            core_event.folds = 0;
            note_certified();
          } else {
            CoreResult cored = ComputeCore(current);
            if (governor.stopped()) {
              // Coring aborted mid-search: discard it and roll the
              // application back to the last committed step (its added atoms
              // are exactly what it inserted; everything else is untouched).
              for (const Atom& atom : application.added_atoms) {
                current.Erase(atom);
              }
              application_aborted = true;
            } else {
              if (delta_on) {
                RecordRetractionDelta(cored.retraction, current,
                                      &pending_delta);
              }
              current = std::move(cored.core);
              if (delta_on) current.EnableDeltaJournal();
              sigma = std::move(cored.retraction);
              ++result.stats.core_full;
              core_event.folds = cored.folds;
              note_certified();
            }
          }
        }
        if (!application_aborted) {
          core_event.size_after = current.size();
          have_core_event = true;
          core_folds = core_event.folds;
        }
      } else if (options.variant == ChaseVariant::kFrugal &&
                 !rule.existential().empty()) {
        if (step_record != nullptr) {
          // Replay the recorded folds one by one through the same rebuild
          // the live path uses — journal entries included.
          for (const Substitution& fold : step_record->fold_sigmas) {
            ApplyRetractionRebuild(&current, fold);
            sigma = Substitution::Compose(fold, sigma);
            fold_sigmas.push_back(fold);
          }
        } else {
          std::vector<Term> fresh;
          for (Term ev : rule.existential()) {
            fresh.push_back(application.safe.Apply(ev));
          }
          // Each fold rebuilds the instance; interrupting between search
          // and rebuild would lose the committed prefix, so the fold loop
          // is atomic (bounded by the handful of fresh nulls of one rule).
          GovernorAtomicSection atomic_fold;
          sigma = FoldVariablesKeepingRestFixed(
              &current, fresh, rec != nullptr ? &fold_sigmas : nullptr);
        }
      }
      if (application_aborted) {
        budget_stop = true;
        break;
      }
      if (match == &composed) {
        result.derivation.AddStep(p.rule_index, rule.label(),
                                  std::move(composed), sigma,
                                  std::move(application.added_atoms), current);
      } else if (!delta_on || stored.retired) {
        // The stored match will not be used again: naive evaluation rebuilds
        // the set next round, and retired matches are dropped below.
        result.derivation.AddStep(p.rule_index, rule.label(),
                                  std::move(stored.match), sigma,
                                  std::move(application.added_atoms), current);
      } else {
        result.derivation.AddStep(p.rule_index, rule.label(), stored.match,
                                  sigma, std::move(application.added_atoms),
                                  current);
      }
      if (!sigma.IsIdentity()) {
        sigma_round = Substitution::Compose(sigma, sigma_round);
      }
      ++result.steps;
      progressed = true;
      if (rec != nullptr) {
        rec->rounds.back().decisions.push_back(1);
        ResumeLog::StepRecord step_rec;
        step_rec.sigma = sigma;
        step_rec.fold_sigmas = std::move(fold_sigmas);
        step_rec.cored = do_core;
        step_rec.folds = core_folds;
        rec->steps.push_back(std::move(step_rec));
        rec->committed_num_variables = vocab->num_variables();
      }
      governor.NoteMemoryUsage(
          current.ApproxMemoryBytes() +
          result.derivation.ApproxMemoryBytesExcludingFinalSnapshot());
      if (obs != nullptr) {
        const DerivationStep& last =
            result.derivation.step(result.derivation.size() - 1);
        TriggerAppliedEvent applied;
        applied.step = result.steps;
        applied.round = result.rounds;
        applied.rule_index = p.rule_index;
        applied.rule_label = &last.rule_label;
        applied.match = &last.match;
        applied.simplification = &last.simplification;
        applied.added_atoms = last.added_atoms.size();
        applied.instance_size = current.size();
        applied.instance = &current;
        obs->OnTriggerApplied(applied);
        if (have_core_event) {
          core_event.step = result.steps;
          obs->OnCoreRetraction(core_event);
        }
      }
      result.stats.peak_instance_size =
          std::max(result.stats.peak_instance_size, current.size());
      if (options.limits.max_instance_size != 0 &&
          current.size() > options.limits.max_instance_size) {
        size_guard_tripped = true;
        break;
      }
    }
    if (budget_stop || !replay_error.ok()) break;
    (void)replay_round_cut;  // consumed by the round-end replay below
    if (is_core && options.core.core_at_round_end && progressed) {
      bool round_end_handled = false;
      if (cursor.active) {
        const ResumeLog::RoundRecord& rr =
            cursor.log->rounds[cursor.round_index];
        if (rr.have_round_end) {
          // Same mutation sequence as the live path: unconditional drain,
          // then record/rebuild/amend only for a proper retraction.
          if (delta_on) pending_delta.Absorb(current.DrainDelta());
          size_t size_before = current.size();
          if (!rr.round_end_sigma.IsIdentity()) {
            if (delta_on) {
              RecordRetractionDelta(rr.round_end_sigma, current,
                                    &pending_delta);
            }
            current = rr.round_end_sigma.Apply(current);
            if (delta_on) current.EnableDeltaJournal();
            result.derivation.AmendLastSimplification(rr.round_end_sigma,
                                                      current);
          }
          ++result.stats.core_full;
          if (rec != nullptr) {
            rec->rounds.back().have_round_end = true;
            rec->rounds.back().round_end_sigma = rr.round_end_sigma;
            rec->rounds.back().round_end_folds = rr.round_end_folds;
          }
          if (obs != nullptr) {
            CoreRetractionEvent retraction;
            retraction.step = result.steps;
            retraction.folds = rr.round_end_folds;
            retraction.size_before = size_before;
            retraction.size_after = current.size();
            obs->OnCoreRetraction(retraction);
          }
          round_end_handled = true;
        } else {
          // The recorded run stopped at this round-end coring boundary;
          // resume runs it live.
          go_live();
        }
      }
      if (!round_end_handled && replay_error.ok()) {
        if (delta_on) pending_delta.Absorb(current.DrainDelta());
        size_t size_before = current.size();
        bool guard_certified = false;
        if (guard_cores && guard_base_established && !governor.stopped()) {
          ++result.stats.plan_core_proofs;
          ++round_plan.core_proofs;
          CoreGuardOutcome guard =
              ProveStillCore(current, guard_atoms_since, guard_base_mark);
          // A governor-aborted inner search can miss a refutation, so a
          // stopped run never certifies and takes the ComputeCore branch,
          // whose abort handling is unchanged.
          guard_certified = guard.certified && !governor.stopped();
        }
        if (guard_certified) {
          // Zero-fold round end, synthesised: an identity retraction skips
          // the record/rebuild/amend exactly as the unguarded path does, so
          // the record and event below are bit-identical to it.
          ++result.stats.plan_core_certified;
          ++round_plan.core_certified;
          note_certified();
          if (rec != nullptr) {
            rec->rounds.back().have_round_end = true;
            rec->rounds.back().round_end_sigma = Substitution();
            rec->rounds.back().round_end_folds = 0;
          }
          if (obs != nullptr) {
            CoreRetractionEvent retraction;
            retraction.step = result.steps;
            retraction.folds = 0;
            retraction.size_before = size_before;
            retraction.size_after = current.size();
            obs->OnCoreRetraction(retraction);
          }
        } else {
          CoreResult cored = ComputeCore(current);
          if (governor.stopped()) {
            // Aborted mid-search; nothing was mutated — the round's
            // committed applications stand, the amendment simply has not
            // happened yet (resume re-runs it).
            budget_stop = true;
          } else {
            ++result.stats.core_full;
            size_t round_end_folds = cored.folds;
            if (!cored.retraction.IsIdentity()) {
              if (delta_on) {
                RecordRetractionDelta(cored.retraction, current,
                                      &pending_delta);
              }
              current = std::move(cored.core);
              if (delta_on) current.EnableDeltaJournal();
              result.derivation.AmendLastSimplification(cored.retraction,
                                                        current);
            }
            note_certified();
            if (rec != nullptr) {
              rec->rounds.back().have_round_end = true;
              rec->rounds.back().round_end_sigma = cored.retraction;
              rec->rounds.back().round_end_folds = round_end_folds;
            }
            if (obs != nullptr) {
              CoreRetractionEvent retraction;
              retraction.step = result.steps;
              retraction.folds = round_end_folds;
              retraction.size_before = size_before;
              retraction.size_after = current.size();
              obs->OnCoreRetraction(retraction);
            }
          }
        }
      }
    }
    if (budget_stop || !replay_error.ok()) break;
    if (retire_considered) {
      for (RuleState& state : rule_states) {
        size_t kept = 0;
        for (size_t i = 0; i < state.matches.size(); ++i) {
          if (!state.matches[i].retired) {
            if (kept != i) state.matches[kept] = std::move(state.matches[i]);
            ++kept;
          }
        }
        state.matches.resize(kept);
      }
    }
    if (obs != nullptr) {
      // Match-phase telemetry of the whole round (establishment through
      // application and coring). Emitted only when the round did match
      // work; the stock event log does not record it.
      emit_match_plan_delta(result.rounds);
      if (plan_on && round_plan.any()) {
        PlanEvent plan_event;
        plan_event.round = result.rounds;
        plan_event.rules = kb.rules.size();
        plan_event.reliance_edges = exec_plan.graph.edge_count;
        plan_event.strata = exec_plan.strata.size();
        plan_event.dormant_rules = exec_plan.dormant_count;
        plan_event.active_strata = round_plan.active_strata;
        plan_event.enumerations_skipped = round_plan.enumerations_skipped;
        plan_event.probes_skipped = round_plan.probes_skipped;
        plan_event.core_proofs = round_plan.core_proofs;
        plan_event.core_certified = round_plan.core_certified;
        obs->OnPlan(plan_event);
      }
      obs->OnRoundEnd({result.rounds, result.steps - steps_at_round_start,
                       current.size(), progressed});
    }
    if (cursor.active) {
      ++cursor.round_index;
      cursor.bit_index = 0;
    }
    if (!progressed) {
      fixpoint = true;
      break;
    }
    if (size_guard_tripped) break;
  }
  if (!replay_error.ok()) return replay_error;
  fold_match_stats();
  if (budget_stop) {
    result.stop_reason = governor.reason();
  } else if (size_guard_tripped) {
    result.stop_reason = StopReason::kInstanceSizeGuard;
  } else if (fixpoint) {
    result.stop_reason = StopReason::kFixpoint;
  } else {
    result.stop_reason = StopReason::kStepBudget;
  }
  if (obs != nullptr) {
    if (governor.fault_fired()) {
      obs->OnFaultInjected(
          {governor.fault_site(), governor.fault_visit(), governor.reason()});
    }
    // Flush the match-plan tail a mid-round stop left unreported, so an
    // attached MetricsRegistry ends exactly at the ChaseStats totals.
    emit_match_plan_delta(result.rounds);
    obs->OnRunEnd({result.steps, result.rounds,
                   result.stop_reason == StopReason::kFixpoint,
                   result.stop_reason == StopReason::kInstanceSizeGuard,
                   current.size(), result.stop_reason});
  }
  TWCHASE_LOG(Debug) << "chase " << ChaseVariantName(options.variant) << ": "
                     << result.steps << " steps, " << result.rounds
                     << " rounds, stop=" << StopReasonName(result.stop_reason)
                     << ", |F|=" << current.size();
  return result;
}

}  // namespace internal

}  // namespace twchase
