#include "core/chase.h"

#include <algorithm>
#include <optional>
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
// resume. / preflight.), so CLI users see which flag to fix and the
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

// A body match of one rule, kept across rounds. `key` packs the full
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

  // Invariant at every round start: `matches` is
  // exactly the set of homomorphisms body → current instance, minus retired
  // ones, and `match_keys` contains the key of every match ever stored and
  // not invalidated (retired keys are kept: their atoms can never be
  // re-inserted in a monotone run, so the probes cannot rediscover them).
  std::vector<StoredMatch> matches;
  std::unordered_set<PackedBindings, PackedBindingsHash> match_keys;

  // (Semi-)oblivious: keys already applied, persistent for the whole run.
  std::unordered_set<PackedBindings, PackedBindingsHash> applied;
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

// The one-shot compatibility surface: a thin wrapper over ChaseSession
// (core/session.h), which owns validation and lifecycle. A session that is
// only ever started is exactly the historical run — the goldens and the
// differential suites pin the bit-identity.
StatusOr<ChaseResult> RunChase(const KnowledgeBase& kb,
                               const ChaseOptions& options) {
  auto session = ChaseSession::Create(kb, options);
  if (!session.ok()) return session.status();
  TWCHASE_RETURN_IF_ERROR((*session)->Start());
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
  // The observer is a read-only tap; every emission site below is a single
  // untaken branch when no observer is attached.
  ChaseObserver* const obs = options.observer;
  // Monotone variants never erase atoms, so a trigger once applied — or, for
  // the restricted chase, once satisfied — can never become active again:
  // such matches are retired instead of re-checked every round. Frugal and
  // core runs erase atoms (satisfaction is not stable), so their matches are
  // kept and re-checked.
  const bool retire_considered =
      options.variant == ChaseVariant::kOblivious ||
      options.variant == ChaseVariant::kSemiOblivious ||
      options.variant == ChaseVariant::kRestricted;

  ChaseResult result;
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
  // Copies the counters into the stats: before every event that carries
  // the stats, and once at run end. A run without an observer folds only
  // then (and around guard proofs, which measure their own share).
  auto fold_match_counters = [&]() {
    ChaseStats& stats = result.stats;
    stats.match_index_probes =
        match_counters.index_probes.load(std::memory_order_relaxed);
    stats.match_column_scans =
        match_counters.column_scans.load(std::memory_order_relaxed);
    stats.match_join_fallbacks =
        match_counters.join_fallbacks.load(std::memory_order_relaxed);
    stats.match_index_builds =
        match_counters.index_builds.load(std::memory_order_relaxed);
    stats.match_index_build_bytes =
        match_counters.index_build_bytes.load(std::memory_order_relaxed);
    stats.match_search_nodes =
        match_counters.search_nodes.load(std::memory_order_relaxed);
  };

  // Still-core guard (plan/core_guard.h). The instance is a certified core
  // exactly while `guard_base_established`: every certified variable was
  // minted before `guard_base_mark` and `guard_atoms_since` holds the atoms
  // added since certification. Every committed coring certifies: a live one
  // is a guard proof or a ComputeCore result, and a replayed one was one of
  // those in the recorded run, so it is a core by Definition 2 and the
  // replay lands with the guard state the recorded run held.
  bool guard_base_established = false;
  uint32_t guard_base_mark = 0;
  std::vector<Atom> guard_atoms_since;
  auto note_certified = [&]() {
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
  // The guard's case-(i) search over `current` (RetractionSearch,
  // hom/matcher.h). Its buffers live for the run; it compiles F afresh
  // whenever AtomSet::generation() has moved since its last query, and
  // reuses that compile for every seed of one guard call (DESIGN.md "One
  // compiled F per run").
  std::optional<RetractionSearch> guard_view;
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

  // Ends the run once `result.stop_reason` is set: folds the match counters
  // into the stats and reports the fault and the run end to an attached
  // observer.
  auto finish_run = [&]() {
    fold_match_counters();
    if (obs == nullptr) return;
    if (governor.fault_fired()) {
      obs->OnFaultInjected(
          {governor.fault_site(), governor.fault_visit(), governor.reason()});
    }
    obs->OnRunEnd({result.steps, result.rounds,
                   result.stop_reason == StopReason::kFixpoint,
                   result.stop_reason == StopReason::kInstanceSizeGuard,
                   current.size(), result.stop_reason, &result.stats});
  };

  // The run's one coring routine (σ_i of Definition 2), shared by the
  // initial and per-step sites, live and replayed. Replay (`recorded`
  // non-null) commits the recorded retraction; a live coring first tries
  // the still-core guard, then falls back to ComputeCore. Every commit goes
  // through ApplyRetractionRebuild, so the AtomSet journal is the only delta
  // channel (the round-start drain picks it up). The initial coring counts
  // in no core_full stat. An aborted coring mutated nothing: each site
  // decides what of its own to roll back.
  struct Coring {
    Substitution sigma;
    size_t folds = 0;
    bool aborted = false;
  };
  auto run_coring = [&](bool initial, const Substitution* recorded,
                        size_t recorded_folds) {
    Coring out;
    auto commit = [&](AtomSet* image) {
      ApplyRetractionRebuild(&current, out.sigma, image);
      if (!initial) ++result.stats.core_full;
    };
    if (recorded != nullptr) {
      out.sigma = *recorded;
      out.folds = recorded_folds;
      commit(nullptr);
      note_certified();
      return out;
    }
    if (guard_base_established && !governor.stopped()) {
      ChaseStats& stats = result.stats;
      ++stats.plan_core_proofs;
      // An inner search the governor aborted can miss a refutation, so a
      // stopped run never certifies: it falls through to ComputeCore, whose
      // abort the site handles.
      fold_match_counters();
      const uint64_t nodes_before = stats.match_search_nodes;
      const uint64_t probes_before = stats.match_index_probes;
      const uint64_t scans_before = stats.match_column_scans;
      if (!guard_view.has_value()) guard_view.emplace(current);
      const bool certified = ProveStillCore(current, guard_atoms_since,
                                            guard_base_mark, *guard_view)
                                 .certified;
      fold_match_counters();
      const uint64_t nodes = stats.match_search_nodes - nodes_before;
      stats.guard_search_nodes += nodes;
      stats.guard_max_call_nodes = std::max(stats.guard_max_call_nodes, nodes);
      stats.guard_index_probes += stats.match_index_probes - probes_before;
      stats.guard_column_scans += stats.match_column_scans - scans_before;
      if (certified && !governor.stopped()) {
        // Proven still a core without folding anything: ComputeCore would
        // have returned the instance itself with an empty retraction and
        // zero folds, so committing nothing reproduces its records and
        // events bit for bit.
        ++stats.plan_core_certified;
        note_certified();
        return out;
      }
    }
    CoreResult cored = ComputeCore(current);
    if (governor.stopped()) {
      // Aborted mid-search: the partial retraction is not a retraction of
      // anything.
      out.aborted = true;
      return out;
    }
    out.sigma = std::move(cored.retraction);
    out.folds = cored.folds;
    commit(&cored.core);
    note_certified();
    return out;
  };

  governor.NoteMemoryUsage(current.ApproxMemoryBytes());
  bool budget_stop = governor.ShouldStop(FaultSite::kRoundBoundary);

  Substitution sigma0;
  size_t initial_folds = 0;
  const size_t initial_size_before = current.size();
  if (!budget_stop && is_core) {
    // An aborted initial coring leaves F untouched.
    Coring cored =
        cursor.active ? run_coring(/*initial=*/true,
                                   &cursor.log->initial_sigma,
                                   cursor.log->initial_folds)
                      : run_coring(/*initial=*/true, nullptr, 0);
    budget_stop = cored.aborted;
    sigma0 = std::move(cored.sigma);
    initial_folds = cored.folds;
  }
  if (budget_stop) {
    // Stopped before the initial element committed: the result is the
    // untouched input (zero steps, empty resume log with have_initial
    // false — resuming is a fresh run).
    result.derivation.AddInitial(current, {});
  } else {
    if (rec != nullptr) {
      rec->have_initial = true;
      rec->initial_sigma = sigma0;
      rec->initial_folds = initial_folds;
      rec->initial_num_variables = vocab->num_variables();
      rec->committed_num_variables = vocab->num_variables();
    }
    result.derivation.AddInitial(current, std::move(sigma0));
  }
  result.stats.peak_instance_size = current.size();
  if (obs != nullptr) {
    fold_match_counters();
    RunBeginEvent begin;
    begin.variant = options.variant;
    begin.rule_count = kb.rules.size();
    begin.initial_size = current.size();
    begin.initial_simplification = &result.derivation.step(0).simplification;
    begin.instance = &current;
    begin.stats = &result.stats;
    obs->OnRunBegin(begin);
  }
  if (budget_stop) {
    result.stop_reason = governor.reason();
    finish_run();
    return result;
  }
  governor.NoteMemoryUsage(current.ApproxMemoryBytes() +
                           result.derivation.ApproxMemoryBytes());
  if (obs != nullptr && is_core) {
    obs->OnCoreRetraction(
        {/*step=*/0, initial_folds, initial_size_before, current.size()});
  }

  std::vector<RuleState> rule_states(kb.rules.size());
  // Predicates occurring in each rule body: the probe filter for inserted atoms.
  std::vector<std::unordered_set<PredicateId>> body_predicates(
      kb.rules.size());
  for (size_t r = 0; r < kb.rules.size(); ++r) {
    rule_states[r].datalog = kb.rules[r].IsDatalog();
    kb.rules[r].body().ForEach([&](const Atom& atom) {
      body_predicates[r].insert(atom.predicate());
    });
  }

  // Every mutation of `current` — applications, frugal folds and corings —
  // lands in its journal; the round-start Absorb below is the only drain.
  DeltaIndex pending_delta;
  current.EnableDeltaJournal();

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

    // Establish this round's match sets: the first round enumerates every
    // rule's matches; later rounds repair the stored sets from the atoms
    // inserted/erased since the last round. Either way, afterwards each
    // rule's matches (minus retired ones, which are inactive by
    // construction) are exactly its triggers for `current`.
    if (result.rounds == 1) {
      for (size_t r = 0; r < kb.rules.size(); ++r) {
        RuleState& state = rule_states[r];
        for (Trigger& tr :
             FindTriggers(kb.rules[r], static_cast<int>(r), current)) {
          PackedBindings key = PackedBindings::FromMatch(tr.match);
          state.match_keys.insert(key);
          state.matches.push_back(
              StoredMatch{std::move(tr.match), std::move(key)});
        }
        ++result.stats.full_enumerations;
      }
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
          for (PredicateId p : body_predicates[r]) {
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
          if (!body_predicates[r].contains(fact.predicate())) continue;
          ++result.stats.seed_probes;
          ++repair.seed_probes;
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

    // Snapshot and order the round's triggers: datalog rules first, as the
    // paper's constructions assume (Proposition 6), then by rule index, then
    // by the historical string sort key. The order is total — within a rule,
    // distinct matches have distinct packed keys.
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
                if (a.datalog != b.datalog) return a.datalog;
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
      bool skip = false;
      switch (options.variant) {
        case ChaseVariant::kOblivious:
        case ChaseVariant::kSemiOblivious: {
          // Applied once per key: the whole match (oblivious) or its
          // frontier restriction (semi-oblivious).
          PackedBindings key =
              options.variant == ChaseVariant::kSemiOblivious
                  ? PackedBindings::FromRestricted(*match, rule.frontier())
              : match == &stored.match ? stored.key
                                       : PackedBindings::FromMatch(*match);
          bool fresh = state.applied.insert(std::move(key)).second;
          if (replaying_this) {
            TWCHASE_CHECK_MSG(fresh == replay_bit,
                              "resume log diverged from the "
                              "(semi-)oblivious application keys");
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
              budget_stop = true;
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
      if (budget_stop) break;
      if (skip) {
        if (rec != nullptr) rec->rounds.back().decisions.push_back(0);
        continue;
      }

      TriggerApplication application =
          ApplyTrigger(rule, *match, &current, vocab);
      if (guard_base_established) {
        // Copied, not moved: added_atoms still feeds the derivation step
        // (and the abort rollback) below.
        guard_atoms_since.insert(guard_atoms_since.end(),
                                 application.added_atoms.begin(),
                                 application.added_atoms.end());
      }
      Substitution sigma;
      std::vector<Substitution> fold_sigmas;
      CoreRetractionEvent core_event;
      const bool do_core =
          is_core && ++since_last_core >= options.core.core_every;
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
        Coring cored =
            step_record != nullptr
                ? run_coring(/*initial=*/false, &step_record->sigma,
                             step_record->folds)
                : run_coring(/*initial=*/false, nullptr, 0);
        if (cored.aborted) {
          // Roll the application back to the last committed step (its added
          // atoms are exactly what it inserted; everything else is
          // untouched).
          for (const Atom& atom : application.added_atoms) {
            current.Erase(atom);
          }
          budget_stop = true;
          break;
        }
        sigma = std::move(cored.sigma);
        core_event.folds = cored.folds;
        core_event.size_after = current.size();
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
      // A stored match not used again is moved: retired matches are
      // dropped below.
      result.derivation.AddStep(
          p.rule_index, rule.label(),
          match == &composed ? std::move(composed)
          : stored.retired   ? std::move(stored.match)
                             : stored.match,
          sigma, std::move(application.added_atoms), current);
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
        step_rec.folds = core_event.folds;
        rec->steps.push_back(std::move(step_rec));
        rec->committed_num_variables = vocab->num_variables();
      }
      governor.NoteMemoryUsage(current.ApproxMemoryBytes() +
                               result.derivation.ApproxMemoryBytes());
      result.stats.peak_instance_size =
          std::max(result.stats.peak_instance_size, current.size());
      if (obs != nullptr) {
        fold_match_counters();
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
        applied.stats = &result.stats;
        obs->OnTriggerApplied(applied);
        if (do_core) {
          core_event.step = result.steps;
          obs->OnCoreRetraction(core_event);
        }
      }
      if (options.limits.max_instance_size != 0 &&
          current.size() > options.limits.max_instance_size) {
        size_guard_tripped = true;
        break;
      }
    }
    if (budget_stop || !replay_error.ok()) break;
    if (retire_considered) {
      for (RuleState& state : rule_states) {
        std::erase_if(state.matches,
                      [](const StoredMatch& m) { return m.retired; });
      }
    }
    if (obs != nullptr) {
      obs->OnRoundEnd({result.rounds, result.steps - steps_at_round_start,
                       current.size(), progressed, &current});
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
  if (budget_stop) {
    result.stop_reason = governor.reason();
  } else if (size_guard_tripped) {
    result.stop_reason = StopReason::kInstanceSizeGuard;
  } else if (fixpoint) {
    result.stop_reason = StopReason::kFixpoint;
  } else {
    result.stop_reason = StopReason::kStepBudget;
  }
  finish_run();
  TWCHASE_LOG(Debug) << "chase " << ChaseVariantName(options.variant) << ": "
                     << result.steps << " steps, " << result.rounds
                     << " rounds, stop=" << StopReasonName(result.stop_reason)
                     << ", |F|=" << current.size();
  return result;
}

}  // namespace internal

}  // namespace twchase
