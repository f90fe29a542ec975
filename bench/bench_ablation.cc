// ABL — ablation benches for the design choices DESIGN.md calls out:
//   (a) singular-fold pre-pass in core computation (on/off);
//   (b) identity-first candidate ordering in the homomorphism search
//       (on/off), measured on the fold searches that dominate the chase;
//   (c) coring spacing (core_every 1/3/6) on the elevator: cost versus the
//       treewidth the budget reaches;
//   (d) chase-variant cost ladder on one KB (oblivious → core);
//   (e) trigger keys: packed binding words versus the decimal-string keys
//       the engine used before (identity + deterministic order for the
//       scheduler).
#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/chase.h"
#include "core/measures.h"
#include "core/trigger.h"
#include "core/trigger_key.h"
#include "hom/core.h"
#include "hom/endomorphism.h"
#include "hom/matcher.h"
#include "kb/examples.h"
#include "kb/generators.h"
#include "tw/treewidth.h"
#include "util/stopwatch.h"

namespace {

// The decimal-string sort key the chase used before packed keys — kept here
// verbatim as the ablation baseline.
std::string LegacyStringKey(const twchase::Substitution& match) {
  std::vector<std::pair<uint32_t, uint32_t>> entries;
  for (const auto& [var, term] : match.map()) {
    entries.emplace_back(var.raw(), term.raw());
  }
  std::sort(entries.begin(), entries.end());
  std::string key;
  for (const auto& [a, b] : entries) {
    key += std::to_string(a);
    key += ',';
    key += std::to_string(b);
    key += ';';
  }
  return key;
}

}  // namespace

int main() {
  using namespace twchase;
  setvbuf(stdout, nullptr, _IOLBF, 0);

  std::printf("ABL (a): core computation with/without singular-fold pre-pass\n");
  std::printf("%-28s %14s %14s\n", "instance", "prepass on", "prepass off");
  {
    struct Case {
      const char* name;
      AtomSet atoms;
    };
    Vocabulary vocab;
    StaircaseWorld staircase;
    std::vector<Case> cases;
    // Kept small: without the pre-pass the general fold search must prove
    // redundancy by exhaustive backtracking, which blows up quickly — that
    // blow-up is the finding.
    cases.push_back({"redundant cycle (r=3)",
                     MakeRedundantInstance(&vocab, "e", 4, 3)});
    cases.push_back({"staircase step S_6", staircase.Step(6)});
    cases.push_back({"grid 3x3", MakeGridInstance(&vocab, "h", "v", 3, 3)});
    for (auto& c : cases) {
      CoreOptions on, off;
      off.singular_prepass = false;
      Stopwatch w1;
      size_t size_on = ComputeCore(c.atoms, on).core.size();
      double t1 = w1.ElapsedMillis();
      Stopwatch w2;
      size_t size_off = ComputeCore(c.atoms, off).core.size();
      double t2 = w2.ElapsedMillis();
      std::printf("%-28s %11.2fms %11.2fms  (cores: %zu/%zu)\n", c.name, t1, t2,
                  size_on, size_off);
    }
  }

  std::printf(
      "\nABL (b): fold search with/without identity-first ordering\n"
      "(all-variables fold verification on an elevator chase element)\n");
  {
    ElevatorWorld world;
    ChaseOptions chase_options;
    chase_options.variant = ChaseVariant::kCore;
    chase_options.limits.max_steps = 35;
    auto run = RunChase(world.kb(), chase_options);
    if (run.ok()) {
      const AtomSet& instance = run->derivation.Last();
      std::printf("  instance: %zu atoms, %zu variables\n", instance.size(),
                  instance.Variables().size());
      for (bool identity_first : {true, false}) {
        Stopwatch w;
        int folds = 0;
        for (Term var : instance.Variables()) {
          HomOptions options;
          options.limit = 1;
          options.forbidden_image_term = var;
          options.identity_first = identity_first;
          if (FindHomomorphism(instance, instance, options).has_value()) {
            ++folds;
          }
        }
        std::printf("  identity-first=%d: %7.2fms (%d foldable vars)\n",
                    identity_first, w.ElapsedMillis(), folds);
      }
    }
  }

  std::printf("\nABL (c): elevator core chase, coring spacing vs cost/reach\n");
  std::printf("%12s %10s %8s %10s\n", "core_every", "steps", "time", "tw reach");
  for (size_t spacing : {1u, 3u, 6u}) {
    ElevatorWorld world;
    ChaseOptions options;
    options.variant = ChaseVariant::kCore;
    options.core.core_every = spacing;
    options.limits.max_steps = 60;
    Stopwatch w;
    auto run = RunChase(world.kb(), options);
    if (!run.ok()) continue;
    int max_tw = -1;
    for (DerivationCursor c(run->derivation); !c.done(); c.Next()) {
      if (c.index() % 5 != 0) continue;
      max_tw = std::max(max_tw, ComputeTreewidth(c.instance()).upper_bound);
    }
    std::printf("%12zu %10zu %7.2fs %10d\n", spacing, run->steps,
                w.ElapsedSeconds(), max_tw);
  }

  std::printf("\nABL (d): chase-variant cost ladder (fes-not-bts KB)\n");
  std::printf("%-16s %8s %8s %10s %8s\n", "variant", "steps", "term", "|result|",
              "time");
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
        ChaseVariant::kRestricted, ChaseVariant::kFrugal, ChaseVariant::kCore}) {
    auto kb = MakeFesNotBts();
    ChaseOptions options;
    options.variant = variant;
    options.limits.max_steps = 300;
    Stopwatch w;
    auto run = RunChase(kb, options);
    if (!run.ok()) continue;
    std::printf("%-16s %8zu %8s %10zu %7.2fs\n", ChaseVariantName(variant),
                run->steps,
                run->stop_reason == StopReason::kFixpoint ? "yes" : "no",
                run->derivation.Last().size(), w.ElapsedSeconds());
  }

  std::printf("\nABL (e): trigger keys — packed words vs legacy decimal strings\n");
  {
    // Real match population: all triggers of the transitive-closure rules on
    // the chased instance — the workload the round snapshot keys every round.
    auto kb = MakeTransitiveClosure(14);
    ChaseOptions chase_options;
    chase_options.limits.max_steps = 5000;
    auto run = RunChase(kb, chase_options);
    std::vector<Substitution> matches;
    if (run.ok()) {
      const AtomSet& instance = run->derivation.Last();
      for (int r = 0; r < static_cast<int>(kb.rules.size()); ++r) {
        for (Trigger& tr : FindTriggers(kb.rules[r], r, instance)) {
          matches.push_back(std::move(tr.match));
        }
      }
    }
    std::printf("  %zu matches\n", matches.size());
    const int kReps = 20;
    {
      Stopwatch w;
      size_t dedup = 0, order_checksum = 0;
      for (int rep = 0; rep < kReps; ++rep) {
        std::unordered_set<std::string> keys;
        std::vector<std::string> sort_keys;
        sort_keys.reserve(matches.size());
        for (const Substitution& m : matches) {
          std::string key = LegacyStringKey(m);
          keys.insert(key);
          sort_keys.push_back(std::move(key));
        }
        std::sort(sort_keys.begin(), sort_keys.end());
        dedup = keys.size();
        order_checksum = sort_keys.empty() ? 0 : sort_keys.front().size();
      }
      std::printf("  legacy strings: %7.2fms (%zu distinct, checksum %zu)\n",
                  w.ElapsedMillis(), dedup, order_checksum);
    }
    {
      Stopwatch w;
      size_t dedup = 0, order_checksum = 0;
      for (int rep = 0; rep < kReps; ++rep) {
        std::unordered_set<PackedBindings, PackedBindingsHash> keys;
        std::vector<PackedBindings> sort_keys;
        sort_keys.reserve(matches.size());
        for (const Substitution& m : matches) {
          PackedBindings key = PackedBindings::FromMatch(m);
          keys.insert(key);
          sort_keys.push_back(std::move(key));
        }
        std::sort(sort_keys.begin(), sort_keys.end(),
                  PackedBindings::LegacyLess);
        dedup = keys.size();
        order_checksum =
            sort_keys.empty() ? 0 : sort_keys.front().words().size();
      }
      std::printf("  packed words:   %7.2fms (%zu distinct, checksum %zu)\n",
                  w.ElapsedMillis(), dedup, order_checksum);
    }
  }

  return 0;
}
