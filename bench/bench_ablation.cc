// ABL — ablation benches for the design choices DESIGN.md calls out:
//   (a) core computation with its singular-fold pre-pass (the general fold
//       search alone takes three orders of magnitude longer on the
//       redundant cycle; EXPERIMENTS.md);
//   (d) chase-variant cost ladder on one KB (oblivious → core);
//   (e) trigger keys: packed binding words versus the decimal-string keys
//       the engine used before (identity + deterministic order for the
//       scheduler).
// The letters match EXPERIMENTS.md, which keeps the last numbers of (b)
// and (c).
#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/chase.h"
#include "core/trigger.h"
#include "core/trigger_key.h"
#include "hom/core.h"
#include "kb/examples.h"
#include "kb/generators.h"
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

  std::printf("ABL (a): core computation with the singular-fold pre-pass\n");
  std::printf("%-28s %14s %8s\n", "instance", "time", "|core|");
  {
    struct Case {
      const char* name;
      AtomSet atoms;
    };
    Vocabulary vocab;
    StaircaseWorld staircase;
    std::vector<Case> cases;
    cases.push_back({"redundant cycle (r=3)",
                     MakeRedundantInstance(&vocab, "e", 4, 3)});
    cases.push_back({"staircase step S_6", staircase.Step(6)});
    cases.push_back({"grid 3x3", MakeGridInstance(&vocab, "h", "v", 3, 3)});
    for (auto& c : cases) {
      Stopwatch w;
      size_t size = ComputeCore(c.atoms).core.size();
      std::printf("%-28s %12.2fms %8zu\n", c.name, w.ElapsedMillis(), size);
    }
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
