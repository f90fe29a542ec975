#include "plan/core_guard.h"

#include <optional>
#include <unordered_set>

#include "core/trigger.h"
#include "hom/matcher.h"

namespace twchase {

CoreGuardOutcome ProveStillCore(const AtomSet& instance,
                                const std::vector<Atom>& added,
                                uint32_t base_variable_mark) {
  CoreGuardOutcome outcome;
  auto fresh = [&](Term t) {
    return t.is_variable() && t.index() >= base_variable_mark;
  };

  // Case (ii): a retraction moving only fresh variables. Everything else is
  // pinned to itself, so only the added atoms that mention a fresh variable
  // can move: they are the pattern, the whole instance the target. The
  // retraction ρ with ρ(v) ≠ v omits v from its image, hence the forbidden
  // term. A hit extends by the identity to an endomorphism of the instance
  // whose image misses v: a definitive "not a core".
  AtomSet movable;
  HomOptions pinned;
  pinned.limit = 1;
  std::vector<Term> fresh_order;
  std::unordered_set<Term, TermHash> fresh_seen;
  for (const Atom& d : added) {
    bool moves = false;
    for (Term t : d.args()) {
      if (!fresh(t)) continue;
      moves = true;
      if (fresh_seen.insert(t).second) fresh_order.push_back(t);
    }
    if (!moves) continue;
    movable.Insert(d);
    for (Term t : d.args()) {
      if (t.is_variable() && !fresh(t)) pinned.seed.Bind(t, t);
    }
  }
  for (Term v : fresh_order) {
    ++outcome.fresh_null_checks;
    pinned.forbidden_image_term = v;
    if (FindHomomorphism(movable, instance, pinned).has_value()) return outcome;
  }

  // Case (i): a retraction ρ with ρ(a) = d ∈ added, a ≠ d. Its restriction
  // to vars(a) is forced positionally and it fixes terms(d). One compiled
  // whole-instance search answers every seed; a hit is a proper retraction
  // (a ∉ image(ρ)), so again definitive.
  std::optional<RetractionSearch> retractions;
  for (const Atom& d : added) {
    for (const Atom* a : instance.ByPredicate(d.predicate())) {
      if (*a == d) continue;
      if (!UnifyBodyAtomWithFact(*a, d).has_value()) continue;
      ++outcome.onto_checks;
      if (!retractions.has_value()) retractions.emplace(instance);
      if (retractions->MapsOnto(*a, d)) return outcome;
    }
  }

  outcome.certified = true;
  return outcome;
}

}  // namespace twchase
