#include "plan/core_guard.h"

#include <unordered_set>

#include "hom/matcher.h"

namespace twchase {

namespace {

// True iff the one-way positional match a ↦ d exists: same arity, equal
// constants, and a repeated variable of `a` meets equal terms of `d`. This
// is UnifyBodyAtomWithFact's test, made in place without building the
// unifier.
bool PositionallyUnifiable(const Atom& a, const Atom& d) {
  if (a.arity() != d.arity()) return false;
  for (size_t k = 0; k < a.arity(); ++k) {
    const Term t = a.arg(k);
    if (t.is_constant()) {
      if (t != d.arg(k)) return false;
      continue;
    }
    for (size_t j = 0; j < k; ++j) {
      if (a.arg(j) == t) {
        if (d.arg(j) != d.arg(k)) return false;
        break;
      }
    }
  }
  return true;
}

}  // namespace

CoreGuardOutcome ProveStillCore(const AtomSet& instance,
                                const std::vector<Atom>& added,
                                uint32_t base_variable_mark) {
  RetractionSearch retractions(instance);
  return ProveStillCore(instance, added, base_variable_mark, retractions);
}

CoreGuardOutcome ProveStillCore(const AtomSet& instance,
                                const std::vector<Atom>& added,
                                uint32_t base_variable_mark,
                                RetractionSearch& retractions) {
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
  for (const Atom& d : added) {
    const std::vector<AtomSet::Slot>* posting =
        instance.PredicatePostingSlots(d.predicate());
    if (posting == nullptr) continue;
    for (AtomSet::Slot slot : *posting) {
      if (!instance.SlotAlive(slot)) continue;
      const Atom& a = instance.SlotAtom(slot);
      if (a == d || !PositionallyUnifiable(a, d)) continue;
      ++outcome.onto_checks;
      if (retractions.MapsOnto(a, d)) return outcome;
    }
  }

  outcome.certified = true;
  return outcome;
}

}  // namespace twchase
