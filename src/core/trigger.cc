#include "core/trigger.h"

#include "hom/matcher.h"
#include "util/status.h"

namespace twchase {

bool IsTriggerFor(const Rule& rule, const Substitution& match,
                  const AtomSet& instance) {
  bool ok = true;
  rule.body().ForEach([&](const Atom& atom) {
    if (ok && !instance.Contains(match.Apply(atom))) ok = false;
  });
  return ok;
}

bool MatchImageTouchesErased(const Rule& rule, const Substitution& match,
                             const DeltaIndex& delta) {
  bool touched = false;
  rule.body().ForEach([&](const Atom& atom) {
    if (!touched && delta.ErasedTouchesPredicate(atom.predicate()) &&
        delta.WasErased(match.Apply(atom))) {
      touched = true;
    }
  });
  return touched;
}

bool TriggerIsSatisfied(const Rule& rule, const Substitution& match,
                        const AtomSet& instance) {
  // Datalog fast path: with no existential variables every head variable is
  // in the frontier, so the head is ground under `match` and "an extension
  // exists" degenerates to containment of the ground image — a hash lookup
  // per head atom instead of a homomorphism search. This is the hot check
  // of the restricted chase (once per pending trigger per revalidation).
  if (rule.existential().empty()) {
    bool ok = true;
    rule.head().ForEach([&](const Atom& atom) {
      if (ok && !instance.Contains(match.Apply(atom))) ok = false;
    });
    return ok;
  }
  // Extension search over the head only: the body is already mapped by
  // `match`, so matching body ∪ head seeded with match is equivalent but
  // does redundant work; we still match body atoms to let the seed constrain
  // nothing further — head-only with seed restricted to frontier is enough.
  Substitution seed = match.RestrictTo(rule.frontier());
  return ExistsHomomorphismExtending(rule.head(), instance, seed);
}

TriggerApplication ApplyTrigger(const Rule& rule, const Substitution& match,
                                AtomSet* instance, Vocabulary* vocab) {
  TriggerApplication result;
  result.safe = match.RestrictTo(rule.frontier());
  for (Term ev : rule.existential()) {
    result.safe.Bind(ev, vocab->FreshVariable(vocab->TermName(ev)));
  }
  rule.head().ForEach([&](const Atom& atom) {
    Atom image = result.safe.Apply(atom);
    if (instance->Insert(image)) result.added_atoms.push_back(image);
  });
  return result;
}

std::vector<Trigger> FindTriggers(const Rule& rule, int rule_index,
                                  const AtomSet& instance) {
  HomOptions options;
  options.limit = 0;  // all
  std::vector<Trigger> out;
  for (Substitution& match :
       FindAllHomomorphisms(rule.body(), instance, options)) {
    out.push_back(Trigger{rule_index, std::move(match)});
  }
  return out;
}

std::optional<Substitution> UnifyBodyAtomWithFact(const Atom& body_atom,
                                                  const Atom& fact) {
  if (body_atom.predicate() != fact.predicate()) return std::nullopt;
  if (body_atom.args().size() != fact.args().size()) return std::nullopt;
  Substitution unifier;
  for (size_t i = 0; i < body_atom.args().size(); ++i) {
    Term pat = body_atom.arg(i);
    Term image = fact.arg(i);
    if (pat.is_constant()) {
      if (pat != image) return std::nullopt;
      continue;
    }
    std::optional<Term> bound = unifier.Lookup(pat);
    if (bound.has_value()) {
      if (*bound != image) return std::nullopt;
    } else {
      unifier.Bind(pat, image);
    }
  }
  return unifier;
}

std::vector<Substitution> FindSeededMatches(const Rule& rule, const Atom& fact,
                                            const AtomSet& instance) {
  std::vector<Substitution> out;
  rule.body().ForEach([&](const Atom& body_atom) {
    std::optional<Substitution> seed = UnifyBodyAtomWithFact(body_atom, fact);
    if (!seed.has_value()) return;
    HomOptions options;
    options.seed = std::move(*seed);
    options.limit = 0;  // all
    for (Substitution& match :
         FindAllHomomorphisms(rule.body(), instance, options)) {
      out.push_back(std::move(match));
    }
  });
  return out;
}

}  // namespace twchase
