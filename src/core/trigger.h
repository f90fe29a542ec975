// Triggers and rule application (Section 2). A trigger for instance I is a
// pair tr = (R, π) with π a homomorphism from body(R) to I. It is satisfied
// in I if π extends to a homomorphism from body ∪ head into I. Applying tr
// produces α(I, tr) = I ∪ π_safe(head), where π_safe maps frontier variables
// per π and existential variables to fresh nulls.
#ifndef TWCHASE_CORE_TRIGGER_H_
#define TWCHASE_CORE_TRIGGER_H_

#include <vector>

#include "core/delta.h"
#include "kb/rule.h"
#include "model/atom_set.h"
#include "model/substitution.h"

namespace twchase {

struct Trigger {
  int rule_index = -1;
  Substitution match;  // domain: vars(body)
};

/// True iff `match` maps body(rule) into `instance` (tr is a trigger for it).
bool IsTriggerFor(const Rule& rule, const Substitution& match,
                  const AtomSet& instance);

/// True iff some body-atom image of `match` is in the delta's erased
/// segment. The revalidation fast path: when false, the match is still a
/// trigger for the instance the delta was drained from (only erasures can
/// falsify IsTriggerFor's Contains checks), so the full check is skipped.
bool MatchImageTouchesErased(const Rule& rule, const Substitution& match,
                             const DeltaIndex& delta);

/// True iff the trigger is satisfied in `instance`.
bool TriggerIsSatisfied(const Rule& rule, const Substitution& match,
                        const AtomSet& instance);

struct TriggerApplication {
  /// π_safe: match plus fresh bindings for existential variables.
  Substitution safe;

  /// Head-image atoms that were actually inserted (absent before).
  std::vector<Atom> added_atoms;
};

/// α(instance, tr): inserts the head image into *instance. Fresh nulls are
/// minted from `vocab` (never reused — see the paper's Footnote 2).
TriggerApplication ApplyTrigger(const Rule& rule, const Substitution& match,
                                AtomSet* instance, Vocabulary* vocab);

/// All triggers of `rule` (index `rule_index`) for `instance`, in the
/// deterministic enumeration order of the homomorphism search.
std::vector<Trigger> FindTriggers(const Rule& rule, int rule_index,
                                  const AtomSet& instance);

/// The binding obtained by unifying `body_atom` with `fact` position-wise
/// (constants must coincide; a repeated variable must meet equal terms), or
/// nullopt on clash or predicate/arity mismatch.
std::optional<Substitution> UnifyBodyAtomWithFact(const Atom& body_atom,
                                                  const Atom& fact);

/// Semi-naive probe: all matches of body(rule) into `instance` that map at
/// least one body atom onto `fact`. For each compatible body atom the
/// homomorphism search is seeded with the unifier, which pins that atom's
/// image to `fact` — so if `fact` is not (or no longer) in `instance` the
/// probe finds nothing. A match mapping several body atoms onto `fact` is
/// found once per such atom; callers deduplicate by binding key.
std::vector<Substitution> FindSeededMatches(const Rule& rule, const Atom& fact,
                                            const AtomSet& instance);

}  // namespace twchase

#endif  // TWCHASE_CORE_TRIGGER_H_
