#include "core/aggregation.h"

#include "core/trigger.h"
#include "hom/matcher.h"

namespace twchase {

AtomSet NaturalAggregation(const Derivation& derivation) {
  return derivation.NaturalAggregation();
}

bool IsFairPrefix(const Derivation& derivation, const KnowledgeBase& kb,
                  size_t skip_tail) {
  size_t n = derivation.size();
  size_t check_until = n > skip_tail ? n - skip_tail : 0;
  // Two cursors: `later` walks F_i .. F_{n-1} from a copy of `fi`, so
  // neither element is rebuilt under the other.
  for (DerivationCursor fi(derivation); fi.index() < check_until; fi.Next()) {
    const size_t i = fi.index();
    for (int r = 0; r < static_cast<int>(kb.rules.size()); ++r) {
      for (const Trigger& tr : FindTriggers(kb.rules[r], r, fi.instance())) {
        bool satisfied_somewhere = false;
        for (DerivationCursor later = fi; !later.done() && !satisfied_somewhere;
             later.Next()) {
          Substitution mapped = Substitution::Compose(
              derivation.SigmaBetween(i, later.index()), tr.match);
          if (TriggerIsSatisfied(kb.rules[r], mapped, later.instance())) {
            satisfied_somewhere = true;
          }
        }
        if (!satisfied_somewhere) return false;
      }
    }
  }
  return true;
}

bool MapsInto(const AtomSet& candidate, const AtomSet& model) {
  return ExistsHomomorphism(candidate, model);
}

}  // namespace twchase
