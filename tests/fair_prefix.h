// Empirical fairness check on a finite derivation prefix (Section 3): for
// every i < size - skip_tail and every trigger tr for F_i, some j ≥ i has
// σ^j_i(tr) satisfied in F_j. For a terminated chase use skip_tail = 0 (the
// fixpoint satisfies everything); truncated runs necessarily leave triggers
// open near the end, so pass a small skip_tail. Quadratic in the derivation
// length: small runs only.
#ifndef TWCHASE_TESTS_FAIR_PREFIX_H_
#define TWCHASE_TESTS_FAIR_PREFIX_H_

#include <cstddef>

#include "core/derivation.h"
#include "core/trigger.h"
#include "kb/knowledge_base.h"

namespace twchase {

inline bool IsFairPrefix(const Derivation& derivation, const KnowledgeBase& kb,
                         size_t skip_tail = 0) {
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

}  // namespace twchase

#endif  // TWCHASE_TESTS_FAIR_PREFIX_H_
