// DeltaIndex: the change set driving semi-naive rule evaluation. The chase
// accumulates the atoms inserted into and erased from the current instance
// between scheduler rounds (rule applications insert; core/frugal
// retractions erase and insert images) and, at the next round start, derives
// new triggers only from matches whose image touches an inserted atom and
// revalidates stored matches only when something was erased.
//
// Recording is conservative by design: it is safe to record an insertion of
// an atom that was already present (the seeded re-match dedups against the
// stored trigger keys) or that is erased again before the round ends (the
// seeded probe finds nothing); missing a real change is the only error.
#ifndef TWCHASE_CORE_DELTA_H_
#define TWCHASE_CORE_DELTA_H_

#include <cstddef>
#include <unordered_set>
#include <vector>

#include "model/atom.h"
#include "model/atom_set.h"

namespace twchase {

class DeltaIndex {
 public:
  void RecordInsert(const Atom& atom);
  void RecordErase(const Atom& atom);

  /// Merges a drained AtomSet journal into this index.
  void Absorb(AtomSet::Delta delta);

  bool empty() const { return inserted_.empty() && erased_.empty(); }
  bool has_erasures() const { return !erased_.empty(); }

  /// Inserted atoms, deduplicated, in first-record order.
  const std::vector<Atom>& inserted() const { return inserted_; }

  /// Erased atoms, deduplicated, in first-record order.
  const std::vector<Atom>& erased() const { return erased_; }

  /// Predicates with at least one inserted atom. The execution planner
  /// intersects this with per-stratum body predicates to count the strata
  /// the next round will actually touch (chase.plan.active_strata).
  const std::unordered_set<PredicateId>& InsertedPredicates() const {
    return inserted_predicates_;
  }

  /// O(1) membership probes into the erased segment, read directly by the
  /// chase's revalidation fast path: a stored match whose body image touches
  /// no erased atom is still a trigger (insertions never falsify a Contains
  /// check), so the full per-match re-probe of the instance runs only for
  /// matches these probes implicate.
  bool ErasedTouchesPredicate(PredicateId predicate) const {
    return erased_predicates_.contains(predicate);
  }
  bool WasErased(const Atom& atom) const {
    return erased_seen_.contains(atom);
  }

  void Clear();

 private:
  std::vector<Atom> inserted_;
  std::vector<Atom> erased_;
  std::unordered_set<Atom, AtomHash> inserted_seen_;
  std::unordered_set<Atom, AtomHash> erased_seen_;
  std::unordered_set<PredicateId> inserted_predicates_;
  std::unordered_set<PredicateId> erased_predicates_;
};

}  // namespace twchase

#endif  // TWCHASE_CORE_DELTA_H_
