#include "core/delta.h"

namespace twchase {

void DeltaIndex::RecordInsert(const Atom& atom) {
  if (!inserted_seen_.insert(atom).second) return;
  inserted_.push_back(atom);
}

void DeltaIndex::RecordErase(const Atom& atom) {
  if (!erased_seen_.insert(atom).second) return;
  erased_predicates_.insert(atom.predicate());
  erased_.push_back(atom);
}

void DeltaIndex::Absorb(AtomSet::Delta delta) {
  for (Atom& atom : delta.inserted) RecordInsert(atom);
  for (Atom& atom : delta.erased) RecordErase(atom);
}

void DeltaIndex::Clear() {
  inserted_.clear();
  erased_.clear();
  inserted_seen_.clear();
  erased_seen_.clear();
  erased_predicates_.clear();
}

}  // namespace twchase
