// TermDictionary: interns Term handles to dense 32-bit ids for the columnar
// storage layer. Terms themselves are already interned by the Vocabulary,
// but their raw ids are sparse across the constant/variable spaces and
// unbounded (fresh nulls keep minting); the dictionary renumbers exactly the
// terms that occur in one AtomSet into a dense, append-only id space so that
// column cells are comparable with a single integer compare and per-term
// tables (postings, live counters) can be flat vectors instead of hash maps.
//
// Ids are append-only and never recycled: once a term is interned its id is
// stable for the lifetime of the dictionary (compaction of the owning
// AtomSet keeps the dictionary, so column rebuilds reuse the same ids).
// There is no reverse (id -> term) table: columns are only ever compared
// with the ids of terms looked up by Find.
//
// Thread-safety: Intern is a mutation and follows the owning AtomSet's
// single-writer discipline; const lookups (Find, size) are safe to call
// concurrently with each other but not with Intern.
#ifndef TWCHASE_MODEL_TERM_DICTIONARY_H_
#define TWCHASE_MODEL_TERM_DICTIONARY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/term.h"

namespace twchase {

using TermId = uint32_t;

class TermDictionary {
 public:
  /// Sentinel for "not interned". Never returned by Intern.
  static constexpr TermId kNoId = 0xFFFFFFFFu;

  /// Returns the id of `term`, interning it first if necessary.
  TermId Intern(Term term);

  /// Returns the id of `term`, or kNoId if it was never interned.
  TermId Find(Term term) const {
    const std::vector<TermId>& table = term.is_variable() ? vars_ : consts_;
    uint32_t index = term.index();
    return index < table.size() ? table[index] : kNoId;
  }

  /// Number of interned terms; ids are exactly [0, size()).
  size_t size() const { return size_; }

  /// Estimated resident bytes of the forward tables. A function of content
  /// only — sizes, not capacities — so an instance and its copies report
  /// the same estimate (the governor's memory-accounting tests compare the
  /// two).
  size_t ApproxMemoryBytes() const {
    return (consts_.size() + vars_.size()) * sizeof(TermId);
  }

 private:
  // Forward maps Term::index() -> TermId, one per term kind. Sized to the
  // largest index seen, which is dense in practice: vocabulary constants are
  // numbered from zero and chase nulls are minted sequentially.
  std::vector<TermId> consts_;
  std::vector<TermId> vars_;
  size_t size_ = 0;
};

}  // namespace twchase

#endif  // TWCHASE_MODEL_TERM_DICTIONARY_H_
