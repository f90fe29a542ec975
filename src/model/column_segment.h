// ColumnSegment: the per-predicate columnar store behind AtomSet. Each live
// (and tombstoned) slot of a predicate is one row; the arguments are stored
// column-wise as dense TermIds, so a join probe touches one contiguous
// vector instead of chasing Atom objects. Per column, a sorted position
// index (rows ordered by (value, row)) is maintained lazily: appended rows
// accumulate in an unsorted tail that probes scan linearly, and the tail is
// merged into the sorted prefix only once it outgrows a small threshold —
// merging on every append would make the apply-probe-apply loop of a chase
// round quadratic in the segment. Erases never invalidate the index because
// readers filter rows through the owning AtomSet's liveness bitmap.
//
// Slot-order contract: rows are appended in slot-insertion order and row
// ranks order exactly as slot ranks, so an EqualRange probe enumerates
// candidates in slot order — the fixed candidate order the matcher's
// bit-identity argument rests on (see hom/matcher.cc and DESIGN.md §8).
//
// Thread-safety: Append follows the owning AtomSet's single-writer
// discipline and must not race with probes. Concurrent EqualRange calls on a
// shared const segment are safe: the lazy index build is guarded by a
// per-column mutex with an acquire/release ready flag, so concurrent
// homomorphism searches over one shared instance (e.g. daemon readers of a
// finished result) can race to a column's first probe and exactly one of
// them builds.
#ifndef TWCHASE_MODEL_COLUMN_SEGMENT_H_
#define TWCHASE_MODEL_COLUMN_SEGMENT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "model/term_dictionary.h"

namespace twchase {

/// Telemetry of one probe: whether it (re)built the column index, and the
/// resident bytes of the build. Counted by the caller (the matcher folds it
/// into the ambient MatchCounters), not here — the model layer stays free of
/// observability dependencies.
struct IndexBuildStats {
  size_t builds = 0;
  size_t bytes = 0;
};

class ColumnSegment {
 public:
  explicit ColumnSegment(uint32_t arity);

  ColumnSegment(const ColumnSegment& other);
  ColumnSegment& operator=(const ColumnSegment&) = delete;

  /// Appends one row. `slot` is the owning AtomSet's slot of the atom, and
  /// slots must arrive in increasing order (the slot-order contract above).
  /// `args` holds arity() argument ids: the AtomSet keeps one segment per
  /// (predicate, arity). The new row joins each column's unsorted tail;
  /// probes absorb it either by scanning the tail or, once the tail
  /// outgrows kTailMergeThreshold, by merging.
  void Append(uint32_t slot, const TermId* args);

  uint32_t arity() const { return arity_; }
  size_t rows() const { return slots_.size(); }

  /// The owning AtomSet's slot of row `row`.
  uint32_t slot(size_t row) const { return slots_[row]; }

  /// The id stored at (row, col).
  TermId cell(size_t row, uint32_t col) const { return cols_[col][row]; }

  /// Rows whose column `col` holds `id`, in two parts the caller visits in
  /// order: [begin, end) are matching rows from the sorted prefix
  /// (ascending), and [tail_begin, tail_end) are the unmerged tail rows,
  /// which the caller filters by `cell(row, col) == id` itself. Tail rows
  /// are strictly greater than every sorted row, so the combined
  /// enumeration stays ascending (hence ascending slots). When the tail
  /// has outgrown kTailMergeThreshold the call merges it first (reported
  /// through `build`, may be null) and the tail part comes back empty.
  struct ProbeResult {
    const uint32_t* begin = nullptr;
    const uint32_t* end = nullptr;
    uint32_t tail_begin = 0;
    uint32_t tail_end = 0;
  };
  ProbeResult EqualRange(uint32_t col, TermId id, IndexBuildStats* build) const;

  /// Tail rows a probe tolerates scanning linearly before it pays for a
  /// merge. Bounds per-probe tail work by a constant while amortising the
  /// O(rows) merge over that many appends.
  static constexpr size_t kTailMergeThreshold = 16;

  /// Column-data bytes plus index bytes. A function of content only:
  /// sizes, not capacities, and indexes charged at full materialisation
  /// (one uint32_t per row per column) whether or not the lazy build has
  /// run yet. The governed estimate must be deterministic in the
  /// instance's content — independent of probe schedules, thread counts
  /// and snapshot copies (which drop built indexes) — and the index charge
  /// is the upper bound the resident bytes converge to on first probe.
  size_t ApproxMemoryBytes() const {
    return cols_.size() * slots_.size() * sizeof(TermId) +
           slots_.size() * sizeof(uint32_t) +
           cols_.size() * slots_.size() * sizeof(uint32_t);
  }

  /// Bytes of sorted index rows actually resident right now (telemetry; an
  /// atomic snapshot, readable while probes build concurrently).
  size_t IndexBytes() const {
    return index_bytes_.load(std::memory_order_relaxed);
  }

  /// Number of full or incremental index (re)builds performed, for tests.
  size_t index_builds() const {
    return index_builds_.load(std::memory_order_relaxed);
  }

 private:
  // One lazily sorted position index per column. `sorted_rows` holds rows
  // [0, built_rows) ordered by (value, row); rows [built_rows, rows()) are
  // the unmerged tail that probes scan linearly. `ready` is true while the
  // tail is empty. Append stores false (no probe can race a mutation, so a
  // plain transition is enough); BuildIndex release-stores `built_rows`
  // after the merge so a probe that acquire-loads the new value also sees
  // the merged `sorted_rows` contents — any probe that instead loads the
  // pre-merge value computes an over-threshold tail and serialises on the
  // build mutex, so no probe ever reads `sorted_rows` mid-merge.
  struct ColumnIndex {
    std::mutex mu;
    std::atomic<bool> ready{false};
    std::vector<uint32_t> sorted_rows;
    std::atomic<size_t> built_rows{0};
  };

  void BuildIndex(uint32_t col, IndexBuildStats* build) const;

  uint32_t arity_;
  std::vector<uint32_t> slots_;            // row -> AtomSet slot
  std::vector<std::vector<TermId>> cols_;  // [arity][rows]
  std::unique_ptr<ColumnIndex[]> indexes_;  // [arity]
  mutable std::atomic<size_t> index_bytes_{0};
  mutable std::atomic<size_t> index_builds_{0};
};

}  // namespace twchase

#endif  // TWCHASE_MODEL_COLUMN_SEGMENT_H_
