// Backtracking homomorphism search from a pattern atomset (CQ, rule body,
// whole instance) into a target instance. Candidates come from the target's
// column segments (one index probe or segment scan per search node), and the
// next pattern atom is always the most constrained one. Supports:
//   * seeding with a partial substitution (trigger-satisfaction checks);
//   * a forbidden image term (folding search used by core computation:
//     a hom A → A∖{atoms containing X} without materialising the sub-instance);
//   * term-injective and variable-to-variable modes (isomorphism search).
//
// Cached estimates. Each search node picks the unassigned pattern atom with
// the fewest candidates. The search keeps every atom's estimate; a bind
// re-scores only the atoms that mention the variable, from counts cached
// per bound variable, and an unbind restores the old values. The cached
// values equal a full re-score, so node order, results and MatchCounters
// are unchanged (pinned by the EstimateCacheParity tests in
// tests/matcher_test.cc). Picking the atom scans the pattern, O(pattern
// size) per node, except in retraction mode (RetractionSearch below),
// where only atoms with a bound variable can be picked: a node there costs
// O(touched atoms), the atoms that mention a bound variable.
//
// Compiled once, allocation-free after warm-up. A search compiles its
// pattern into flat arrays (matcher.cc) on buffers the thread keeps for its
// next search, so a transient search allocates only the substitutions it
// returns; the existence checks (ExistsHomomorphism*) build none.
//
// Thread-safety contract: every search here is a pure function of its
// arguments plus the per-thread ambient governor (util/governor.h, a
// thread_local) — no shared mutable state (each thread's reused search
// buffers are its own), no writes to the pattern or target. Concurrent
// searches over a shared const AtomSet are safe as long as no thread
// mutates it. Search order, and hence the result vector, is deterministic.
#ifndef TWCHASE_HOM_MATCHER_H_
#define TWCHASE_HOM_MATCHER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "model/atom_set.h"
#include "model/substitution.h"

namespace twchase {

/// Ambient chase.match.* telemetry. The chase installs one per run; every
/// HomSearch folds its probe/scan and index (re)build counts into it. The
/// fields are atomic so a caller may share one object between the threads
/// it installs it on. Totals are a pure function of the searches performed.
struct MatchCounters {
  std::atomic<uint64_t> index_probes{0};      // column-index EqualRange probes
  std::atomic<uint64_t> column_scans{0};      // full-segment scans (no bound arg)
  // Always 0: every search runs on the join path. Kept because the
  // benchmark runner (perfbench/twbench.cc) still reads it.
  std::atomic<uint64_t> join_fallbacks{0};
  std::atomic<uint64_t> index_builds{0};      // lazy column-index (re)builds
  std::atomic<uint64_t> index_build_bytes{0};  // bytes of those builds
  std::atomic<uint64_t> search_nodes{0};       // backtracking nodes visited
};

/// Installs `counters` as the thread's ambient MatchCounters for the scope
/// (nullptr suspends counting). Mirrors GovernorScope.
class MatchCountersScope {
 public:
  explicit MatchCountersScope(MatchCounters* counters);
  ~MatchCountersScope();

  MatchCountersScope(const MatchCountersScope&) = delete;
  MatchCountersScope& operator=(const MatchCountersScope&) = delete;

 private:
  MatchCounters* previous_;
};

/// The counters ambient on this thread, or nullptr.
MatchCounters* CurrentMatchCounters();

struct HomOptions {
  /// Pre-bound variables; the search only extends this mapping.
  Substitution seed;

  /// Stop after collecting this many homomorphisms. 0 means unbounded.
  size_t limit = 1;

  /// If set, no atom of the image may mention this term. Equivalent to
  /// matching into the target with every atom containing the term removed.
  std::optional<Term> forbidden_image_term;

  /// Require the mapping to be injective on terms (distinct pattern terms map
  /// to distinct target terms).
  bool injective = false;

  /// Require variables to map to variables (not constants).
  bool vars_to_vars = false;
};

/// All homomorphisms from `pattern` to `target` satisfying `options`, up to
/// options.limit. Each result's domain is exactly vars(pattern) ∪ dom(seed).
std::vector<Substitution> FindAllHomomorphisms(const AtomSet& pattern,
                                               const AtomSet& target,
                                               const HomOptions& options);

/// First homomorphism found, or nullopt.
std::optional<Substitution> FindHomomorphism(const AtomSet& pattern,
                                             const AtomSet& target);

std::optional<Substitution> FindHomomorphism(const AtomSet& pattern,
                                             const AtomSet& target,
                                             const HomOptions& options);

bool ExistsHomomorphism(const AtomSet& pattern, const AtomSet& target);

/// True if `seed` extends to a homomorphism pattern → target. This is the
/// trigger-satisfaction test: tr = (B → H, π) is satisfied in I iff π extends
/// to a homomorphism from B ∪ H to I.
bool ExistsHomomorphismExtending(const AtomSet& pattern, const AtomSet& target,
                                 const Substitution& seed);

/// The still-core guard's case-(i) search (plan/core_guard.h). The whole
/// instance is compiled as both pattern and target, and only retractions
/// are searched: binding X ↦ t, t a variable, also fixes t ↦ t. The search
/// is bounded by what the retraction moves: it succeeds once every atom
/// with a variable bound away from itself has an image, since the identity
/// completes the rest. MapsOnto first tests the seed against the term
/// signatures; a seed that passes is bound, the consistency pass runs, a
/// seed the pass keeps is searched, and everything is rolled back, so one
/// object answers any number of queries. A search node costs O(touched
/// atoms), the atoms with a bound variable, not O(instance size).
///
/// The compiled instance, the signatures and the search buffers live as
/// long as the object. A query that needs the compiled instance first
/// recompiles it, on those buffers, if its AtomSet::generation() has
/// changed since the last compile, and a signature is recomputed once the
/// generation has moved past the one it was computed at, so every query
/// sees exactly what a fresh object would, and one object can follow an
/// instance through a whole chase run.
/// Not thread-safe; `instance` must outlive the object and must not change
/// during a query.
class RetractionSearch {
 public:
  explicit RetractionSearch(const AtomSet& instance);
  ~RetractionSearch();

  RetractionSearch(const RetractionSearch&) = delete;
  RetractionSearch& operator=(const RetractionSearch&) = delete;

  /// True iff some retraction of the instance maps atom `from` onto atom
  /// `onto` (both atoms of the instance). A search the ambient governor
  /// stopped answers false: check GovernorStopped() before trusting that.
  bool MapsOnto(const Atom& from, const Atom& onto);

  /// True iff the consistency pass alone (plan/core_guard.h) shows that no
  /// retraction maps `from` onto `onto`. Searches nothing. MapsOnto runs
  /// the same pass on every seed that passes the signature test, before
  /// its first search node; exposed so tests can hold the pass to its
  /// soundness on every seed.
  bool RefutedByConsistency(const Atom& from, const Atom& onto);

  /// True iff the signature rule alone (plan/core_guard.h) refutes the seed
  /// `from` ↦ `onto`. Reads term postings only and compiles nothing. MapsOnto
  /// runs it first on every seed; exposed so tests can hold it to its
  /// soundness and check that the consistency pass refutes every seed it
  /// refutes.
  bool RefutedBySignature(const Atom& from, const Atom& onto);

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace twchase

#endif  // TWCHASE_HOM_MATCHER_H_
