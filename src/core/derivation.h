// Derivations (Definition 1): sequences ((tr_i, σ_i, F_i)) where tr_i is a
// trigger for F_{i-1} not satisfied in it, σ_i is a retraction
// ("simplification"), and F_i = σ_i(α(F_{i-1}, tr_i)). Also provides the
// composed simplifications σ^j_i (Definition 2) used to trace triggers
// through a non-monotonic derivation, and the natural aggregation D*
// (Section 3).
//
// The run record is a journal, not a list of copies: a Derivation keeps F_0
// and, per step, the rule, π_i, σ_i, the atoms α inserted and |F_i|. Any
// F_i is rebuilt forward by inserting the added atoms into F_{i-1} and
// applying σ_i when it is not the identity (DerivationCursor). Substitution
// application keeps first-occurrence order, exactly as the chase's own
// retraction commits do, so a rebuilt F_i lists its atoms in the live
// instance's order. Only the last element is kept materialised (Last()).
#ifndef TWCHASE_CORE_DERIVATION_H_
#define TWCHASE_CORE_DERIVATION_H_

#include <string>
#include <vector>

#include "model/atom_set.h"
#include "model/substitution.h"

namespace twchase {

struct DerivationStep {
  /// Rule applied at this step; -1 for the initial step 0.
  int rule_index = -1;
  std::string rule_label;

  /// Trigger homomorphism π_i (empty for step 0).
  Substitution match;

  /// Simplification σ_i: a retraction of α(F_{i-1}, tr_i) onto F_i
  /// (σ_0 retracts the initial fact set). A frugal fold sequence is
  /// recorded as its composed retraction.
  Substitution simplification;

  /// Atoms inserted by α before simplification, in insertion order.
  std::vector<Atom> added_atoms;

  /// |F_i|.
  size_t instance_size = 0;
};

class Derivation {
 public:
  /// Installs F_0 = σ_0(F).
  void AddInitial(const AtomSet& f0, Substitution sigma0);

  /// Appends step i from its components. `instance` is F_i, which must
  /// equal σ_i(F_{i-1} ∪ added_atoms); it refreshes Last() and is not kept.
  void AddStep(int rule_index, std::string rule_label, Substitution match,
               Substitution sigma, std::vector<Atom> added_atoms,
               const AtomSet& instance);

  /// Number of recorded elements F_0 .. F_{size()-1}.
  size_t size() const { return steps_.size(); }
  bool empty() const { return steps_.empty(); }

  const DerivationStep& step(size_t i) const { return steps_[i]; }

  /// F_0.
  const AtomSet& Initial() const { return initial_; }

  /// The last F_i, kept materialised.
  const AtomSet& Last() const { return last_; }

  /// F_i, rebuilt from F_0 (O(i) journal steps per call). Sequential
  /// readers should walk a DerivationCursor instead.
  AtomSet Instance(size_t i) const;

  /// σ^j_i = σ_j • ... • σ_{i+1} (identity when i == j); a homomorphism from
  /// F_i to F_j.
  Substitution SigmaBetween(size_t i, size_t j) const;

  /// A_i = α(F_{i-1}, tr_i) = F_{i-1} plus the added atoms (i ≥ 1), rebuilt
  /// from F_0 like Instance().
  AtomSet PreSimplification(size_t i) const;

  /// True iff F_{i-1} ⊆ F_i for all i.
  bool IsMonotonic() const;

  /// Natural aggregation D* = ∪_i F_i.
  AtomSet NaturalAggregation() const;

  /// Rough estimate of resident bytes of the journal: F_0 plus the per-step
  /// records. Last() is not counted: it mirrors the live instance, which
  /// the chase's memory-budget poll already charges. Maintained
  /// incrementally so that poll can read it per step.
  size_t ApproxMemoryBytes() const { return approx_bytes_; }

 private:
  static size_t StepBytes(const DerivationStep& step);

  std::vector<DerivationStep> steps_;
  AtomSet initial_;
  AtomSet last_;
  size_t approx_bytes_ = 0;
};

/// A forward cursor over a derivation's elements: starts at F_0 and rebuilds
/// F_{i+1} from F_i on each Next(), so one walk over the whole derivation
/// costs one pass over the journal. Copyable: each copy owns its element
/// and advances independently. The derivation must outlive the cursor and
/// must not grow while the cursor walks it.
///
///   for (DerivationCursor c(d); !c.done(); c.Next()) { ... c.instance() ... }
class DerivationCursor {
 public:
  explicit DerivationCursor(const Derivation& derivation);

  /// True once Next() moved past the last element (or the derivation is
  /// empty); only index() may be read then.
  bool done() const { return index_ >= derivation_->size(); }

  /// i, for the element F_i the cursor is on (size() once done).
  size_t index() const { return index_; }

  const DerivationStep& step() const { return derivation_->step(index_); }

  /// F_i.
  const AtomSet& instance() const { return current_; }

  /// A_i = α(F_{i-1}, tr_i), the element before σ_i (i ≥ 1). The same set
  /// as instance() when σ_i is the identity.
  const AtomSet& pre_simplification() const {
    return pre_is_current_ ? current_ : pre_;
  }

  /// Moves to F_{i+1}.
  void Next();

 private:
  const Derivation* derivation_;
  size_t index_ = 0;
  AtomSet current_;
  AtomSet pre_;  // A_i when σ_i moved something
  bool pre_is_current_ = true;
};

}  // namespace twchase

#endif  // TWCHASE_CORE_DERIVATION_H_
