// Robust aggregation (Section 8, Definitions 14–16). Alongside a (possibly
// non-monotonic) derivation we maintain the robust sequence (G_i): each G_i
// is isomorphic to F_i, but renamed so that simplification images keep the
// <_X-smallest variable of their preimage (the robust renaming ρ_σ). The
// homomorphisms π_i: G_{i-1} → G_i then rename every variable at most
// rank(X) times (Proposition 10), so variables stabilise, the forwarded
// unions τ(G_i) grow monotonically, and their union D⊛ is a finitely
// universal model of the KB (Proposition 11) whose treewidth inherits any
// recurring bound of the derivation (Proposition 12).
//
// For a finite run the aggregator reports the forwarded union
// U_j = ∪_{i≤j} τ^j_i(G_i); when the chase terminated this equals D⊛
// restricted to the run, and for truncated runs it is the best finite
// prefix (per-variable stability streaks are reported so benches can show
// convergence).
#ifndef TWCHASE_CORE_ROBUST_H_
#define TWCHASE_CORE_ROBUST_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/derivation.h"
#include "model/atom_set.h"
#include "model/substitution.h"

namespace twchase {

class ChaseObserver;  // obs/observer.h

/// The robust renaming ρ_σ of a retraction σ of A (Definition 14): maps each
/// variable Y of σ(A) to the <_X-smallest variable of σ⁻¹(Y). Identity
/// bindings are included for variables of σ(A) untouched by σ.
Substitution RobustRenaming(const AtomSet& a, const Substitution& sigma);

struct RobustStepStats {
  size_t g_size = 0;           // |G_i|
  size_t union_size = 0;       // |U_i|
  size_t renamed_variables = 0;  // variables moved by π_i on U_{i-1}
  size_t stable_variables = 0;   // variables of U_i unchanged ≥ 1 step
};

class RobustAggregator {
 public:
  RobustAggregator() = default;

  /// Installs G_0 from F_0 = σ_0(F). `pre` is the original fact set F.
  void Begin(const AtomSet& pre, const Substitution& sigma0);

  /// Processes step i: `pre` is A_i = α(F_{i-1}, tr_i) (pre-simplification)
  /// and σ_i the simplification with F_i = σ_i(A_i).
  void Step(const AtomSet& pre, const Substitution& sigma_i);

  /// Replays a derivation prefix: elements F_0 .. F_{limit-1}, or the whole
  /// derivation when limit is 0 or exceeds it, in one journal walk. An
  /// observer, if given, receives one OnRobustRename per processed element.
  static RobustAggregator FromDerivation(const Derivation& derivation,
                                         size_t limit = 0,
                                         ChaseObserver* observer = nullptr);

  /// G_i for the latest step.
  const AtomSet& CurrentG() const { return g_; }

  /// ρ_i: isomorphism from F_i to G_i.
  const Substitution& CurrentRho() const { return rho_; }

  /// Forwarded union U_i = ∪_{k≤i} τ^i_k(G_k) — the finite prefix of D⊛.
  const AtomSet& Aggregate() const { return union_; }

  /// Per-step statistics, index 0 = after Begin.
  const std::vector<RobustStepStats>& stats() const { return stats_; }

  /// Steps processed (including Begin).
  size_t steps() const { return stats_.size(); }

  /// For each variable of the current union, the step index since which all
  /// π's have fixed it.
  const std::unordered_map<Term, size_t, TermHash>& stable_since() const {
    return stable_since_;
  }

  /// π_i homomorphisms, index-aligned with steps (π_0 = ρ_{σ_0}). π_i maps
  /// G_{i-1} into G_i (tests verify Lemma 1's monotone forwarding on these).
  const std::vector<Substitution>& pis() const { return pis_; }

  /// Attaches a read-only event tap: each processed element additionally
  /// emits an OnRobustRename carrying that step's RobustStepStats. Non-owning;
  /// call before Begin to see every step.
  void set_observer(ChaseObserver* observer) { observer_ = observer; }

 private:
  void RecordStats(size_t renamed);

  AtomSet g_;
  Substitution rho_;  // F_i → G_i
  AtomSet union_;     // U_i
  std::vector<RobustStepStats> stats_;
  std::vector<Substitution> pis_;
  std::unordered_map<Term, size_t, TermHash> stable_since_;
  ChaseObserver* observer_ = nullptr;
};

}  // namespace twchase

#endif  // TWCHASE_CORE_ROBUST_H_
