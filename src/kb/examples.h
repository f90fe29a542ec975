// The paper's example knowledge bases and their closed-form (prefix)
// models:
//   * the steepening staircase K_h (Definition 7, Figure 2) with the
//     universal model I^h (Definition 8), its columns C^h_k, steps S^h_k and
//     the infinite-column model Ỹ^h;
//   * the inflating elevator K_v (Definition 9, Figure 3) with the universal
//     models I^v and I^v* (Definitions 10–11) and the growing cores I^v_n
//     (Definition 12);
//   * the rulesets separating fes and bts (proof of Proposition 13).
// Infinite structures are exposed as prefix generators (see DESIGN.md's
// substitution table).
#ifndef TWCHASE_KB_EXAMPLES_H_
#define TWCHASE_KB_EXAMPLES_H_

#include <memory>

#include "kb/knowledge_base.h"
#include "model/atom_set.h"

namespace twchase {

/// Steepening staircase world: K_h plus generators for the structures of
/// Section 6. Coordinates follow the paper: X(i, j) is the null at column i,
/// height j; valid cells satisfy j ≤ i + 1.
class StaircaseWorld {
 public:
  StaircaseWorld();

  const KnowledgeBase& kb() const { return kb_; }
  const std::shared_ptr<Vocabulary>& vocab() const { return kb_.vocab; }

  /// The null X^i_j (registered on first use).
  Term X(int i, int j);

  /// P^h_k: the finite part of I^h up to column k (inclusive).
  AtomSet UniversalModelPrefix(int max_col);

  /// C^h_k: the induced subinstance of I^h on column k's cells {X^k_j}_{j≤k}.
  AtomSet Column(int k);

  /// S^h_k: the induced subinstance on C_k ∪ C_{k+1} ∪ {X^k_{k+1}} — one
  /// "step" of the staircase; treewidth ≤ 2 (Proposition 4).
  AtomSet Step(int k);

  /// Height-(m+1) prefix of the infinite column Ỹ^h (cells 0..m): v-path with
  /// f at the bottom, c above, and an h-loop on every cell. Ỹ^h is a model of
  /// K_h that is finitely universal but not universal (Section 8).
  AtomSet InfiniteColumnPrefix(int height);

 private:
  /// Atoms of I^h whose terms all satisfy `in_range(i, j)`.
  AtomSet InducedUniversalModel(int max_col);

  KnowledgeBase kb_;
  PredicateId f_, c_, h_, v_;
};

/// Inflating elevator world: K_v plus generators for Section 7. Valid cells
/// satisfy i - 1 ≤ j ≤ 2i.
class ElevatorWorld {
 public:
  ElevatorWorld();

  const KnowledgeBase& kb() const { return kb_; }
  const std::shared_ptr<Vocabulary>& vocab() const { return kb_.vocab; }

  Term X(int i, int j);

  /// I^v restricted to columns ≤ max_col (Definition 10).
  AtomSet UniversalModelPrefix(int max_col);

  /// I^v* restricted to columns ≤ max_col (Definition 11): the ceiling chain
  /// X^0_0, X^1_2, X^2_4, ... — a universal model of treewidth 1.
  AtomSet CeilingPrefix(int max_col);

  /// I^v_n (Definition 12): the growing core that every core chase sequence
  /// must eventually contain; treewidth ≥ ⌊n/3⌋ + 1 (Proposition 8).
  /// I^v_0 = F_v.
  AtomSet CoreObstruction(int n);

 private:
  template <typename InRange>
  AtomSet UniversalModelAtomsWhere(int max_col, InRange in_range);

  KnowledgeBase kb_;
  PredicateId c_, d_, f_, h_, v_;
};

/// Σ = {r(X,Y) → ∃Z. r(Y,Z)} over F = {r(a,b)}: bts (restricted chase stays a
/// path, treewidth 1) but not fes (no finite universal model).
KnowledgeBase MakeBtsNotFes();

/// Σ = {r(X,Y) ∧ r(Y,Z) → ∃V. r(X,X) ∧ r(X,Z) ∧ r(Z,V)} over
/// F = {r(a,b), r(b,c)}: fes (core chase terminates) but not bts.
KnowledgeBase MakeFesNotBts();

/// Plain datalog transitive closure over a path: terminating and treewidth-
/// bounded for every chase variant (inside fes ∩ bts).
KnowledgeBase MakeTransitiveClosure(int path_length);

/// Guarded, non-terminating ruleset with chain_predicates relations
/// r_0 … r_{k-1}: r_i(X,Y) → ∃Z r_{(i+1) mod k}(Y,Z), over r_0(a,b).
/// Guardedness ⇒ bts; every chase element stays a path (treewidth 1).
KnowledgeBase MakeGuardedChain(int chain_predicates);

/// Weakly acyclic existential "pipeline" with `stages` predicates:
/// s_i(X) → ∃Y r_i(X,Y); r_i(X,Y) → s_{i+1}(Y). No cycle through a special
/// edge, so every chase variant terminates (fes) on any instance.
KnowledgeBase MakeWeaklyAcyclicPipeline(int stages);

}  // namespace twchase

#endif  // TWCHASE_KB_EXAMPLES_H_
