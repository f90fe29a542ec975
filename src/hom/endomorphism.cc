#include "hom/endomorphism.h"

#include <utility>

#include "hom/matcher.h"
#include "util/status.h"

namespace twchase {

std::optional<Substitution> FindFoldingEndomorphism(const AtomSet& atoms,
                                                    Term var) {
  TWCHASE_CHECK(var.is_variable());
  if (!atoms.ContainsTerm(var)) return std::nullopt;
  HomOptions options;
  options.limit = 1;
  options.forbidden_image_term = var;
  return FindHomomorphism(atoms, atoms, options);
}

Substitution RetractionFromEndomorphism(const AtomSet& atoms,
                                        const Substitution& endo) {
  TWCHASE_CHECK_MSG(endo.IsEndomorphismOf(atoms),
                    "RetractionFromEndomorphism: input is not an endomorphism");
  Substitution current = endo;
  // Computes h^k for k = 1, 2, 3, ... Once the image terms stabilise (after
  // s < |terms| steps) the restriction of h to them is a permutation p of
  // order m ≤ |terms|, and h^k is a retraction exactly when k ≥ s and
  // k ≡ 0 (mod m). Some such k lies in [s, s + m] ⊆ [1, 2·|terms|], so the
  // loop bound below is guaranteed to find it.
  size_t terms = atoms.Terms().size();
  size_t max_iters = 2 * terms + 8;
  for (size_t i = 0; i < max_iters; ++i) {
    if (current.IsRetractionOf(atoms)) return current;
    current = Substitution::Compose(endo, current);
  }
  // Incremental composition h^(k+1) visits every residue class of the
  // permutation order, so the loop above must have succeeded.
  TWCHASE_CHECK_MSG(false, "retraction iteration failed to converge");
  return current;
}

Substitution FoldVariablesKeepingRestFixed(
    AtomSet* atoms, const std::vector<Term>& candidates,
    std::vector<Substitution>* fold_steps) {
  Substitution accumulated;
  for (Term x : candidates) {
    if (!atoms->ContainsTerm(x)) continue;
    // Identity seed on every variable except the remaining candidates: the
    // endomorphism may only move the fresh nulls.
    HomOptions options;
    options.limit = 1;
    options.forbidden_image_term = x;
    for (Term v : atoms->Variables()) {
      bool is_candidate = false;
      for (Term c : candidates) {
        if (c == v) {
          is_candidate = true;
          break;
        }
      }
      if (!is_candidate) options.seed.Bind(v, v);
    }
    auto endo = FindHomomorphism(*atoms, *atoms, options);
    if (!endo.has_value()) continue;
    Substitution retraction = RetractionFromEndomorphism(*atoms, *endo);
    ApplyRetractionRebuild(atoms, retraction);
    if (fold_steps != nullptr) fold_steps->push_back(retraction);
    accumulated = Substitution::Compose(retraction, accumulated);
  }
  return accumulated;
}

void ApplyRetractionRebuild(AtomSet* atoms, const Substitution& retraction,
                            AtomSet* image) {
  AtomSet next =
      image != nullptr ? std::move(*image) : retraction.Apply(*atoms);
  if (atoms->delta_journal_enabled()) {
    next.DrainDelta();
    next.EnableDeltaJournal();
    AtomSet::Delta carried = atoms->DrainDelta();
    for (const Atom& atom : carried.inserted) next.NoteExternalInsert(atom);
    for (const Atom& atom : carried.erased) next.NoteExternalErase(atom);
    for (const auto& [var, image] : retraction.map()) {
      if (var == image) continue;
      for (const Atom* atom : atoms->ByTerm(var)) {
        next.NoteExternalErase(*atom);
        next.NoteExternalInsert(retraction.Apply(*atom));
      }
    }
  }
  *atoms = std::move(next);
}

}  // namespace twchase
