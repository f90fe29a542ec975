// Endomorphism and retraction machinery. A retraction of A is an
// endomorphism σ that is the identity on the terms of its image σ(A)
// (the retract). Retractions are what the paper's derivations record as
// "simplifications" (Definition 1).
#ifndef TWCHASE_HOM_ENDOMORPHISM_H_
#define TWCHASE_HOM_ENDOMORPHISM_H_

#include <optional>

#include "model/atom_set.h"
#include "model/substitution.h"

namespace twchase {

/// Searches for an endomorphism of `atoms` whose image avoids the variable
/// `var` entirely (a "fold" eliminating var). Returns nullopt if none exists.
/// A finite atomset is a core iff no variable admits such a fold.
std::optional<Substitution> FindFoldingEndomorphism(const AtomSet& atoms,
                                                    Term var);

/// Converts an arbitrary endomorphism h of `atoms` into a retraction with the
/// same (eventual) retract: iterates h until the image terms stabilise, then
/// keeps composing until the map is the identity on its image. Terminates in
/// at most ~2·|terms| compositions (the stabilised restriction of h is a
/// permutation of the retract's terms, so some power is the identity).
/// Aborts (CHECK) if h is not an endomorphism of `atoms`.
Substitution RetractionFromEndomorphism(const AtomSet& atoms,
                                        const Substitution& endo);

/// Folds away as many of the given variables as possible while keeping every
/// *other* term fixed (the simplification of the frugal chase: only the
/// nulls freshly introduced by a rule application may be recognised as
/// redundant). Applies the folds to *atoms and returns the accumulated
/// retraction. Preserves an enabled delta journal (see ApplyRetractionRebuild).
/// When `fold_steps` is non-null, the individual fold retractions are
/// appended in application order — replaying them one by one through
/// ApplyRetractionRebuild reproduces this call exactly, journal entries
/// included (the chase's checkpoint/resume path depends on it).
Substitution FoldVariablesKeepingRestFixed(
    AtomSet* atoms, const std::vector<Term>& candidates,
    std::vector<Substitution>* fold_steps = nullptr);

/// Replaces *atoms with retraction(*atoms) exactly as assignment from
/// Substitution::Apply would (identical slot order — the chase's
/// deterministic schedules depend on it), carrying an enabled delta journal
/// across the rebuild: entries journaled so far are kept and the rebuild's
/// net changes (moved atoms erased, their images inserted) are appended.
/// Every retraction the chase commits goes through here. When `image` is
/// non-null it already holds the retract (ComputeCore's core) and is moved
/// in instead of rebuilt; any journal it copied from *atoms is discarded,
/// the carried one comes from *atoms.
void ApplyRetractionRebuild(AtomSet* atoms, const Substitution& retraction,
                            AtomSet* image = nullptr);

}  // namespace twchase

#endif  // TWCHASE_HOM_ENDOMORPHISM_H_
