// Still-core guard: a sound, conservative proof that a core stayed a core
// after a pure addition, without recomputing the core.
//
// Setting: A is a finite core (the instance as of the last certification),
// A' = A ∪ D where D is the set of atoms added since (A ∩ D = ∅ — the chase
// only ever adds atoms between corings). Claim: any *proper* retraction ρ of
// A' falls into one of two cases.
//
//   (i)  ρ maps some atom a of A' onto some d ∈ D with ρ(a) ≠ a; or
//   (ii) ρ moves only fresh variables, vars(D) ∖ vars(A).
//
// Proof. Suppose ρ is not in case (i): no changed atom image lands in D.
// An atom of A cannot map unchanged onto an atom of D (that would put it in
// A ∩ D = ∅), so ρ(A) ⊆ A, and ρ restricted to terms(A) is an idempotent
// endomorphism of A — a retraction of A. A is a core, so that restriction is
// the identity on terms(A); constants are fixed by every homomorphism, so ρ
// moves only variables outside vars(A), i.e. fresh ones — case (ii). ∎
//
// The guard refutes both cases, each with a search restricted to what the
// case allows to move:
//
//   (ii) Pinned. Let M ⊆ D be the added atoms that mention a fresh variable
//        (index ≥ the vocabulary mark taken at certification). For every
//        fresh v, search for a homomorphism M → A' that maps every non-fresh
//        variable to itself and whose image avoids v.
//        Exact: ρ moves only fresh variables, so it fixes every atom outside
//        M, and ρ(v) ≠ v puts v outside image(ρ) (ρ(v) = ρ(ρ(w)) = ρ(w) = v
//        otherwise). Sound: a hit extended by the identity is an
//        endomorphism of A' whose image misses v — A' is not a core.
//   (i)  Retractions only. For every d ∈ D and every same-predicate atom
//        a ≠ d of A', the positional seed a ↦ d is forced (one-way matching
//        is exact). Search for an *idempotent* endomorphism of A' extending
//        it: binding X ↦ t, t a variable, also binds t ↦ t.
//        Exact: ρ(a) = d puts terms(d) in image(ρ), and a retraction fixes
//        its image. Sound: a hit is a retraction with ρ(a) = d ≠ a, so it is
//        not the identity and omits a from its image — A' is not a core.
//        The whole instance is compiled on buffers kept for the run, again
//        only when it has changed, and every seed binds, decides and rolls
//        back (RetractionSearch, hom/matcher.h).
//
// The frontier rule bounds the case-(i) search by what ρ moves. Under a
// partial binding β, a variable is moved when β maps it to a term other
// than itself, and the frontier is the set of unassigned atoms with a moved
// variable. The search succeeds as soon as the frontier is empty.
//   Sound: extend β by the identity on every unbound variable. Each assigned
//   atom maps to the image it was given, an atom of A'. Each unassigned atom
//   has only variables that are unbound or bound to themselves, so it maps
//   to itself, also in A'. The extension is idempotent: a binding X ↦ t, t a
//   variable, forced t ↦ t, and the identity part is idempotent. So it is a
//   retraction extending the seed.
//   Exact: every selected atom still branches over all its candidates, and
//   the search stops early only on success. If a retraction extends the
//   seed, the search still finds one, perhaps a different one.
// Which atoms may be selected: skipped are the atoms whose variables are all
// bound to themselves (they map to themselves whatever happens next) and
// the atoms with no bound variable (nothing constrains them yet; once a
// binding moves one of their variables they join the frontier). Kept are
// the frontier and the boundary atoms, whose variables are partly bound,
// to themselves, and partly unbound. A boundary atom is never needed for
// success, but it carries the constraint that refutes a seed quickly:
// taken identity first, it fixes its unbound variables, which narrows the
// candidates of the frontier atoms that share them. A search that selects
// only frontier atoms leaves those variables free. On elevator core, guard
// call 226 (|F| = 391), one seed then took 493,372 nodes where the
// whole-instance search takes 555, and the call passed 20M nodes. With
// boundary atoms kept, no guard call of elevator core (300 steps) or
// staircase core (1,500 steps) visits more nodes than the whole-instance
// search did.
//
// The consistency rule refutes a case-(i) seed before it is searched. Give
// every variable the seed binds (a's variables, and the variables of d
// that the seed fixes) its image as a one-term domain, and leave every
// other variable unconstrained. Revising an atom B of A' keeps, for each
// variable x of B, only the terms t such that some atom of A' has B's
// predicate, agrees with B's constants, has equal terms where B repeats a
// variable, has each of its terms inside the domain of the variable at
// that position, and has t at x's position. AC-3 revises the atoms of each
// variable whose domain was set or narrowed, starting from the seed's
// variables; when a domain empties, the seed is refuted.
//   Sound: let ρ be a retraction of A' with ρ(a) = d. The seed's bindings
//   are forced, so ρ(x) lies in each initial domain. If ρ(x) lies in every
//   domain before a revision of B, then ρ(B), an atom of A' (ρ is an
//   endomorphism), passes every test above, so ρ(x) survives for each
//   variable x of B. By induction no domain ever loses ρ's value, so no
//   domain empties. The pass only rejects seeds, so verdicts and the
//   search of every seed it keeps are unchanged; it does not use
//   idempotence, only that ρ maps every atom into A'.
//   Cost: the pass reads term postings only. On elevator core it refutes
//   every case-(i) seed in about 11 revisions on average (at most about
//   2,000), the seeds of guard call 373 (|F| = 662) among them, whose
//   searches took up to 2.3 s each. Arc consistency decides homomorphism
//   only in special cases, so the search stays for the seeds it keeps.
//
// Either kind of hit is therefore a definitive "not a core"; all checks
// negative ⟹ no proper retraction exists ⟹ A' is a core, and the caller
// skips the full ComputeCore. Any hit falls back to ComputeCore, whose
// output is bit-identical to what the unguarded path produces — the guard
// never changes the chase, only avoids provably-idempotent work.
#ifndef TWCHASE_PLAN_CORE_GUARD_H_
#define TWCHASE_PLAN_CORE_GUARD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hom/matcher.h"
#include "model/atom_set.h"

namespace twchase {

struct CoreGuardOutcome {
  /// True iff the instance is proven to still be a core.
  bool certified = false;

  /// Pinned fresh-variable searches run (case ii), one per fresh variable.
  size_t fresh_null_checks = 0;

  /// Seeded onto-D retraction searches run (case i).
  size_t onto_checks = 0;
};

/// Attempts to prove that `instance` (= certified core ∪ `added`) is still a
/// core. `base_variable_mark` is the vocabulary's num_variables() at the last
/// certification: every variable of the certified core has index below it.
/// Compiles `instance` afresh for the one call; its callers are the guard
/// replay in perfbench/twbench.cc and the plan tests. The chase calls the
/// overload below.
CoreGuardOutcome ProveStillCore(const AtomSet& instance,
                                const std::vector<Atom>& added,
                                uint32_t base_variable_mark);

/// The same proof, with the case-(i) searches run on `retractions`, a
/// RetractionSearch over `instance` that the caller keeps across calls so
/// the instance is compiled once per run, not once per call.
CoreGuardOutcome ProveStillCore(const AtomSet& instance,
                                const std::vector<Atom>& added,
                                uint32_t base_variable_mark,
                                RetractionSearch& retractions);

}  // namespace twchase

#endif  // TWCHASE_PLAN_CORE_GUARD_H_
