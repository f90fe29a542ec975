// Reference homomorphism searches built from the definitions alone: no
// postings, segments, estimates, candidate order, delta or plan code.
//   * AllHomomorphisms enumerates every assignment of the pattern's unseeded
//     variables to the target's terms and keeps the ones whose image atoms
//     all lie in the target: the oracle for the result SET of
//     FindAllHomomorphisms(limit=0). Exponential in the number of pattern
//     variables: small instances only.
//   * ForEachHomomorphism / ExistsHomomorphism backtrack atom by atom over
//     linear scans of the target: the oracle for the semantic checks
//     (models, homomorphic equivalence, cores) of tests/semantic_oracle_test.
//   * ExistsRetractionOnto backtracks the same way over every atom of an
//     instance, keeping only idempotent maps: the oracle for
//     RetractionSearch::MapsOnto, the still-core guard's case-(i) search.
#ifndef TWCHASE_TESTS_REFERENCE_MATCHER_H_
#define TWCHASE_TESTS_REFERENCE_MATCHER_H_

#include <algorithm>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "hom/matcher.h"
#include "model/atom_set.h"
#include "model/substitution.h"

namespace twchase {
namespace reference {

/// A substitution as a sorted (variable, image) list of raw term words, so
/// result sets compare with std::sort and ==.
using Binding = std::vector<std::pair<uint32_t, uint32_t>>;

inline Binding Canonical(const Substitution& s) {
  Binding out;
  for (const auto& [var, term] : s.map()) {
    out.emplace_back(var.raw(), term.raw());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Every homomorphism pattern → target under `options` (options.limit is
/// ignored), canonicalised and sorted. Semantics, per HomOptions:
///   * seed: seeded variables keep their image; every result carries the
///     whole seed;
///   * forbidden_image_term: no image atom mentions the term;
///   * injective: unseeded pattern variables take pairwise distinct images,
///     none of them the image of a seed entry;
///   * vars_to_vars: unseeded pattern variables map to variables.
inline std::vector<Binding> AllHomomorphisms(const AtomSet& pattern,
                                             const AtomSet& target,
                                             const HomOptions& options) {
  std::vector<Term> free_vars;
  for (Term v : pattern.Variables()) {
    if (!options.seed.Lookup(v).has_value()) free_vars.push_back(v);
  }
  std::vector<Term> images;
  for (Term t : target.Terms()) {
    if (!options.vars_to_vars || t.is_variable()) images.push_back(t);
  }
  std::unordered_set<Term, TermHash> seed_images;
  for (const auto& [var, term] : options.seed.map()) seed_images.insert(term);
  const std::vector<Atom> atoms = pattern.Atoms();

  std::vector<Binding> out;
  std::vector<size_t> choice(free_vars.size(), 0);
  if (!free_vars.empty() && images.empty()) return out;
  while (true) {
    Substitution h = options.seed;
    for (size_t i = 0; i < free_vars.size(); ++i) {
      h.Bind(free_vars[i], images[choice[i]]);
    }
    bool ok = true;
    if (options.injective) {
      std::unordered_set<Term, TermHash> used = seed_images;
      for (size_t i = 0; i < free_vars.size() && ok; ++i) {
        ok = used.insert(images[choice[i]]).second;
      }
    }
    for (size_t i = 0; i < atoms.size() && ok; ++i) {
      Atom image = h.Apply(atoms[i]);
      ok = target.Contains(image);
      if (ok && options.forbidden_image_term.has_value()) {
        for (Term t : image.args()) ok &= t != *options.forbidden_image_term;
      }
    }
    if (ok) out.push_back(Canonical(h));
    // Odometer step over choice[]; done once it wraps.
    size_t i = 0;
    while (i < choice.size() && ++choice[i] == images.size()) choice[i++] = 0;
    if (i == choice.size()) break;
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Calls `visit(h)` for every homomorphism h: pattern → target that extends
/// `seed`, until `visit` returns false. Naive backtracking over the
/// pattern's atoms; each atom is matched by a linear scan of the target's
/// atoms. Constants map to themselves, variables to any term. The atoms are
/// taken most-bound-first, so a connected pattern is extended along shared
/// terms rather than enumerated blindly.
template <typename Visit>
void ForEachHomomorphism(const AtomSet& pattern, const AtomSet& target,
                         const Substitution& seed, Visit&& visit) {
  std::vector<Atom> rest = pattern.Atoms();
  const std::vector<Atom> facts = target.Atoms();
  std::unordered_set<Term, TermHash> bound;
  for (const auto& [var, term] : seed.map()) bound.insert(var);
  std::vector<Atom> order;
  while (!rest.empty()) {
    auto bound_args = [&](const Atom& a) {
      size_t n = 0;
      for (Term t : a.args()) n += t.is_constant() || bound.contains(t);
      return n;
    };
    auto best = std::max_element(
        rest.begin(), rest.end(), [&](const Atom& a, const Atom& b) {
          return bound_args(a) < bound_args(b);
        });
    for (Term t : best->args()) bound.insert(t);
    order.push_back(*best);
    rest.erase(best);
  }

  Substitution h = seed;
  bool stopped = false;
  auto extend = [&](auto&& self, size_t depth) -> void {
    if (depth == order.size()) {
      stopped = !visit(static_cast<const Substitution&>(h));
      return;
    }
    const Atom& atom = order[depth];
    for (const Atom& fact : facts) {
      if (fact.predicate() != atom.predicate() ||
          fact.arity() != atom.arity()) {
        continue;
      }
      std::vector<Term> fresh;
      bool ok = true;
      for (size_t k = 0; k < atom.arity() && ok; ++k) {
        const Term p = atom.arg(k);
        if (p.is_constant()) {
          ok = p == fact.arg(k);
        } else if (std::optional<Term> image = h.Lookup(p)) {
          ok = *image == fact.arg(k);
        } else {
          h.Bind(p, fact.arg(k));
          fresh.push_back(p);
        }
      }
      if (ok) self(self, depth + 1);
      for (Term v : fresh) h.Unbind(v);
      if (stopped) return;
    }
  };
  extend(extend, 0);
}

/// True iff some homomorphism pattern → target extends `seed`.
inline bool ExistsHomomorphism(const AtomSet& pattern, const AtomSet& target,
                               const Substitution& seed = {}) {
  bool found = false;
  ForEachHomomorphism(pattern, target, seed, [&](const Substitution&) {
    found = true;
    return false;
  });
  return found;
}

/// True iff some retraction ρ of `instance` (an endomorphism with ρ∘ρ = ρ)
/// has ρ(from) = onto. Idempotence is the definition read as "ρ fixes every
/// term of its image": binding X ↦ t, t a variable, also binds t ↦ t. Every
/// atom of the instance gets an image (no frontier shortcut), one linear
/// scan per atom, the most-bound atom first.
inline bool ExistsRetractionOnto(const AtomSet& instance, const Atom& from,
                                 const Atom& onto) {
  const std::vector<Atom> facts = instance.Atoms();
  Substitution h;
  std::vector<Term> trail;
  // Binds var ↦ image and, for a variable image, image ↦ image.
  auto bind = [&](Term var, Term image) {
    for (auto [v, t] : {std::pair{var, image}, std::pair{image, image}}) {
      if (!v.is_variable()) continue;
      if (std::optional<Term> old = h.Lookup(v)) {
        if (*old != t) return false;
        continue;
      }
      h.Bind(v, t);
      trail.push_back(v);
    }
    return true;
  };
  auto unify = [&](const Atom& atom, const Atom& fact) {
    if (atom.predicate() != fact.predicate() ||
        atom.arity() != fact.arity()) {
      return false;
    }
    for (size_t k = 0; k < atom.arity(); ++k) {
      const Term p = atom.arg(k);
      if (p.is_constant() ? p != fact.arg(k) : !bind(p, fact.arg(k))) {
        return false;
      }
    }
    return true;
  };
  auto rollback = [&](size_t mark) {
    while (trail.size() > mark) {
      h.Unbind(trail.back());
      trail.pop_back();
    }
  };
  if (!unify(from, onto)) return false;
  std::vector<bool> done(facts.size(), false);
  auto extend = [&](auto&& self, size_t left) -> bool {
    if (left == 0) return true;
    size_t best = facts.size();
    size_t best_bound = 0;
    for (size_t i = 0; i < facts.size(); ++i) {
      if (done[i]) continue;
      size_t bound = 0;
      for (Term t : facts[i].args()) {
        bound += t.is_constant() || h.Lookup(t).has_value();
      }
      if (best == facts.size() || bound > best_bound) {
        best = i;
        best_bound = bound;
      }
    }
    done[best] = true;
    for (const Atom& fact : facts) {
      const size_t mark = trail.size();
      if (unify(facts[best], fact) && self(self, left - 1)) return true;
      rollback(mark);
    }
    done[best] = false;
    return false;
  };
  return extend(extend, facts.size());
}

}  // namespace reference
}  // namespace twchase

#endif  // TWCHASE_TESTS_REFERENCE_MATCHER_H_
