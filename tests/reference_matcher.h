// Brute-force reference for HomOptions searches: enumerates every
// assignment of the pattern's unseeded variables to the target's terms and
// keeps the ones whose image atoms all lie in the target. No postings,
// segments, estimates or candidate order — only the definitions — so it is
// an independent oracle for the result SET of FindAllHomomorphisms(limit=0).
// Exponential in the number of pattern variables: small instances only.
#ifndef TWCHASE_TESTS_REFERENCE_MATCHER_H_
#define TWCHASE_TESTS_REFERENCE_MATCHER_H_

#include <algorithm>
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

}  // namespace reference
}  // namespace twchase

#endif  // TWCHASE_TESTS_REFERENCE_MATCHER_H_
