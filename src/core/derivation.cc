#include "core/derivation.h"

#include <utility>

#include "util/status.h"

namespace twchase {

void Derivation::AddInitial(const AtomSet& f0, Substitution sigma0) {
  TWCHASE_CHECK(steps_.empty());
  DerivationStep step;
  step.simplification = std::move(sigma0);
  step.instance_size = f0.size();
  initial_ = f0;
  approx_bytes_ = initial_.ApproxMemoryBytes() + StepBytes(step);
  steps_.push_back(std::move(step));
  last_ = f0;
}

void Derivation::AddStep(int rule_index, std::string rule_label,
                         Substitution match, Substitution sigma,
                         std::vector<Atom> added_atoms,
                         const AtomSet& instance) {
  TWCHASE_CHECK(!steps_.empty());
  DerivationStep step;
  step.rule_index = rule_index;
  step.rule_label = std::move(rule_label);
  step.match = std::move(match);
  step.simplification = std::move(sigma);
  step.added_atoms = std::move(added_atoms);
  step.instance_size = instance.size();
  approx_bytes_ += StepBytes(step);
  // Maintain the running F_i without an O(|F_i|) copy per step: when the
  // simplification is the identity, the step only inserted `added_atoms`
  // into F_{i-1}, so mirroring those inserts reproduces F_i's content
  // (Last()'s contract — consumers compare content, not internal layout).
  // Retracting steps (core and frugal folds carry a non-identity sigma)
  // fall back to the full copy; they are rare and already paid for an
  // instance rebuild. The size check is a defensive resync: it cannot
  // trigger for a pure insertion step.
  if (step.simplification.IsIdentity()) {
    for (const Atom& atom : step.added_atoms) last_.Insert(atom);
    if (last_.size() != instance.size()) last_ = instance;
  } else {
    last_ = instance;
  }
  steps_.push_back(std::move(step));
}

size_t Derivation::StepBytes(const DerivationStep& step) {
  // Rough per-step footprint. The 48-byte constant approximates one
  // hash-map node per substitution entry.
  size_t bytes = sizeof(DerivationStep) + step.rule_label.capacity();
  bytes += (step.match.size() + step.simplification.size()) * 48;
  bytes += step.added_atoms.size() * 64;
  return bytes;
}

AtomSet Derivation::Instance(size_t i) const {
  TWCHASE_CHECK(i < steps_.size());
  DerivationCursor cursor(*this);
  while (cursor.index() < i) cursor.Next();
  return cursor.instance();
}

Substitution Derivation::SigmaBetween(size_t i, size_t j) const {
  TWCHASE_CHECK(i <= j && j < steps_.size());
  Substitution out;
  for (size_t k = i + 1; k <= j; ++k) {
    out = Substitution::Compose(steps_[k].simplification, out);
  }
  return out;
}

AtomSet Derivation::PreSimplification(size_t i) const {
  TWCHASE_CHECK(i >= 1 && i < steps_.size());
  DerivationCursor cursor(*this);
  while (cursor.index() < i) cursor.Next();
  return cursor.pre_simplification();
}

bool Derivation::IsMonotonic() const {
  if (steps_.empty()) return true;
  DerivationCursor previous(*this);
  DerivationCursor current = previous;
  for (current.Next(); !current.done(); previous.Next(), current.Next()) {
    if (!previous.instance().IsSubsetOf(current.instance())) return false;
  }
  return true;
}

AtomSet Derivation::NaturalAggregation() const {
  AtomSet out;
  for (DerivationCursor cursor(*this); !cursor.done(); cursor.Next()) {
    out.InsertAll(cursor.instance());
  }
  return out;
}

std::unordered_map<Atom, size_t, AtomHash> Derivation::ProvenanceIndex()
    const {
  std::unordered_map<Atom, size_t, AtomHash> out;
  if (steps_.empty()) return out;
  initial_.ForEach([&](const Atom& atom) { out.emplace(atom, 0); });
  for (size_t i = 1; i < steps_.size(); ++i) {
    for (const Atom& atom : steps_[i].added_atoms) {
      out.emplace(atom, i);
    }
  }
  return out;
}

DerivationCursor::DerivationCursor(const Derivation& derivation)
    : derivation_(&derivation) {
  if (!derivation.empty()) current_ = derivation.Initial();
}

void DerivationCursor::Next() {
  TWCHASE_CHECK(!done());
  ++index_;
  if (done()) {
    current_ = AtomSet();
    pre_ = AtomSet();
    return;
  }
  const DerivationStep& step = derivation_->step(index_);
  AtomSet alpha = std::move(current_);
  for (const Atom& atom : step.added_atoms) alpha.Insert(atom);
  if (step.simplification.IsIdentity()) {
    current_ = std::move(alpha);
    pre_ = AtomSet();
    pre_is_current_ = true;
  } else {
    current_ = step.simplification.Apply(alpha);
    pre_ = std::move(alpha);
    pre_is_current_ = false;
  }
}

}  // namespace twchase
