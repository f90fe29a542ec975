#include "hom/matcher.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "util/fault.h"
#include "util/governor.h"
#include "util/status.h"

namespace twchase {

namespace {

// Ambient per-thread counters pointer; the pointee is shared across threads
// (its fields are atomic), the pointer itself is thread-local like the
// governor ambient.
thread_local MatchCounters* g_match_counters = nullptr;

}  // namespace

MatchCountersScope::MatchCountersScope(MatchCounters* counters)
    : previous_(g_match_counters) {
  g_match_counters = counters;
}

MatchCountersScope::~MatchCountersScope() { g_match_counters = previous_; }

MatchCounters* CurrentMatchCounters() { return g_match_counters; }

namespace {

constexpr uint32_t kUnbound = 0xFFFFFFFFu;

// One backtracking search instance with dynamic most-constrained-first atom
// selection: at every node the next pattern atom is the one with the fewest
// candidate target atoms under the current partial binding. Pattern
// variables are renumbered into a dense local index so that the hot path
// (estimates, unification, rollback) is array access, not hashing.
// Run() is called at most once; only retraction mode reuses a search, one
// ExistsRetractionOnto query after another. Every search folds its node
// count into the ambient MatchCounters.
//
// Candidates come from JoinCandidates, which probes the target's
// ColumnSegment for the pattern atom's (predicate, arity): it picks the
// probe column by the smallest term posting, binary-searches the lazily
// sorted column index for the bound image id, and verifies the remaining
// bound columns, repeated-variable constraints and the forbidden term
// directly on the column cells. TryUnify then applies the injective and
// vars-to-vars checks, which depend on the search state.
//
// Candidate order contract. The candidates come in ascending slot order,
// which is the order of every posting list, and identity-first then moves
// the identity candidate to the front exactly as a swap with the head of
// the probed posting would, restricted to the candidates that unify
// (PostingFirstCandidate). Which retraction a core computation finds first
// depends on this order, and so do the content hashes the goldens pin;
// DESIGN.md §8 states the contract in full.
class HomSearch {
 public:
  HomSearch(const AtomSet& pattern, const AtomSet& target,
            const HomOptions& options, bool retractions_only = false)
      : target_(target),
        options_(options),
        retractions_only_(retractions_only) {
    counters_ = CurrentMatchCounters();
    // Collect pattern atoms and build the local variable table.
    for (const Atom& atom : pattern.Atoms()) {
      PatAtom pat;
      pat.predicate = atom.predicate();
      pat.segment = target_.SegmentFor(pat.predicate, atom.arity());
      pat.static_best = target_.CountByPredicate(atom.predicate());
      for (Term t : atom.args()) {
        if (t.is_variable()) {
          pat.args.push_back(Arg{LocalIndex(t), Term()});
        } else {
          pat.args.push_back(Arg{kNotVar, t});
          pat.static_best = std::min(pat.static_best, target_.CountByTerm(t));
        }
        if (options_.forbidden_image_term.has_value() &&
            t == *options_.forbidden_image_term) {
          pat.focus = true;
        }
      }
      if (pat.focus) ++remaining_focus_;
      pattern_atoms_.push_back(std::move(pat));
    }
    binding_.assign(var_terms_.size(), Term::Variable(kUnbound & 0x7FFFFFFF));
    bound_.assign(var_terms_.size(), false);
    assigned_.assign(pattern_atoms_.size(), false);
    // Seed bindings for pattern variables; seed entries for other variables
    // ride along and are re-attached at emit time.
    for (const auto& [var, term] : options_.seed.map()) {
      auto it = var_index_.find(var);
      if (it != var_index_.end()) {
        binding_[it->second] = term;
        bound_[it->second] = true;
      }
      if (options_.injective) used_targets_.insert(term);
    }
    // Variable occurrence lists (CSR): the atoms to re-score when a
    // variable is bound or unbound.
    occurrence_begin_.assign(var_terms_.size() + 1, 0);
    for (const PatAtom& pat : pattern_atoms_) {
      ForEachDistinctVar(pat, [&](uint32_t v) { ++occurrence_begin_[v + 1]; });
    }
    for (size_t v = 0; v < var_terms_.size(); ++v) {
      occurrence_begin_[v + 1] += occurrence_begin_[v];
    }
    occurrences_.resize(occurrence_begin_.back());
    std::vector<uint32_t> fill(occurrence_begin_.begin(),
                               occurrence_begin_.end() - 1);
    for (size_t i = 0; i < pattern_atoms_.size(); ++i) {
      ForEachDistinctVar(pattern_atoms_[i], [&](uint32_t v) {
        occurrences_[fill[v]++] = static_cast<uint32_t>(i);
      });
    }
    estimates_.resize(pattern_atoms_.size());
    for (size_t i = 0; i < pattern_atoms_.size(); ++i) {
      estimates_[i] = EstimateCandidates(pattern_atoms_[i]);
    }
    candidate_buffers_.resize(pattern_atoms_.size() + 1);
    if (retractions_only_) {
      var_count_.assign(pattern_atoms_.size(), 0);
      bound_count_.assign(pattern_atoms_.size(), 0);
      moved_.assign(pattern_atoms_.size(), 0);
      for (size_t i = 0; i < pattern_atoms_.size(); ++i) {
        ForEachDistinctVar(pattern_atoms_[i],
                           [&](uint32_t) { ++var_count_[i]; });
      }
      // Pattern and target are the same instance, so every image variable
      // is a pattern variable; index them by vocabulary index.
      for (size_t v = 0; v < var_terms_.size(); ++v) {
        uint32_t index = var_terms_[v].index();
        if (index >= local_of_image_.size()) {
          local_of_image_.resize(index + 1, kNotVar);
        }
        local_of_image_[index] = static_cast<uint32_t>(v);
      }
    }
  }

  std::vector<Substitution> Run() {
    // An empty pattern has exactly one homomorphism: the seed itself.
    Search(pattern_atoms_.size());
    FlushNodes();
    return std::move(results_);
  }

  // Retraction mode (pattern == target): true iff some retraction maps
  // `from` onto `onto`. Binds the seed, searches, and rolls back, so the
  // compiled pattern serves any number of calls.
  bool ExistsRetractionOnto(const Atom& from, const Atom& onto) {
    TWCHASE_CHECK(retractions_only_);
    PatAtom seed;
    seed.predicate = from.predicate();
    for (Term t : from.args()) {
      seed.args.push_back(t.is_variable()
                              ? Arg{local_of_image_[t.index()], Term()}
                              : Arg{kNotVar, t});
    }
    const size_t mark = trail_.size();
    if (!TryUnify(seed, onto)) {
      RollbackTo(mark);
      return false;
    }
    Rescore(mark);
    Search(pattern_atoms_.size());
    RollbackTo(mark);
    FlushNodes();
    const bool found = !results_.empty();
    results_.clear();
    return found;
  }

 private:
  static constexpr uint32_t kNotVar = 0xFFFFFFFFu;
  static constexpr size_t kInfinity = std::numeric_limits<size_t>::max();

  struct Arg {
    uint32_t var = kNotVar;  // local variable index, or kNotVar
    Term constant;           // valid iff var == kNotVar
  };

  struct PatAtom {
    PredicateId predicate = 0;
    const ColumnSegment* segment = nullptr;  // null: no target atom fits
    std::vector<Arg> args;
    size_t static_best = 0;  // min over predicate / constant-arg postings
    bool focus = false;      // contains the forbidden image term (fold crux)
  };

  uint32_t LocalIndex(Term var) {
    auto [it, inserted] =
        var_index_.emplace(var, static_cast<uint32_t>(var_terms_.size()));
    if (inserted) var_terms_.push_back(var);
    return it->second;
  }

  template <typename Fn>
  static void ForEachDistinctVar(const PatAtom& pat, Fn fn) {
    for (size_t i = 0; i < pat.args.size(); ++i) {
      uint32_t v = pat.args[i].var;
      if (v == kNotVar) continue;
      bool repeated = false;
      for (size_t j = 0; j < i; ++j) repeated |= pat.args[j].var == v;
      if (!repeated) fn(v);
    }
  }

  bool AtomContains(const Atom& atom, Term t) const {
    for (Term a : atom.args()) {
      if (a == t) return true;
    }
    return false;
  }

  // Zero means a certain dead end (selected immediately to fail fast).
  size_t EstimateCandidates(const PatAtom& pat) const {
    size_t best = pat.static_best;
    size_t bound_args = 0;
    for (const Arg& arg : pat.args) {
      if (arg.var == kNotVar) {
        ++bound_args;
      } else if (bound_[arg.var]) {
        ++bound_args;
        best = std::min(best, target_.CountByTerm(binding_[arg.var]));
      }
    }
    if (best == 0) return 0;
    // Prefer atoms with more bound arguments on ties.
    return best * 4 + (3 - std::min<size_t>(bound_args, 3));
  }

  // Candidate target atoms for `pat` under the current binding: one
  // EqualRange probe on the most selective bound column (or a full segment
  // scan when nothing is bound), then verification of every remaining
  // constraint against the column cells. Emits, in ascending slot order,
  // the candidates TryUnify would accept without its injective and
  // vars-to-vars checks, then applies identity-first to that subsequence.
  void JoinCandidates(const PatAtom& pat, std::vector<const Atom*>& out) {
    out.clear();
    if (pat.segment == nullptr) return;
    const ColumnSegment& seg = *pat.segment;
    const TermDictionary& dict = target_.dictionary();
    const size_t arity = pat.args.size();
    col_bound_.assign(arity, 0);
    col_ids_.assign(arity, TermDictionary::kNoId);
    col_vars_.assign(arity, kNotVar);
    // The probe is the first strict minimum of CountByTerm over the bound
    // images; the identity reorder below reads the head of that posting.
    std::optional<Term> best_term;
    size_t best_count = kInfinity;
    uint32_t probe_col = 0;
    bool dead = false;
    for (size_t i = 0; i < arity; ++i) {
      const Arg& arg = pat.args[i];
      Term image;
      if (arg.var == kNotVar) {
        image = arg.constant;
      } else if (bound_[arg.var]) {
        image = binding_[arg.var];
      } else {
        col_vars_[i] = arg.var;
        continue;
      }
      col_bound_[i] = 1;
      col_ids_[i] = dict.Find(image);
      // An image the target never stored cannot appear in any row.
      if (col_ids_[i] == TermDictionary::kNoId) dead = true;
      size_t count = target_.CountByTerm(image);
      if (count < best_count) {
        best_count = count;
        best_term = image;
        probe_col = static_cast<uint32_t>(i);
      }
    }
    if (dead) return;
    // Cells hold real ids, so comparing against kNoId (forbidden term not
    // in the dictionary) can never match — no extra guard needed.
    TermId forbidden_id = TermDictionary::kNoId;
    if (options_.forbidden_image_term.has_value()) {
      forbidden_id = dict.Find(*options_.forbidden_image_term);
    }
    auto verify_and_admit = [&](uint32_t row) {
      uint32_t slot = seg.slot(row);
      if (!target_.SlotAlive(slot)) return;
      for (size_t c = 0; c < arity; ++c) {
        TermId cell = seg.cell(row, static_cast<uint32_t>(c));
        if (cell == forbidden_id) return;
        if (col_bound_[c]) {
          if (cell != col_ids_[c]) return;
          continue;
        }
        // A repeated unbound variable must meet equal cells.
        for (size_t p = 0; p < c; ++p) {
          if (!col_bound_[p] && col_vars_[p] == col_vars_[c] &&
              seg.cell(row, static_cast<uint32_t>(p)) != cell) {
            return;
          }
        }
      }
      out.push_back(&target_.SlotAtom(slot));
    };
    if (best_term.has_value()) {
      IndexBuildStats build;
      const TermId probe_id = col_ids_[probe_col];
      ColumnSegment::ProbeResult range =
          seg.EqualRange(probe_col, probe_id, &build);
      if (counters_ != nullptr) {
        counters_->index_probes.fetch_add(1, std::memory_order_relaxed);
        if (build.builds > 0) {
          counters_->index_builds.fetch_add(build.builds,
                                            std::memory_order_relaxed);
          counters_->index_build_bytes.fetch_add(build.bytes,
                                                 std::memory_order_relaxed);
        }
      }
      for (const uint32_t* r = range.begin; r != range.end; ++r) {
        verify_and_admit(*r);
      }
      // Unmerged tail rows follow every sorted row, so scanning them second
      // keeps the enumeration in ascending slot order.
      for (uint32_t row = range.tail_begin; row != range.tail_end; ++row) {
        if (seg.cell(row, probe_col) == probe_id) verify_and_admit(row);
      }
    } else {
      if (counters_ != nullptr) {
        counters_->column_scans.fetch_add(1, std::memory_order_relaxed);
      }
      for (size_t row = 0; row < seg.rows(); ++row) {
        verify_and_admit(static_cast<uint32_t>(row));
      }
    }
    // Identity-first, restricted to the unifying subsequence: the identity
    // candidate trades places with the head of the probed posting (see
    // PostingFirstCandidate). Projected onto the unifying candidates that is
    // a swap when that head unifies, and a rotate of the identity to the
    // front when it does not. With fewer than two unifying candidates any
    // reorder is the identity permutation.
    if (!options_.identity_first || out.size() < 2) return;
    size_t identity_pos = out.size();
    for (size_t j = 0; j < out.size(); ++j) {
      if (IsIdentityCandidate(pat, *out[j])) {
        identity_pos = j;
        break;
      }
    }
    if (identity_pos == out.size() || identity_pos == 0) return;
    const Atom* posting_first = PostingFirstCandidate(
        pat, best_term, best_count <= target_.CountByPredicate(pat.predicate));
    if (posting_first == out[0]) {
      std::swap(out[0], out[identity_pos]);
    } else {
      std::rotate(out.begin(), out.begin() + identity_pos,
                  out.begin() + identity_pos + 1);
    }
  }

  // The head of the probed posting, which is the smallest bound image's term
  // posting when it is no longer than the predicate posting, and the
  // predicate posting otherwise. The head is the first live atom of that
  // posting with the pattern's predicate and without the forbidden term; it
  // may have another arity or fail to unify. Used only to decide the
  // identity reorder's swap-vs-rotate case.
  const Atom* PostingFirstCandidate(const PatAtom& pat,
                                    const std::optional<Term>& best_term,
                                    bool term_beats_predicate) const {
    auto admit = [&](const Atom& cand) {
      return !options_.forbidden_image_term.has_value() ||
             !AtomContains(cand, *options_.forbidden_image_term);
    };
    if (best_term.has_value() && term_beats_predicate) {
      const std::vector<AtomSet::Slot>* posting =
          target_.TermPostingSlots(*best_term);
      if (posting == nullptr) return nullptr;
      for (AtomSet::Slot s : *posting) {
        if (!target_.SlotAlive(s)) continue;
        const Atom& cand = target_.SlotAtom(s);
        if (cand.predicate() == pat.predicate && admit(cand)) return &cand;
      }
      return nullptr;
    }
    const std::vector<AtomSet::Slot>* posting =
        target_.PredicatePostingSlots(pat.predicate);
    if (posting == nullptr) return nullptr;
    for (AtomSet::Slot s : *posting) {
      if (!target_.SlotAlive(s)) continue;
      const Atom& cand = target_.SlotAtom(s);
      if (admit(cand)) return &cand;
    }
    return nullptr;
  }

  bool IsIdentityCandidate(const PatAtom& pat, const Atom& cand) const {
    if (cand.args().size() != pat.args.size()) return false;
    for (size_t i = 0; i < pat.args.size(); ++i) {
      const Arg& arg = pat.args[i];
      Term expected = arg.var == kNotVar
                          ? arg.constant
                          : (bound_[arg.var] ? binding_[arg.var]
                                             : var_terms_[arg.var]);
      if (cand.arg(i) != expected) return false;
    }
    return true;
  }

  // Bindings made by TryUnify go onto the shared trail_; RollbackTo(mark)
  // undoes everything pushed after the mark. One growing vector instead of a
  // fresh vector per search node.
  bool TryUnify(const PatAtom& pat, const Atom& cand) {
    if (cand.args().size() != pat.args.size()) return false;
    for (size_t i = 0; i < pat.args.size(); ++i) {
      const Arg& arg = pat.args[i];
      Term image = cand.arg(i);
      if (arg.var == kNotVar) {
        if (arg.constant != image) return false;
        continue;
      }
      if (bound_[arg.var]) {
        if (binding_[arg.var] != image) return false;
        continue;
      }
      if (options_.vars_to_vars && image.is_constant()) return false;
      if (options_.injective) {
        if (used_targets_.contains(image)) return false;
        used_targets_.insert(image);
      }
      Bind(arg.var, image);
      // A retraction fixes its image: X ↦ t forces t ↦ t.
      if (retractions_only_ && image.is_variable()) {
        uint32_t fixed = local_of_image_[image.index()];
        if (bound_[fixed]) {
          if (binding_[fixed] != image) return false;
        } else {
          Bind(fixed, image);
        }
      }
    }
    return true;
  }

  void Bind(uint32_t var, Term image) {
    binding_[var] = image;
    bound_[var] = true;
    trail_.push_back(var);
    if (retractions_only_) CountBinding(var, true);
  }

  // Retraction mode: keeps bound_count_, moved_ and frontier_left_ in step
  // with one binding of `var` made (`bind`) or undone. binding_[var] holds
  // the image either way.
  void CountBinding(uint32_t var, bool bind) {
    const bool moves = binding_[var] != var_terms_[var];
    for (uint32_t k = occurrence_begin_[var]; k < occurrence_begin_[var + 1];
         ++k) {
      const uint32_t atom = occurrences_[k];
      bind ? ++bound_count_[atom] : --bound_count_[atom];
      if (!moves) continue;
      // An atom joins or leaves the frontier with its first moved variable.
      const bool edge = bind ? moved_[atom]++ == 0 : --moved_[atom] == 0;
      if (edge && !assigned_[atom]) bind ? ++frontier_left_ : --frontier_left_;
    }
  }

  // Retraction mode: atom `i` was just assigned (or unassigned), which takes
  // a frontier atom off (or back onto) frontier_left_.
  void CountAssignment(size_t i, bool assign) {
    if (!retractions_only_ || moved_[i] == 0) return;
    assign ? --frontier_left_ : ++frontier_left_;
  }

  // Retraction mode: the atoms worth choosing. A fully bound atom off the
  // frontier maps to itself, which is in the instance; a fully unbound one
  // constrains nothing yet. Boundary atoms, bound and unbound variables
  // mixed, stay selectable: plan/core_guard.h says why.
  bool Selectable(size_t i) const {
    return bound_count_[i] > 0 &&
           (moved_[i] > 0 || bound_count_[i] < var_count_[i]);
  }

  void FlushNodes() {
    if (counters_ != nullptr && nodes_ > 0) {
      counters_->search_nodes.fetch_add(nodes_, std::memory_order_relaxed);
    }
    nodes_ = 0;
  }

  // Undoes every binding pushed after `mark` and refreshes the cached
  // estimates of the atoms touching those variables.
  void RollbackTo(size_t mark) {
    for (size_t i = trail_.size(); i > mark; --i) {
      uint32_t var = trail_[i - 1];
      if (options_.injective) used_targets_.erase(binding_[var]);
      if (retractions_only_) CountBinding(var, false);
      bound_[var] = false;
    }
    Rescore(mark);
    trail_.resize(mark);
  }

  // Re-scores the unassigned atoms that mention a variable of
  // trail_[mark..]. Assigned atoms keep the estimate they had when chosen,
  // which is valid again by the time the search unassigns them (every
  // binding below them has been rolled back).
  void Rescore(size_t mark) {
    for (size_t i = mark; i < trail_.size(); ++i) {
      uint32_t var = trail_[i];
      for (uint32_t k = occurrence_begin_[var]; k < occurrence_begin_[var + 1];
           ++k) {
        uint32_t atom = occurrences_[k];
        if (!assigned_[atom]) {
          estimates_[atom] = EstimateCandidates(pattern_atoms_[atom]);
        }
      }
    }
  }

  void Emit() {
    Substitution result = options_.seed;
    for (size_t v = 0; v < var_terms_.size(); ++v) {
      if (bound_[v]) result.Bind(var_terms_[v], binding_[v]);
    }
    results_.push_back(std::move(result));
  }

  // Returns true when the search should stop (limit reached, or the ambient
  // resource governor fired — callers that must distinguish check
  // GovernorStopped(): results found before the stop are returned, but the
  // enumeration may be incomplete and a "no homomorphism" verdict is then
  // not trustworthy).
  //
  // Retraction mode succeeds as soon as no unassigned atom is on the
  // frontier: the identity then completes the binding to a retraction (the
  // frontier rule of plan/core_guard.h).
  bool Search(size_t remaining) {
    ++nodes_;
    if (GovernorPoll(FaultSite::kHomNode)) return true;
    if (retractions_only_ ? frontier_left_ == 0 : remaining == 0) {
      Emit();
      return options_.limit != 0 && results_.size() >= options_.limit;
    }
    // While "focus" atoms (those containing the term being folded away)
    // remain, select among them only: the satisfiability crux of a folding
    // search lives there, and deciding it before the bulk of the pattern
    // keeps UNSAT proofs local.
    size_t chosen = pattern_atoms_.size();
    size_t best_score = kInfinity;
    for (size_t i = 0; i < pattern_atoms_.size(); ++i) {
      if (assigned_[i]) continue;
      if (remaining_focus_ > 0 && !pattern_atoms_[i].focus) continue;
      if (retractions_only_ && !Selectable(i)) continue;
      size_t score = estimates_[i];
      if (score < best_score) {
        best_score = score;
        chosen = i;
        if (score == 0) break;
      }
    }
    TWCHASE_CHECK(chosen < pattern_atoms_.size());
    const PatAtom& pat = pattern_atoms_[chosen];
    assigned_[chosen] = true;
    CountAssignment(chosen, true);
    if (pat.focus) --remaining_focus_;
    bool stop = false;
    std::vector<const Atom*>& candidates = candidate_buffers_[remaining];
    JoinCandidates(pat, candidates);
    for (const Atom* cand : candidates) {
      size_t mark = trail_.size();
      if (!TryUnify(pat, *cand)) {
        RollbackTo(mark);
        continue;
      }
      Rescore(mark);
      stop = Search(remaining - 1);
      RollbackTo(mark);
      if (stop) break;
    }
    assigned_[chosen] = false;
    CountAssignment(chosen, false);
    if (pat.focus) ++remaining_focus_;
    return stop;
  }

  const AtomSet& target_;
  const HomOptions& options_;
  std::vector<PatAtom> pattern_atoms_;
  std::unordered_map<Term, uint32_t, TermHash> var_index_;
  std::vector<Term> var_terms_;
  std::vector<Term> binding_;  // indexed by local variable
  std::vector<char> bound_;
  std::vector<char> assigned_;
  // estimates_[i] == EstimateCandidates(pattern_atoms_[i]) for every
  // unassigned atom; kept current by Rescore on each bind and unbind.
  std::vector<size_t> estimates_;
  std::vector<uint32_t> occurrence_begin_;  // per variable, into occurrences_
  std::vector<uint32_t> occurrences_;       // atoms mentioning each variable
  std::vector<std::vector<const Atom*>> candidate_buffers_;  // per depth
  size_t remaining_focus_ = 0;
  std::vector<uint32_t> trail_;
  std::unordered_set<Term, TermHash> used_targets_;
  std::vector<Substitution> results_;
  // Retraction mode: only idempotent maps; local_of_image_ maps a
  // variable's vocabulary index to its local index. Per atom: its distinct
  // variables, how many are bound, and how many are bound to a term other
  // than themselves (moved). frontier_left_ counts the unassigned atoms
  // with a moved variable.
  bool retractions_only_ = false;
  std::vector<uint32_t> local_of_image_;
  std::vector<uint32_t> var_count_;
  std::vector<uint32_t> bound_count_;
  std::vector<uint32_t> moved_;
  size_t frontier_left_ = 0;
  uint64_t nodes_ = 0;  // search nodes not yet folded into counters_
  MatchCounters* counters_ = nullptr;
  // JoinCandidates per-position plan, reused across nodes so the hot path
  // allocates nothing after warm-up.
  std::vector<uint8_t> col_bound_;
  std::vector<TermId> col_ids_;
  std::vector<uint32_t> col_vars_;
};

}  // namespace

std::vector<Substitution> FindAllHomomorphisms(const AtomSet& pattern,
                                               const AtomSet& target,
                                               const HomOptions& options) {
  HomSearch search(pattern, target, options);
  return search.Run();
}

std::optional<Substitution> FindHomomorphism(const AtomSet& pattern,
                                             const AtomSet& target) {
  return FindHomomorphism(pattern, target, HomOptions{});
}

std::optional<Substitution> FindHomomorphism(const AtomSet& pattern,
                                             const AtomSet& target,
                                             const HomOptions& options) {
  HomOptions opts = options;
  opts.limit = 1;
  auto results = FindAllHomomorphisms(pattern, target, opts);
  if (results.empty()) return std::nullopt;
  return std::move(results.front());
}

bool ExistsHomomorphism(const AtomSet& pattern, const AtomSet& target) {
  return FindHomomorphism(pattern, target).has_value();
}

bool ExistsHomomorphismExtending(const AtomSet& pattern, const AtomSet& target,
                                 const Substitution& seed) {
  HomOptions options;
  options.seed = seed;
  options.limit = 1;
  return FindHomomorphism(pattern, target, options).has_value();
}

class RetractionSearch::Impl {
 public:
  explicit Impl(const AtomSet& instance)
      : search_(instance, instance, options_, /*retractions_only=*/true) {}

  bool MapsOnto(const Atom& from, const Atom& onto) {
    return search_.ExistsRetractionOnto(from, onto);
  }

 private:
  HomOptions options_;  // limit 1, identity first; outlives search_
  HomSearch search_;
};

RetractionSearch::RetractionSearch(const AtomSet& instance)
    : impl_(std::make_unique<Impl>(instance)) {}

RetractionSearch::~RetractionSearch() = default;

bool RetractionSearch::MapsOnto(const Atom& from, const Atom& onto) {
  return impl_->MapsOnto(from, onto);
}

}  // namespace twchase
