#include "hom/matcher.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <span>
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

// One backtracking search with dynamic most-constrained-first atom
// selection: at every node the next pattern atom is the one with the fewest
// candidate target atoms under the current partial binding. Pattern
// variables are renumbered into a dense local index so that the hot path
// (estimates, unification, rollback) is array access, not hashing. Every
// search folds its node count into the ambient MatchCounters.
//
// Compiled pattern. The pattern is compiled once into flat arrays: one
// PatAtom per pattern atom, in the pattern's slot order, and all atoms'
// arguments in one array. A variable's local index is found through a table
// indexed by its vocabulary index, so compiling hashes nothing. Every
// buffer (bindings, trails, candidate lists, the consistency pass's
// domains) is kept across searches. A HomSearch serves one search after
// another in one of two modes:
//   * transient (Compile, then Run): the free functions below borrow the
//     thread's HomSearch, so after warm-up a search allocates only the
//     substitutions it returns;
//   * retraction (RetractionSearch): pattern and target are one instance,
//     kept compiled for the object's lifetime. Before each query that the
//     term signatures do not refute, Sync recompiles it if its generation
//     has changed since the last compile.
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
  // Transient mode: compiles `pattern` for one Run into `target`, with the
  // pattern variables of `seed` pre-bound. `options.seed` is not read;
  // `options` and `seed` must outlive the Run. With `collect` off, Run
  // builds no substitution and only reports whether one exists.
  void Compile(const AtomSet& pattern, const AtomSet& target,
               const HomOptions& options, const Substitution& seed,
               size_t limit, bool collect) {
    Clear();
    target_ = &target;
    options_ = &options;
    seed_ = &seed;
    limit_ = limit;
    collect_ = collect;
    pattern.ForEach([&](const Atom& atom) { AppendAtom(atom); });
    FinishCompile();
    for (const auto& [var, term] : seed.map()) {
      const uint32_t v = LocalOf(var);
      if (v != kNotVar) {
        binding_[v] = term;
        bound_[v] = true;
        image_count_[v] = target.CountByTerm(term);
      }
      if (options.injective) used_targets_.insert(term);
    }
    ScoreAll();
  }

  // Runs the compiled search. Collecting, returns the homomorphisms found;
  // otherwise returns nothing and found() says whether one exists.
  std::vector<Substitution> Run() {
    counters_ = CurrentMatchCounters();
    // An empty pattern has exactly one homomorphism: the seed itself.
    Search(pattern_atoms_.size());
    FlushNodes();
    return std::move(results_);
  }

  bool found() const { return found_ > 0; }

  // Heap bytes the transient-mode buffers hold between searches: their
  // capacities, which grow with the largest pattern, candidate list and
  // vocabulary index seen.
  size_t RetainedBytes() const {
    size_t bytes = Bytes(pattern_atoms_) + Bytes(args_) + Bytes(var_terms_) +
                   Bytes(local_of_var_) + Bytes(occurrence_begin_) +
                   Bytes(occurrences_) + Bytes(fill_) + Bytes(binding_) +
                   Bytes(bound_) + Bytes(image_count_) + Bytes(assigned_) +
                   Bytes(estimates_) + Bytes(estimate_trail_) +
                   Bytes(candidate_buffers_) + Bytes(trail_) +
                   Bytes(col_bound_) + Bytes(col_ids_) + Bytes(col_vars_) +
                   used_targets_.bucket_count() * sizeof(void*);
    for (const auto& buffer : candidate_buffers_) bytes += Bytes(buffer);
    return bytes;
  }

  // Retraction mode over `instance` (pattern == target), which must
  // outlive the object. Compiled by the first query.
  void BindRetractions(const AtomSet& instance) {
    retractions_only_ = true;
    target_ = &instance;
    options_ = &retraction_options_;
    seed_ = &retraction_options_.seed;
    limit_ = 1;
    collect_ = false;
  }

  // Retraction mode: true iff some retraction maps `from` onto `onto`.
  // Tests the seed's signatures, then binds the seed, searches, and rolls
  // back, so the compiled instance serves any number of calls.
  bool ExistsRetractionOnto(const Atom& from, const Atom& onto) {
    TWCHASE_CHECK(retractions_only_);
    if (SignatureRefutes(from, onto)) return false;
    Sync();
    counters_ = CurrentMatchCounters();
    const Mark mark = CurrentMark();
    if (!BindSeed(from, onto) || SeedInconsistent(mark)) {
      RollbackTo(mark);
      return false;
    }
    Rescore(mark);
    Search(pattern_atoms_.size());
    RollbackTo(mark);
    FlushNodes();
    const bool hit = found_ > 0;
    found_ = 0;
    return hit;
  }

  // Retraction mode: true iff the signature rule of plan/core_guard.h
  // refutes the seed `from` ↦ `onto`: some variable X = from.arg(k) occurs
  // at a (predicate, position) pair where onto.arg(k) does not, so
  // sig(X) ⊄ sig(onto.arg(k)). A seed of another arity is refuted too. It
  // reads term postings only, so ExistsRetractionOnto runs it before Sync,
  // and a guard call whose seeds it refutes all compiles nothing.
  bool SignatureRefutes(const Atom& from, const Atom& onto) {
    TWCHASE_CHECK(retractions_only_);
    if (from.arity() != onto.arity()) return true;
    for (size_t k = 0; k < from.arity(); ++k) {
      const Term t = from.arg(k);
      if (t.is_variable() &&
          (SignatureOf(t) & ~SignatureOf(onto.arg(k))) != 0) {
        return true;
      }
    }
    return false;
  }

  // Retraction mode: true iff the consistency pass alone refutes the seed
  // `from` ↦ `onto` (a seed that does not unify is refuted too). Binds the
  // seed, propagates, and rolls back; searches nothing. The signature test
  // is left out, so that tests can check that each seed it refutes, the
  // pass refutes too.
  bool RefutesRetractionOnto(const Atom& from, const Atom& onto) {
    TWCHASE_CHECK(retractions_only_);
    Sync();
    const Mark mark = CurrentMark();
    const bool refuted = !BindSeed(from, onto) || SeedInconsistent(mark);
    RollbackTo(mark);
    return refuted;
  }

 private:
  static constexpr uint32_t kNotVar = 0xFFFFFFFFu;
  static constexpr size_t kInfinity = std::numeric_limits<size_t>::max();

  template <typename T>
  static size_t Bytes(const std::vector<T>& buffer) {
    return buffer.capacity() * sizeof(T);
  }

  struct Arg {
    uint32_t var = kNotVar;  // local variable index, or kNotVar
    Term constant;           // valid iff var == kNotVar
  };

  struct PatAtom {
    PredicateId predicate = 0;
    uint32_t first_arg = 0;  // into args_
    uint32_t arity = 0;
    const ColumnSegment* segment = nullptr;  // null: no target atom fits
    size_t static_best = 0;  // min over predicate / constant-arg postings
    bool focus = false;      // contains the forbidden image term (fold crux)
  };

  // A point to roll back to: the binding trail and the estimate trail.
  struct Mark {
    size_t bindings = 0;
    size_t estimates = 0;
  };

  Mark CurrentMark() const { return {trail_.size(), estimate_trail_.size()}; }

  std::span<const Arg> ArgsOf(const PatAtom& pat) const {
    return {args_.data() + pat.first_arg, pat.arity};
  }

  // Forgets the compiled pattern; keeps every buffer's capacity.
  void Clear() {
    for (Term var : var_terms_) local_of_var_[var.index()] = kNotVar;
    var_terms_.clear();
    pattern_atoms_.clear();
    args_.clear();
    trail_.clear();
    estimate_trail_.clear();
    touched_.clear();
    used_targets_.clear();
    results_.clear();
    found_ = 0;
    remaining_focus_ = 0;
    frontier_left_ = 0;
  }

  // Appends one pattern atom. Its target-dependent fields are set by
  // ScoreAll.
  void AppendAtom(const Atom& atom) {
    PatAtom pat;
    pat.predicate = atom.predicate();
    pat.first_arg = static_cast<uint32_t>(args_.size());
    pat.arity = atom.arity();
    for (Term t : atom.args()) {
      args_.push_back(t.is_variable() ? Arg{LocalIndex(t), Term()}
                                      : Arg{kNotVar, t});
      if (options_->forbidden_image_term.has_value() &&
          t == *options_->forbidden_image_term) {
        pat.focus = true;
      }
    }
    pattern_atoms_.push_back(pat);
  }

  // Sizes the per-variable and per-atom state for the compiled pattern,
  // everything unbound and unassigned, and builds the variable occurrence
  // lists (CSR): the atoms to re-score when a variable is bound or unbound.
  void FinishCompile() {
    const size_t vars = var_terms_.size();
    const size_t atoms = pattern_atoms_.size();
    binding_.resize(vars);
    bound_.assign(vars, 0);
    image_count_.assign(vars, 0);
    assigned_.assign(atoms, 0);
    estimates_.resize(atoms);
    if (candidate_buffers_.size() < atoms + 1) {
      candidate_buffers_.resize(atoms + 1);
    }
    occurrence_begin_.assign(vars + 1, 0);
    for (const PatAtom& pat : pattern_atoms_) {
      ForEachDistinctVar(pat, [&](uint32_t v) { ++occurrence_begin_[v + 1]; });
    }
    for (size_t v = 0; v < vars; ++v) {
      occurrence_begin_[v + 1] += occurrence_begin_[v];
    }
    occurrences_.resize(occurrence_begin_.back());
    fill_.assign(occurrence_begin_.begin(), occurrence_begin_.end() - 1);
    for (size_t i = 0; i < atoms; ++i) {
      ForEachDistinctVar(pattern_atoms_[i], [&](uint32_t v) {
        occurrences_[fill_[v]++] = static_cast<uint32_t>(i);
      });
    }
    if (!retractions_only_) return;
    var_count_.assign(atoms, 0);
    bound_count_.assign(atoms, 0);
    moved_.assign(atoms, 0);
    for (size_t i = 0; i < atoms; ++i) {
      ForEachDistinctVar(pattern_atoms_[i], [&](uint32_t) { ++var_count_[i]; });
    }
    if (domains_.size() < vars) domains_.resize(vars);
    has_domain_.assign(vars, 0);
    queued_.assign(vars, 0);
  }

  // Reads the target's segments and posting counts into every pattern atom
  // and scores it under the current binding.
  void ScoreAll() {
    remaining_focus_ = 0;
    for (size_t i = 0; i < pattern_atoms_.size(); ++i) {
      PatAtom& pat = pattern_atoms_[i];
      pat.segment = target_->SegmentFor(pat.predicate, pat.arity);
      pat.static_best = target_->CountByPredicate(pat.predicate);
      for (const Arg& arg : ArgsOf(pat)) {
        if (arg.var == kNotVar) {
          pat.static_best =
              std::min(pat.static_best, target_->CountByTerm(arg.constant));
        }
      }
      if (pat.focus) ++remaining_focus_;
      estimates_[i] = EstimateCandidates(pat);
    }
  }

  // Retraction mode: compiles the instance afresh when it has changed
  // since the last query (a new AtomSet::generation()), on the kept
  // buffers, so every query sees exactly what a fresh compile would.
  void Sync() {
    const AtomSet& instance = *target_;
    if (instance.generation() == compiled_generation_ &&
        !pattern_atoms_.empty()) {
      return;
    }
    Clear();
    instance.ForEach([&](const Atom& atom) { AppendAtom(atom); });
    compiled_generation_ = instance.generation();
    FinishCompile();
    ScoreAll();
  }

  // Retraction mode: binds the positional seed `from` ↦ `onto` (with the
  // fixing of every variable image) and reports whether it unified. The
  // seed atom is compiled into a reused buffer, so a seed allocates
  // nothing.
  bool BindSeed(const Atom& from, const Atom& onto) {
    seed_args_.clear();
    for (Term t : from.args()) {
      seed_args_.push_back(t.is_variable() ? Arg{LocalOf(t), Term()}
                                           : Arg{kNotVar, t});
    }
    return TryUnify(seed_args_, onto);
  }

  // The local index of pattern variable `var`, assigned on first sight.
  uint32_t LocalIndex(Term var) {
    const uint32_t index = var.index();
    if (index >= local_of_var_.size()) {
      local_of_var_.resize(index + 1, kNotVar);
    }
    uint32_t& local = local_of_var_[index];
    if (local == kNotVar) {
      local = static_cast<uint32_t>(var_terms_.size());
      var_terms_.push_back(var);
    }
    return local;
  }

  // The local index of `var`, or kNotVar when the pattern lacks it.
  uint32_t LocalOf(Term var) const {
    const uint32_t index = var.index();
    return index < local_of_var_.size() ? local_of_var_[index] : kNotVar;
  }

  template <typename Fn>
  void ForEachDistinctVar(const PatAtom& pat, Fn fn) const {
    const std::span<const Arg> args = ArgsOf(pat);
    for (size_t i = 0; i < args.size(); ++i) {
      uint32_t v = args[i].var;
      if (v == kNotVar) continue;
      bool repeated = false;
      for (size_t j = 0; j < i; ++j) repeated |= args[j].var == v;
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
    for (const Arg& arg : ArgsOf(pat)) {
      if (arg.var == kNotVar) {
        ++bound_args;
      } else if (bound_[arg.var]) {
        ++bound_args;
        best = std::min(best, image_count_[arg.var]);
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
    const AtomSet& target = *target_;
    const ColumnSegment& seg = *pat.segment;
    const TermDictionary& dict = target.dictionary();
    const std::span<const Arg> args = ArgsOf(pat);
    const size_t arity = args.size();
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
      const Arg& arg = args[i];
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
      size_t count = arg.var == kNotVar ? target.CountByTerm(image)
                                        : image_count_[arg.var];
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
    if (options_->forbidden_image_term.has_value()) {
      forbidden_id = dict.Find(*options_->forbidden_image_term);
    }
    auto verify_and_admit = [&](uint32_t row) {
      uint32_t slot = seg.slot(row);
      if (!target.SlotAlive(slot)) return;
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
      out.push_back(&target.SlotAtom(slot));
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
    if (!options_->identity_first || out.size() < 2) return;
    size_t identity_pos = out.size();
    for (size_t j = 0; j < out.size(); ++j) {
      if (IsIdentityCandidate(pat, *out[j])) {
        identity_pos = j;
        break;
      }
    }
    if (identity_pos == out.size() || identity_pos == 0) return;
    const Atom* posting_first = PostingFirstCandidate(
        pat, best_term, best_count <= target.CountByPredicate(pat.predicate));
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
    const AtomSet& target = *target_;
    auto admit = [&](const Atom& cand) {
      return !options_->forbidden_image_term.has_value() ||
             !AtomContains(cand, *options_->forbidden_image_term);
    };
    if (best_term.has_value() && term_beats_predicate) {
      const std::vector<AtomSet::Slot>* posting =
          target.TermPostingSlots(*best_term);
      if (posting == nullptr) return nullptr;
      for (AtomSet::Slot s : *posting) {
        if (!target.SlotAlive(s)) continue;
        const Atom& cand = target.SlotAtom(s);
        if (cand.predicate() == pat.predicate && admit(cand)) return &cand;
      }
      return nullptr;
    }
    const std::vector<AtomSet::Slot>* posting =
        target.PredicatePostingSlots(pat.predicate);
    if (posting == nullptr) return nullptr;
    for (AtomSet::Slot s : *posting) {
      if (!target.SlotAlive(s)) continue;
      const Atom& cand = target.SlotAtom(s);
      if (admit(cand)) return &cand;
    }
    return nullptr;
  }

  bool IsIdentityCandidate(const PatAtom& pat, const Atom& cand) const {
    const std::span<const Arg> args = ArgsOf(pat);
    if (cand.args().size() != args.size()) return false;
    for (size_t i = 0; i < args.size(); ++i) {
      const Arg& arg = args[i];
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
  bool TryUnify(std::span<const Arg> args, const Atom& cand) {
    if (cand.args().size() != args.size()) return false;
    for (size_t i = 0; i < args.size(); ++i) {
      const Arg& arg = args[i];
      Term image = cand.arg(i);
      if (arg.var == kNotVar) {
        if (arg.constant != image) return false;
        continue;
      }
      if (bound_[arg.var]) {
        if (binding_[arg.var] != image) return false;
        continue;
      }
      if (options_->vars_to_vars && image.is_constant()) return false;
      if (options_->injective) {
        if (used_targets_.contains(image)) return false;
        used_targets_.insert(image);
      }
      Bind(arg.var, image);
      // A retraction fixes its image: X ↦ t forces t ↦ t.
      if (retractions_only_ && image.is_variable()) {
        uint32_t fixed = local_of_var_[image.index()];
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
    image_count_[var] = target_->CountByTerm(image);
    trail_.push_back(var);
    if (retractions_only_) CountBinding(var, true);
  }

  // Retraction mode: keeps bound_count_, moved_, frontier_left_ and the
  // touched_ stack in step with one binding of `var` made (`bind`) or
  // undone. binding_[var] holds the image either way. Bindings are undone
  // in reverse trail order, and an unbind walks the occurrences backwards,
  // so an atom whose count returns to 0 is always the top of touched_.
  void CountBinding(uint32_t var, bool bind) {
    const bool moves = binding_[var] != var_terms_[var];
    const uint32_t begin = occurrence_begin_[var];
    const uint32_t end = occurrence_begin_[var + 1];
    for (uint32_t n = 0; n < end - begin; ++n) {
      const uint32_t atom = occurrences_[bind ? begin + n : end - 1 - n];
      if (bind) {
        if (bound_count_[atom]++ == 0) touched_.push_back(atom);
      } else if (--bound_count_[atom] == 0) {
        TWCHASE_CHECK(touched_.back() == atom);
        touched_.pop_back();
      }
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

  // Undoes every binding pushed after `mark` and restores the estimates
  // that Rescore changed since then. Estimates depend only on the binding,
  // so the restored values are what a re-score would compute; a failed
  // TryUnify, which re-scored nothing, restores nothing.
  void RollbackTo(const Mark& mark) {
    for (size_t i = trail_.size(); i > mark.bindings; --i) {
      uint32_t var = trail_[i - 1];
      if (options_->injective) used_targets_.erase(binding_[var]);
      if (retractions_only_) CountBinding(var, false);
      bound_[var] = false;
    }
    trail_.resize(mark.bindings);
    for (size_t i = estimate_trail_.size(); i > mark.estimates; --i) {
      const auto& [atom, estimate] = estimate_trail_[i - 1];
      estimates_[atom] = estimate;
    }
    estimate_trail_.resize(mark.estimates);
  }

  // Re-scores the unassigned atoms that mention a variable of
  // trail_[mark..], recording each old estimate for RollbackTo. Assigned
  // atoms keep the estimate they had when chosen, which is valid again by
  // the time the search unassigns them (every binding below them has been
  // rolled back).
  void Rescore(const Mark& mark) {
    for (size_t i = mark.bindings; i < trail_.size(); ++i) {
      uint32_t var = trail_[i];
      for (uint32_t k = occurrence_begin_[var]; k < occurrence_begin_[var + 1];
           ++k) {
        uint32_t atom = occurrences_[k];
        if (!assigned_[atom]) {
          estimate_trail_.emplace_back(atom, estimates_[atom]);
          estimates_[atom] = EstimateCandidates(pattern_atoms_[atom]);
        }
      }
    }
  }

  // Records one homomorphism: the seed, extended by every bound variable,
  // when collecting. Returns true once the limit is reached.
  bool Emit() {
    ++found_;
    if (collect_) {
      Substitution result = *seed_;
      for (size_t v = 0; v < var_terms_.size(); ++v) {
        if (bound_[v]) result.Bind(var_terms_[v], binding_[v]);
      }
      results_.push_back(std::move(result));
    }
    return limit_ != 0 && found_ >= limit_;
  }

  // Retraction mode: the consistency pass of plan/core_guard.h, run on the
  // seed just bound (trail_[mark..]) before it is searched. Every variable
  // the seed bound gets its image as a one-term domain, and AC-3 runs
  // outward from them along occurrences_: revising an atom keeps, for each
  // of its variables, only the terms that some same-predicate atom of the
  // instance supports (and, for a variable's first domain, whose
  // signature contains the variable's). True iff a domain empties, which
  // refutes the seed.
  //
  // It runs on every seed the signature test keeps, before the first node.
  // Started instead only after a seed's search had passed 2, 4, 16 or
  // 1,024 nodes, it made elevator core no faster at 50 or 300 steps.
  bool SeedInconsistent(const Mark& mark) {
    for (size_t i = mark.bindings; i < trail_.size(); ++i) {
      const uint32_t var = trail_[i];
      SetDomain(var);
      domains_[var].push_back(binding_[var]);
    }
    bool refuted = false;
    for (size_t head = 0; head < queue_.size() && !refuted; ++head) {
      const uint32_t var = queue_[head];
      queued_[var] = 0;
      for (uint32_t k = occurrence_begin_[var];
           k < occurrence_begin_[var + 1] && !refuted; ++k) {
        refuted = !Revise(pattern_atoms_[occurrences_[k]]);
      }
    }
    for (uint32_t var : queue_) queued_[var] = 0;
    queue_.clear();
    for (uint32_t var : domain_vars_) {
      has_domain_[var] = 0;
      domains_[var].clear();
    }
    domain_vars_.clear();
    return refuted;
  }

  // Retraction mode: sig(t), the mask with bit SignatureBit(P, k) set for
  // every live instance atom with predicate P and t at position k. Computed
  // from t's term posting on first use, then kept, by dictionary id, until
  // the instance's generation moves: a stale mask may hold pairs t has
  // lost, and a superset sig(X) would refute a seed that a retraction
  // extends.
  uint64_t SignatureOf(Term t) {
    const AtomSet& instance = *target_;
    const TermId id = instance.dictionary().Find(t);
    if (id == TermDictionary::kNoId) return 0;
    if (id >= signatures_.size()) {
      signatures_.resize(instance.dictionary().size());
    }
    Signature& sig = signatures_[id];
    if (sig.generation == instance.generation()) return sig.mask;
    sig = {0, instance.generation()};
    const std::vector<AtomSet::Slot>* posting = instance.TermPostingSlots(t);
    if (posting == nullptr) return 0;
    for (AtomSet::Slot slot : *posting) {
      if (!instance.SlotAlive(slot)) continue;
      const Atom& atom = instance.SlotAtom(slot);
      for (size_t k = 0; k < atom.arity(); ++k) {
        if (atom.arg(k) == t) sig.mask |= SignatureBit(atom.predicate(), k);
      }
    }
    return sig.mask;
  }

  // The bit of the pair (predicate, position). Pairs of predicates
  // numbered below 8, at positions below 8, never share a bit; a shared bit
  // only weakens the test.
  static uint64_t SignatureBit(PredicateId predicate, size_t position) {
    return uint64_t{1} << ((uint64_t{predicate} * 8 + position) % 64);
  }

  // Gives `var` an (empty) domain and queues it.
  void SetDomain(uint32_t var) {
    has_domain_[var] = 1;
    domain_vars_.push_back(var);
    Enqueue(var);
  }

  void Enqueue(uint32_t var) {
    if (queued_[var]) return;
    queued_[var] = 1;
    queue_.push_back(var);
  }

  // Narrows the domains of `pat`'s variables to the terms that some live
  // instance atom matching `pat` supports: same predicate and arity, equal
  // constants, equal terms under a repeated variable, and every term inside
  // its variable's domain. The candidates come from the term postings of
  // the position with the smallest domain. False iff a domain empties.
  bool Revise(const PatAtom& pat) {
    const std::span<const Arg> args = ArgsOf(pat);
    const size_t arity = args.size();
    size_t driver = arity;
    size_t driver_size = kInfinity;
    for (size_t k = 0; k < arity; ++k) {
      const uint32_t var = args[k].var;
      const size_t size = var == kNotVar ? 1
                          : has_domain_[var] ? domains_[var].size()
                                             : kInfinity;
      if (size < driver_size) {
        driver = k;
        driver_size = size;
      }
    }
    TWCHASE_CHECK(driver < arity);  // the atom has a variable with a domain
    if (supports_.size() < arity) supports_.resize(arity);
    // first_[k]: the first position holding args[k]'s variable.
    first_.resize(arity);
    for (size_t k = 0; k < arity; ++k) {
      supports_[k].clear();
      size_t j = 0;
      while (args[j].var != args[k].var) ++j;
      first_[k] = j;
    }
    auto admit = [&](const Atom& cand) {
      for (size_t k = 0; k < arity; ++k) {
        const Arg& arg = args[k];
        const Term t = cand.arg(k);
        if (arg.var == kNotVar) {
          if (t != arg.constant) return;
        } else if (first_[k] != k) {
          if (cand.arg(first_[k]) != t) return;
        } else if (k != driver && has_domain_[arg.var] &&
                   !std::binary_search(domains_[arg.var].begin(),
                                       domains_[arg.var].end(), t)) {
          return;
        }
      }
      for (size_t k = 0; k < arity; ++k) {
        if (args[k].var != kNotVar && first_[k] == k) {
          supports_[k].push_back(cand.arg(k));
        }
      }
    };
    const AtomSet& target = *target_;
    auto scan_posting = [&](Term t) {
      const std::vector<AtomSet::Slot>* posting = target.TermPostingSlots(t);
      if (posting == nullptr) return;
      for (AtomSet::Slot slot : *posting) {
        if (!target.SlotAlive(slot)) continue;
        const Atom& cand = target.SlotAtom(slot);
        if (cand.predicate() == pat.predicate && cand.arity() == arity &&
            cand.arg(driver) == t) {
          admit(cand);
        }
      }
    };
    const Arg& driver_arg = args[driver];
    if (driver_arg.var == kNotVar) {
      scan_posting(driver_arg.constant);
    } else {
      for (Term t : domains_[driver_arg.var]) scan_posting(t);
    }
    for (size_t k = 0; k < arity; ++k) {
      const uint32_t var = args[k].var;
      if (var == kNotVar || first_[k] != k) continue;
      std::vector<Term>& support = supports_[k];
      std::sort(support.begin(), support.end());
      support.erase(std::unique(support.begin(), support.end()),
                    support.end());
      std::vector<Term>& domain = domains_[var];
      // Both branches write into the domain's own buffer, so buffers keep
      // their capacity across seeds and a warm search allocates nothing.
      if (!has_domain_[var]) {
        SetDomain(var);
        // Unary consistency: a retraction ρ has sig(var) ⊆ sig(ρ(var)).
        const uint64_t need = SignatureOf(var_terms_[var]);
        for (Term t : support) {
          if ((need & ~SignatureOf(t)) == 0) domain.push_back(t);
        }
      } else {
        size_t kept = 0;
        auto next = support.begin();
        for (const Term t : domain) {
          next = std::lower_bound(next, support.end(), t);
          if (next != support.end() && *next == t) domain[kept++] = t;
        }
        if (kept == domain.size()) continue;
        domain.resize(kept);
        Enqueue(var);
      }
      if (domain.empty()) return false;
    }
    return true;
  }

  // The unassigned atom with the fewest candidates, the first in pattern
  // order on ties. While "focus" atoms (those containing the term being
  // folded away) remain, select among them only: the satisfiability crux of
  // a folding search lives there, and deciding it before the bulk of the
  // pattern keeps UNSAT proofs local.
  size_t ChooseAny() const {
    size_t chosen = pattern_atoms_.size();
    size_t best_score = kInfinity;
    for (size_t i = 0; i < pattern_atoms_.size(); ++i) {
      if (assigned_[i]) continue;
      if (remaining_focus_ > 0 && !pattern_atoms_[i].focus) continue;
      size_t score = estimates_[i];
      if (score < best_score) {
        best_score = score;
        chosen = i;
        if (score == 0) break;
      }
    }
    return chosen;
  }

  // Retraction mode: the same choice, argmin (estimate, index), made over
  // the touched atoms only. Every selectable atom has a bound variable, so
  // a node costs O(touched atoms), not O(pattern size).
  size_t ChooseTouched() const {
    size_t chosen = pattern_atoms_.size();
    size_t best_score = kInfinity;
    for (uint32_t i : touched_) {
      if (assigned_[i] || !Selectable(i)) continue;
      const size_t score = estimates_[i];
      if (score < best_score || (score == best_score && i < chosen)) {
        best_score = score;
        chosen = i;
      }
    }
    return chosen;
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
      return Emit();
    }
    const size_t chosen = retractions_only_ ? ChooseTouched() : ChooseAny();
    TWCHASE_CHECK(chosen < pattern_atoms_.size());
    const PatAtom& pat = pattern_atoms_[chosen];
    const std::span<const Arg> args = ArgsOf(pat);
    assigned_[chosen] = true;
    CountAssignment(chosen, true);
    if (pat.focus) --remaining_focus_;
    bool stop = false;
    std::vector<const Atom*>& candidates = candidate_buffers_[remaining];
    JoinCandidates(pat, candidates);
    for (const Atom* cand : candidates) {
      const Mark mark = CurrentMark();
      if (!TryUnify(args, *cand)) {
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

  // What is searched. Transient mode points these at the caller's pattern,
  // target and options for one Run; retraction mode at its instance and
  // retraction_options_ (limit 1, identity first).
  const AtomSet* target_ = nullptr;
  const HomOptions* options_ = nullptr;
  const Substitution* seed_ = nullptr;
  size_t limit_ = 1;
  bool collect_ = true;
  HomOptions retraction_options_;

  // The compiled pattern: atoms in slot order, their arguments in one
  // array, and the local variable table. local_of_var_ maps a variable's
  // vocabulary index to its local index (kNotVar when it is not in the
  // pattern); Clear resets exactly the entries of var_terms_.
  std::vector<PatAtom> pattern_atoms_;
  std::vector<Arg> args_;
  std::vector<Term> var_terms_;
  std::vector<uint32_t> local_of_var_;
  std::vector<uint32_t> occurrence_begin_;  // per variable, into occurrences_
  std::vector<uint32_t> occurrences_;       // atoms mentioning each variable
  std::vector<uint32_t> fill_;              // FinishCompile's CSR cursor

  std::vector<Term> binding_;  // indexed by local variable
  std::vector<char> bound_;
  // CountByTerm(binding_[v]) for every bound v, cached when v is bound.
  std::vector<size_t> image_count_;
  std::vector<char> assigned_;
  // estimates_[i] == EstimateCandidates(pattern_atoms_[i]) for every
  // unassigned atom; kept current by Rescore on each bind and restored by
  // RollbackTo on each unbind.
  std::vector<size_t> estimates_;
  // (atom, estimate before a Rescore), undone by RollbackTo.
  std::vector<std::pair<uint32_t, size_t>> estimate_trail_;
  std::vector<std::vector<const Atom*>> candidate_buffers_;  // per depth
  size_t remaining_focus_ = 0;
  std::vector<uint32_t> trail_;
  std::unordered_set<Term, TermHash> used_targets_;
  std::vector<Substitution> results_;
  size_t found_ = 0;  // homomorphisms found by the current Run or query

  // Retraction mode: only idempotent maps. Per atom: its distinct
  // variables, how many are bound, and how many are bound to a term other
  // than themselves (moved). frontier_left_ counts the unassigned atoms
  // with a moved variable.
  bool retractions_only_ = false;
  std::vector<uint32_t> var_count_;
  std::vector<uint32_t> bound_count_;
  std::vector<uint32_t> moved_;
  size_t frontier_left_ = 0;
  // The atoms with bound_count_ > 0, in the order their count left 0.
  std::vector<uint32_t> touched_;
  std::vector<Arg> seed_args_;  // BindSeed's compiled seed atom, reused
  uint64_t compiled_generation_ = 0;  // the instance's, at the last Sync
  // SignatureOf's cache, by dictionary id: an entry is valid iff its
  // generation is the instance's.
  struct Signature {
    uint64_t mask = 0;
    uint64_t generation = std::numeric_limits<uint64_t>::max();
  };
  std::vector<Signature> signatures_;
  // SeedInconsistent's state, emptied after each pass: per variable a
  // sorted domain (meaningful iff has_domain_), the AC-3 queue, and
  // Revise's per-position scratch (supported terms, first occurrence of
  // the position's variable).
  std::vector<std::vector<Term>> domains_;
  std::vector<char> has_domain_;
  std::vector<uint32_t> domain_vars_;
  std::vector<char> queued_;
  std::vector<uint32_t> queue_;
  std::vector<std::vector<Term>> supports_;
  std::vector<size_t> first_;
  uint64_t nodes_ = 0;  // search nodes not yet folded into counters_
  MatchCounters* counters_ = nullptr;
  // JoinCandidates per-position plan, reused across nodes so the hot path
  // allocates nothing after warm-up.
  std::vector<uint8_t> col_bound_;
  std::vector<TermId> col_ids_;
  std::vector<uint32_t> col_vars_;
};

// The most a thread's spare HomSearch keeps between searches. Searches of
// rule bodies, queries and the cores of chase-sized instances fit; a search
// over a larger pattern or target gives its buffers back when it ends, so
// one large job does not pin its peak search memory in every thread that
// ran it.
constexpr size_t kSpareSearchBytes = size_t{256} << 10;

// Runs one transient search on the thread's spare HomSearch, so that its
// buffers outlive the search unless they have grown past
// kSpareSearchBytes. A search started while the spare is out (none does
// today) gets a fresh one.
template <typename Fn>
auto WithSpareSearch(Fn fn) {
  thread_local std::unique_ptr<HomSearch> spare;
  std::unique_ptr<HomSearch> search =
      spare != nullptr ? std::move(spare) : std::make_unique<HomSearch>();
  auto out = fn(*search);
  if (search->RetainedBytes() <= kSpareSearchBytes) spare = std::move(search);
  return out;
}

// First homomorphism or existence only (`collect` off), never more than
// `limit`.
std::vector<Substitution> RunSearch(const AtomSet& pattern,
                                    const AtomSet& target,
                                    const HomOptions& options,
                                    const Substitution& seed, size_t limit,
                                    bool collect, bool* found = nullptr) {
  return WithSpareSearch([&](HomSearch& search) {
    search.Compile(pattern, target, options, seed, limit, collect);
    std::vector<Substitution> results = search.Run();
    if (found != nullptr) *found = search.found();
    return results;
  });
}

bool ExistsHomomorphismSeeded(const AtomSet& pattern, const AtomSet& target,
                              const Substitution& seed) {
  static const HomOptions kDefaults;
  bool found = false;
  RunSearch(pattern, target, kDefaults, seed, 1, /*collect=*/false, &found);
  return found;
}

}  // namespace

std::vector<Substitution> FindAllHomomorphisms(const AtomSet& pattern,
                                               const AtomSet& target,
                                               const HomOptions& options) {
  return RunSearch(pattern, target, options, options.seed, options.limit,
                   /*collect=*/true);
}

std::optional<Substitution> FindHomomorphism(const AtomSet& pattern,
                                             const AtomSet& target) {
  return FindHomomorphism(pattern, target, HomOptions{});
}

std::optional<Substitution> FindHomomorphism(const AtomSet& pattern,
                                             const AtomSet& target,
                                             const HomOptions& options) {
  auto results = RunSearch(pattern, target, options, options.seed, 1,
                           /*collect=*/true);
  if (results.empty()) return std::nullopt;
  return std::move(results.front());
}

bool ExistsHomomorphism(const AtomSet& pattern, const AtomSet& target) {
  return ExistsHomomorphismSeeded(pattern, target, Substitution());
}

bool ExistsHomomorphismExtending(const AtomSet& pattern, const AtomSet& target,
                                 const Substitution& seed) {
  return ExistsHomomorphismSeeded(pattern, target, seed);
}

class RetractionSearch::Impl {
 public:
  explicit Impl(const AtomSet& instance) { search_.BindRetractions(instance); }

  bool MapsOnto(const Atom& from, const Atom& onto) {
    return search_.ExistsRetractionOnto(from, onto);
  }

  bool RefutedByConsistency(const Atom& from, const Atom& onto) {
    return search_.RefutesRetractionOnto(from, onto);
  }

  bool RefutedBySignature(const Atom& from, const Atom& onto) {
    return search_.SignatureRefutes(from, onto);
  }

 private:
  HomSearch search_;
};

RetractionSearch::RetractionSearch(const AtomSet& instance)
    : impl_(std::make_unique<Impl>(instance)) {}

RetractionSearch::~RetractionSearch() = default;

bool RetractionSearch::MapsOnto(const Atom& from, const Atom& onto) {
  return impl_->MapsOnto(from, onto);
}

bool RetractionSearch::RefutedByConsistency(const Atom& from,
                                            const Atom& onto) {
  return impl_->RefutedByConsistency(from, onto);
}

bool RetractionSearch::RefutedBySignature(const Atom& from, const Atom& onto) {
  return impl_->RefutedBySignature(from, onto);
}

}  // namespace twchase
