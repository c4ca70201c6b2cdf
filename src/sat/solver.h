// Conflict-driven clause learning (CDCL) SAT solver.
//
// This is the repository's stand-in for MiniSat [19], which the paper's
// IsValid uses to decide whether a specification Se has a valid completion.
// The architecture is a MiniSat-style incremental CDCL: two-watched-literal
// propagation with a dedicated implicit watch list for binary clauses
// (binaries never touch the clause arena — the currency-order and CFD
// encodings are dominated by binary implications), 1-UIP conflict analysis
// with one-step clause minimization, an activity-sorted learnt database,
// Luby restarts, VSIDS decision ordering, phase saving, a small pool of
// recent models that answers assumption solves without search, and
// incremental solving under assumptions (used by the per-pair Lemma-6
// loop and by validity's and Deduce's fallbacks for a non-Horn formula).
//
// Besides clauses the solver takes order blocks (SyncOrderBlock): the
// transitivity axioms ¬x_ij ∨ ¬x_jk ∨ x_ik of each currency order, kept
// implicit (lazy clause generation). A closure propagator applies their
// unit rules from the block's variable matrix during propagation, so
// propagation is exactly as strong as with the ternaries written out;
// a ternary becomes a real clause only when it is the reason of an
// implication or a conflict. Models are always transitively closed.
//
// Φ(Se) is Horn and the pipeline never reaches a conflict: validity and
// the Lemma-6 Deduce are decided by one propagation probe (BeginProbe),
// GetSug by one probe on the whole clique or else a search over probes
// extended rule by rule (ProbeExtend), so no phase makes a solve.
// The search heuristics are therefore fixed, not options: VSIDS, phase
// saving, Luby restarts, learnt-clause deletion and their decay factors
// are constants, and a solve runs to a verdict (no conflict budget).
// SolverOptions keeps only the whole-formula passes — WalkSAT seeding,
// between-round inprocessing (vivification, subsumption), both off by
// default — and the arena collector. Because the pipeline above consumes
// only SAT/UNSAT verdicts, every option combination resolves every entity
// identically.

#ifndef CCR_SAT_SOLVER_H_
#define CCR_SAT_SOLVER_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/sat/cnf.h"
#include "src/sat/literal.h"

namespace ccr::sat {

/// Solver settings. Every pipeline session runs the defaults: the CDCL
/// core with every whole-formula pass off (see the file comment); tests
/// turn the passes on to hold them to byte parity with the defaults.
struct SolverOptions {
  /// Inprocessing in Simplify(): clause vivification and backward
  /// subsumption / self-subsuming resolution over the problem clauses.
  /// Intended between session rounds, after the encode layer appended the
  /// round's delta. Off (the default) = Simplify only sweeps satisfied
  /// clauses; on Φ(Se) the passes never fire (0 subsumed, 0 vivified).
  bool use_inprocessing = false;
  /// Compacting arena garbage collection: once the words owned by dead
  /// clauses (removed, subsumed, shrunk) exceed gc_frac of the arena, live
  /// clauses relocate into a fresh arena and every ClauseRef holder —
  /// watch lists, reason slots, the learnt list, the occurrence index — is
  /// rewritten. Triggered from Simplify() and after learnt-DB reductions;
  /// list and watcher order is preserved, so GC changes memory and time
  /// only, never a verdict or a model. 0 compacts at every chance; 1
  /// never does (dead words never exceed the arena).
  double gc_frac = 0.25;
  /// Stochastic local search (WalkSAT) as a warm start: before CDCL
  /// search, a budgeted local-search pass (Solver::SeedFromLocalSearch)
  /// installs its best assignment into the saved-phase array, and — when
  /// the assignment satisfies every problem clause — pushes it into the
  /// cached-model ring as a genuine witness. It may only change
  /// time-to-verdict, never a verdict. Off by default: on the Horn
  /// pipeline formula validity is decided by propagation (IsValidShared),
  /// so a warm start buys nothing.
  bool use_sls_seeding = false;
};

/// Outcome of a solve call. Solve and SolveWithAssumptions always return
/// kSat or kUnsat: there is no conflict budget, so a solve runs to its
/// verdict. kUnknown is internal — the search loop's restart signal.
enum class SolveResult { kSat, kUnsat, kUnknown };

/// Solver statistics (cumulative across Solve calls).
struct SolverStats {
  int64_t conflicts = 0;
  int64_t decisions = 0;
  int64_t propagations = 0;
  int64_t restarts = 0;
  int64_t learnt_literals = 0;
  /// Solve calls that carried at least one assumption. With one solver
  /// persisting across pipeline phases and rounds, this is the count of
  /// conditional queries answered without copying or rebuilding anything.
  int64_t assumption_solves = 0;
  /// Literals enqueued from the implicit binary watch lists (a subset of
  /// the implications behind `propagations`, which counts trail literals
  /// processed).
  int64_t binary_propagations = 0;
  /// Inprocessing: problem clauses removed by backward subsumption plus
  /// literals removed by self-subsuming resolution.
  int64_t subsumed = 0;
  /// Inprocessing: literals removed from problem clauses by vivification.
  int64_t vivified = 0;
  /// Assumption solves answered from the cached-model pool without any
  /// search.
  int64_t model_cache_hits = 0;
  /// Arena garbage collections run, and the arena words they reclaimed
  /// (gc_frac).
  int64_t gc_runs = 0;
  int64_t gc_reclaimed_words = 0;
  /// Top-level sweeps run: Simplify() calls, whether made directly or
  /// scheduled by MaybeSimplify().
  int64_t sweeps = 0;
  /// Learnt-database reductions (ReduceDb): each drops the less active
  /// half of the learnt clauses. Only CDCL search reaches one.
  int64_t reductions = 0;
  /// Stochastic local search: flips performed across all
  /// SeedFromLocalSearch calls, and fully satisfying assignments pushed
  /// into the cached-model ring (use_sls_seeding).
  int64_t sls_flips = 0;
  int64_t sls_seeded_models = 0;
  /// Solver calls issued by the Deduce phase (reported by
  /// src/core/deduce.cc via RecordDeduce): the per-pair Lemma-6 loop's
  /// validity solve plus one SolveWithAssumptions per pair. Deduce by
  /// propagation on a Horn formula issues none.
  int64_t deduce_queries = 0;
  /// GetSug work (reported by src/core/suggest.cc via RecordSuggest):
  /// propagation probes opened.
  int64_t suggest_probes = 0;
  /// Deduce by propagation (reported by src/core/deduce.cc via
  /// RecordDeduceProbe): probes opened, and calls that fell back to a
  /// reference — the counter-based DeduceOrder on the fast pipeline, the
  /// per-pair Lemma-6 loop on the naive one.
  int64_t deduce_probes = 0;
  int64_t deduce_fallbacks = 0;

  /// Component-wise difference (for per-call and per-phase deltas).
  SolverStats operator-(const SolverStats& o) const {
    return {conflicts - o.conflicts,
            decisions - o.decisions,
            propagations - o.propagations,
            restarts - o.restarts,
            learnt_literals - o.learnt_literals,
            assumption_solves - o.assumption_solves,
            binary_propagations - o.binary_propagations,
            subsumed - o.subsumed,
            vivified - o.vivified,
            model_cache_hits - o.model_cache_hits,
            gc_runs - o.gc_runs,
            gc_reclaimed_words - o.gc_reclaimed_words,
            sweeps - o.sweeps,
            reductions - o.reductions,
            sls_flips - o.sls_flips,
            sls_seeded_models - o.sls_seeded_models,
            deduce_queries - o.deduce_queries,
            suggest_probes - o.suggest_probes,
            deduce_probes - o.deduce_probes,
            deduce_fallbacks - o.deduce_fallbacks};
  }

  /// Component-wise sum (for pooling per-phase deltas across rounds and
  /// entities).
  SolverStats& operator+=(const SolverStats& o) {
    conflicts += o.conflicts;
    decisions += o.decisions;
    propagations += o.propagations;
    restarts += o.restarts;
    learnt_literals += o.learnt_literals;
    assumption_solves += o.assumption_solves;
    binary_propagations += o.binary_propagations;
    subsumed += o.subsumed;
    vivified += o.vivified;
    model_cache_hits += o.model_cache_hits;
    gc_runs += o.gc_runs;
    gc_reclaimed_words += o.gc_reclaimed_words;
    sweeps += o.sweeps;
    reductions += o.reductions;
    sls_flips += o.sls_flips;
    sls_seeded_models += o.sls_seeded_models;
    deduce_queries += o.deduce_queries;
    suggest_probes += o.suggest_probes;
    deduce_probes += o.deduce_probes;
    deduce_fallbacks += o.deduce_fallbacks;
    return *this;
  }
};

/// Outcome of Solver::SeedFromLocalSearch.
struct LocalSearchResult {
  /// False when the search could not run at all: the solver is already
  /// UNSAT, or the assumptions contradict each other / the level-0 trail.
  bool ran = false;
  /// The best assignment satisfies every live problem clause and is
  /// transitively closed on every order block (together with the level-0
  /// trail it is then a genuine model).
  bool feasible = false;
  /// Problem clauses, explicit or implicit in an order block, left
  /// unsatisfied by the best assignment.
  int hard_unsat = 0;
  /// Best assignment per variable; a genuine model when `feasible`.
  std::vector<uint8_t> model;
};

/// \brief Incremental CDCL solver.
///
/// Typical use:
///   Solver s;
///   s.AddCnf(phi);
///   if (s.Solve() == SolveResult::kSat) { ... s.ModelValue(v) ... }
///
/// Clauses may be added between Solve calls; assumptions make a solve
/// conditional without permanently asserting the literals.
class Solver {
 public:
  explicit Solver(SolverOptions options = {});
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Allocates a fresh variable.
  Var NewVar();
  int num_vars() const { return static_cast<int>(assigns_.size()); }

  /// Adds a clause, growing the variable universe to its variables.
  /// Returns false if the solver is already in an unsatisfiable state
  /// (empty clause derived at level 0).
  bool AddClause(std::vector<Lit> lits);

  /// Grows the variable universe to at least `n` variables.
  void EnsureVars(int n) { GrowVars(n); }

  /// The one clause-add path, shared by FeedClause, AddClause, AddCnfFrom
  /// and the encoding pass that loads Φ(Se) straight from its grounding
  /// (LoadSolver in src/encode/cnf_builder.h). Adds, at decision level 0,
  /// the clause whose literals `emit(add)` hands to `add` one at a time;
  /// their variables must exist. `add` returns false once a literal true
  /// at level 0 satisfies the clause, and the emitter may stop there.
  /// The literals are normalized as they arrive, in one reused buffer, so
  /// a batch allocates nothing per clause: literals false at level 0
  /// drop, the rest are insertion-sorted (clauses are short), then
  /// duplicates drop and a tautology is satisfied. A unit is enqueued and
  /// propagated at once; long clauses keep their literals sorted. Returns
  /// false once the solver is unsatisfiable.
  template <class EmitFn>
  bool FeedClauseFrom(EmitFn emit);
  /// FeedClauseFrom over the literals `lits`.
  bool FeedClause(std::span<const Lit> lits) {
    return FeedClauseFrom([&](auto add) {
      for (const Lit l : lits) {
        if (!add(l)) return;
      }
    });
  }

  /// Registers an order block of `size` values whose x_ij is `var(i, j)`,
  /// or grows the registered block it extends; a `size` below 2 has no
  /// variables and registers nothing. A block is recognised by its x_01:
  /// one the solver already holds in a block extends that block, whose
  /// existing entries keep their variables; any other is new. Only the
  /// new entries are read. Their variables must exist, belong to no block
  /// yet and still be unassigned (checked). Decision level 0.
  template <class VarFn>
  void SyncOrderBlock(int size, VarFn var);

  /// Adds every clause of `cnf`, growing the variable universe as needed.
  void AddCnf(const Cnf& cnf) { AddCnfFrom(cnf, 0); }

  /// Adds the clauses of `cnf` starting at index `first_clause`, for a
  /// caller that keeps one solver alive while its CNF grows append-only:
  /// only the new suffix is fed, each clause through FeedClause. Every
  /// order block of `cnf` is synced first (SyncOrderBlock), whatever
  /// `first_clause` is, so the level-0 units among the clauses already
  /// propagate through the blocks.
  void AddCnfFrom(const Cnf& cnf, int first_clause);

  /// Decides satisfiability of the accumulated clauses.
  SolveResult Solve() { return SolveInternal({}); }

  /// Decides satisfiability under the given assumption literals. The
  /// assumptions hold for this call only — nothing is permanently
  /// asserted, which is what lets one persistent solver answer every
  /// phase of a ResolutionSession (validity, deduction, suggestion)
  /// without copying CNF.
  SolveResult SolveWithAssumptions(std::span<const Lit> assumptions) {
    return SolveInternal(assumptions);
  }
  SolveResult SolveWithAssumptions(std::initializer_list<Lit> assumptions) {
    return SolveInternal(
        std::span<const Lit>(assumptions.begin(), assumptions.size()));
  }

  /// Model access after kSat. Precondition: last solve returned kSat.
  bool ModelValue(Var v) const { return model_[v] == Lbool::kTrue; }
  Lbool ModelLbool(Var v) const { return model_[v]; }

  /// After kUnsat under assumptions: a subset of the assumptions that is
  /// already jointly inconsistent with the clauses (an unsat "core").
  const std::vector<Lit>& FailedAssumptions() const { return conflict_core_; }

  const SolverStats& stats() const { return stats_; }
  const SolverOptions& options() const { return options_; }

  /// Statistics of the most recent Solve/SolveWithAssumptions call alone.
  /// With one solver shared across pipeline phases (validity, deduction,
  /// suggestion) the cumulative counters blend phases together; the
  /// per-call delta keeps phase attribution meaningful.
  const SolverStats& last_call_stats() const { return last_call_; }

  /// Top-level simplification: propagates any pending level-0 facts,
  /// detaches problem and learnt clauses already satisfied at level 0,
  /// prunes binary entries over fixed variables, and — when
  /// options.use_inprocessing is set — runs the inprocessing passes
  /// (backward subsumption / self-subsuming resolution, then clause
  /// vivification) over the problem clauses, then collects the arena once
  /// its dead fraction crosses gc_frac. An unconditional full pass, whose
  /// cost is proportional to the whole clause database; a caller that
  /// simplifies after every small extension wants MaybeSimplify(). Both
  /// inprocessing passes are equivalence-preserving, so every verdict the
  /// solver produces afterwards is unchanged. Returns false if the solver
  /// is (now) unsatisfiable.
  bool Simplify();

  /// Simplify() on a schedule: always propagates pending level-0 facts,
  /// but runs the full pass only when the level-0 trail has grown since
  /// the last one (there is something new to sweep) and the pass has
  /// been paid for, by either of
  ///   * search: long plus binary propagations since the last sweep have
  ///     reached the arena's size in words — MiniSat's simplify() rule
  ///     (Eén & Sörensson, "An Extensible SAT-solver", SAT 2003);
  ///   * memory: each call adds the clauses known satisfied at level 0
  ///     since the last sweep (the watchers of the new facts, counted
  ///     once per fact) to a running total, and the pass runs once that
  ///     total reaches the number of long clauses — satisfied clauses
  ///     are held only until holding them has cost as much as dropping
  ///     them (ski rental), which keeps a long session's arena within a
  ///     bounded number of rounds of its live clause set.
  /// ResolutionSession calls it after every extension, so an answer costs
  /// what it adds rather than a pass over the whole entity. Sweeping
  /// later changes no verdict: a clause satisfied at level 0 never
  /// propagates. Returns false if the solver is (now) unsatisfiable.
  bool MaybeSimplify();

  /// Declares the problem clauses loaded so far the inprocessing
  /// baseline: they will not be re-distilled or self-subsumed; future
  /// Simplify() calls inprocess only the clauses appended afterwards (the
  /// session rounds' deltas) against the whole DB. ResolutionSession
  /// calls this once after loading Φ(Se) when use_inprocessing is on —
  /// distilling a freshly
  /// generated, canonical encoding wholesale costs more propagation than
  /// every solve of the session combined. Without priming, the first
  /// Simplify() primes implicitly (vivification) and the whole formula
  /// acts as its own subsumer set under the step budget.
  void PrimeInprocessing();

  /// True if unsatisfiability was established independent of assumptions.
  bool IsUnsatForever() const { return !ok_; }

  /// True when every live problem clause has at most one positive
  /// literal, i.e. the formula is Horn. Then a conflict-free propagation
  /// fixpoint extends to a model (assign every open variable false), so
  /// propagation alone decides satisfiability (IsValidShared). Tracked as
  /// clauses are added: only the non-Horn ones are remembered, and each
  /// stops counting once it is satisfied at level 0. Learnt clauses are
  /// implied and never count. Must be called at decision level 0.
  bool ProblemIsHorn();

  /// \brief WalkSAT-style local search run directly on the solver's own
  /// clause arena and binary watch lists (no CNF copy; scratch buffers
  /// are pooled on the solver and reused across calls).
  ///
  /// Variables fixed on the level-0 trail or named by `assumptions` never
  /// flip; the search covers exactly the live problem clauses not already
  /// satisfied by those fixings. Unless a cached model already satisfies
  /// the assumptions, a Horn formula (ProblemIsHorn) starts from its least
  /// model under them (one BeginProbe, open variables false), which is a
  /// model; any other formula starts from the saved phases. The best
  /// assignment found is installed into the saved-phase array (biasing
  /// the next CDCL descent toward it), and when it satisfies every
  /// problem clause it is pushed into the cached-model ring as a genuine
  /// witness. The flip budget scales with the free-variable count
  /// (capped); it runs 2 tries at WalkSAT noise 0.5. Deterministic: the
  /// RNG is seeded from a per-call salt (reset by Reset()) — never
  /// wall-clock or global state. Must be called at decision level 0.
  /// Verdict-neutral by construction: phases and cached models only steer
  /// search time.
  LocalSearchResult SeedFromLocalSearch(std::span<const Lit> assumptions = {});

  /// Deduce-phase reporting (src/core/deduce.cc): entailment solver
  /// calls issued. Folded into stats_ so RoundTrace per-phase deltas pick
  /// the counter up with no extra plumbing.
  void RecordDeduce(int64_t queries) { stats_.deduce_queries += queries; }

  /// GetSug reporting (src/core/suggest.cc): propagation probes opened.
  /// Folded into stats_ like RecordDeduce.
  void RecordSuggest(int64_t probes) { stats_.suggest_probes += probes; }

  /// Deduce-by-propagation reporting (src/core/deduce.cc): probes opened,
  /// and whether the call fell back to its reference. Folded into stats_
  /// like RecordSuggest.
  void RecordDeduceProbe(int64_t probes, bool fallback) {
    stats_.deduce_probes += probes;
    if (fallback) ++stats_.deduce_fallbacks;
  }

  /// \name Propagation-only probing (no search, no learning)
  ///
  /// BeginProbe backtracks to level 0, opens ONE decision level, enqueues
  /// `base` (typically the guard assumptions) and propagates it to
  /// fixpoint. While the probe is open, ProbeValue reads the propagated
  /// value of a variable — kTrue means base ∪ Φ unit-implies it. On a
  /// Horn formula (ProblemIsHorn) the quiet fixpoint is the least model
  /// of Φ ∧ base, so the probe decides validity (IsValidShared) and every
  /// Lemma-6 entailment at once (NaiveDeduceShared). Nothing is learnt
  /// and nothing is analyzed; the only side effect is phase saving, which
  /// never moves a verdict. EndProbe backtracks to level 0. BeginProbe
  /// returns false (and leaves the solver at level 0) when `base` is
  /// already propagation-refuted.
  ///
  /// ProbeExtend enqueues `extra` on the open probe's level and
  /// propagates to fixpoint again, so Begin(base) + Extend(extra) reaches
  /// the fixpoint of Begin(base ∪ extra). On a conflict (an extra literal
  /// already false, or propagation refuting it) it returns false and
  /// closes the probe: the solver is back at level 0. ProbeTrail is the
  /// open probe's assignment in propagation order — the level-0 facts,
  /// then everything the probe added; the span is invalidated by the next
  /// ProbeExtend.
  /// @{
  bool BeginProbe(std::span<const Lit> base);
  bool ProbeExtend(std::span<const Lit> extra);
  Lbool ProbeValue(Var v) const { return assigns_[v]; }
  std::span<const Lit> ProbeTrail() const { return trail_; }
  void EndProbe();
  /// @}

  /// Debug/test accessor: every learnt clause currently in the database,
  /// plus every binary clause ever learnt into the implicit
  /// binary watch lists. Each returned clause is implied by the problem
  /// clauses — the learnt-implication regression suite re-solves to check
  /// exactly that.
  std::vector<std::vector<Lit>> LearntClauses() const;

  /// Restores the solver to its freshly-constructed state — no variables,
  /// no clauses, zeroed statistics, `options` applied — while keeping the
  /// heap allocations (clause arena, watch lists, trail, per-variable
  /// arrays) it has grown so far. A Reset solver is observably identical
  /// to `Solver(options)`: same decisions, same models, same statistics on
  /// the same input. SessionScratch uses it to recycle one solver across
  /// back-to-back ResolutionSessions without re-allocating from cold.
  ///
  /// Reset costs the variables of the session it ends, not the largest
  /// universe the solver ever held: a watch, binary or occurrence list
  /// past num_vars() is always empty (nothing is ever attached to a
  /// variable that does not exist yet, and Reset empties the lists of
  /// every variable that did), so only the first num_vars() variables'
  /// lists are cleared. The variable universe then regrows in one step
  /// per batch, which re-adopts the emptied lists with their buffers.
  void Reset(SolverOptions options = {});

  /// Compacts the clause arena: live clauses move into a fresh arena and
  /// every ClauseRef holder — watch lists, reason slots, the learnt
  /// list, the occurrence index — is rewritten to the relocated
  /// references. (The cached-model pool holds no references, only
  /// per-variable values, so it survives untouched.) Runs automatically
  /// under SolverOptions::gc_frac; public so tests and
  /// benches can force a relocation. Order inside every clause list and
  /// watch list is preserved, which makes the collection search-neutral:
  /// every later decision, propagation and verdict is identical to a run
  /// that never collected.
  void GarbageCollect();

  /// Term i (from 0) of the Luby restart sequence 1 1 2 1 1 2 4 1 1 2 1 1
  /// 2 4 8 …, which scales the restart budget.
  static int64_t Luby(int64_t i);

  /// Transitivity axioms of the order blocks turned into problem clauses
  /// so far (each one the reason of an implication or a conflict).
  int64_t materialized_axioms() const {
    return static_cast<int64_t>(num_materialized_);
  }

  /// Arena occupancy in 32-bit words: current size, size minus the dead
  /// words awaiting collection, and the lifetime high-water mark. The
  /// long-lived-session soak asserts arena_words() stays within a small
  /// factor of arena_live_words() when the GC is on.
  size_t arena_words() const { return arena_.size(); }
  size_t arena_live_words() const { return arena_.size() - arena_dead_words_; }
  size_t arena_peak_words() const { return arena_peak_words_; }
  /// Bytes of the order blocks' value mirror. A block that outgrows its
  /// region leaves it behind until Reset, but regions at least double, so
  /// the dead bytes stay below the live ones.
  size_t order_value_bytes() const { return order_value_.size(); }

 private:
  // --- clause arena ----------------------------------------------------
  //
  // Arena layout per clause: [size<<3 | vivified<<2 | dead<<1 |
  // learnt][activity bits / sig lo][sig hi][lits...]. `dead` marks
  // clauses removed by deletion or inprocessing (already detached; their
  // words are accounted in arena_dead_words_ and reclaimed by
  // GarbageCollect); `vivified` marks clauses the vivification pass has
  // already distilled, so later passes skip them until a strengthening
  // changes them again. Learnt clauses use word 1 for their activity;
  // problem clauses never do, so the subsumption pass stores their
  // 64-bit variable signature in words 1–2 instead.
  //
  // Reason encoding: a reason is either an arena reference (< 2^31 —
  // checked at allocation), the literal-encoded reason of a binary
  // implication (bit 31 set, low bits the OTHER, false literal of the
  // binary clause), kRefBinConflict (a binary conflict, the two literals
  // in bin_conflict_), or kRefUndef.
  using ClauseRef = uint32_t;
  static constexpr ClauseRef kRefUndef = UINT32_MAX;
  static constexpr ClauseRef kRefBinConflict = UINT32_MAX - 1;
  static constexpr ClauseRef kRefBinaryFlag = 0x80000000u;

  static bool RefIsBinary(ClauseRef r) {
    return r >= kRefBinaryFlag && r < kRefBinConflict;
  }
  static ClauseRef MakeBinaryRef(Lit other) {
    return kRefBinaryFlag | static_cast<uint32_t>(other.index());
  }
  static Lit RefLit(ClauseRef r) {
    return Lit::FromIndex(static_cast<int32_t>(r & ~kRefBinaryFlag));
  }

  ClauseRef AllocClause(std::span<const Lit> lits, bool learnt);
  int ClauseSize(ClauseRef c) const { return arena_[c] >> 3; }
  bool ClauseLearnt(ClauseRef c) const { return arena_[c] & 1; }
  bool ClauseDead(ClauseRef c) const { return arena_[c] & 2; }
  void MarkClauseDead(ClauseRef c) {
    if (!(arena_[c] & 2)) {
      arena_dead_words_ += 3 + static_cast<size_t>(ClauseSize(c));
      arena_[c] |= 2;
    }
  }
  bool ClauseVivified(ClauseRef c) const { return arena_[c] & 4; }
  void SetClauseVivified(ClauseRef c, bool on) {
    if (on) {
      arena_[c] |= 4;
    } else {
      arena_[c] &= ~4u;
    }
  }
  void SetClauseSize(ClauseRef c, int size) {
    arena_[c] = (static_cast<uint32_t>(size) << 3) | (arena_[c] & 7);
  }
  Lit* ClauseLits(ClauseRef c) {
    return reinterpret_cast<Lit*>(&arena_[c + 3]);
  }
  const Lit* ClauseLits(ClauseRef c) const {
    return reinterpret_cast<const Lit*>(&arena_[c + 3]);
  }
  // Activity is a float stored in a uint32_t arena word; std::bit_cast is
  // the strict-aliasing-clean way to view it (a reinterpret_cast through
  // float* here is UB under -fstrict-aliasing).
  float ClauseActivity(ClauseRef c) const {
    return std::bit_cast<float>(arena_[c + 1]);
  }
  void SetClauseActivity(ClauseRef c, float a) {
    arena_[c + 1] = std::bit_cast<uint32_t>(a);
  }
  // Problem-clause variable signature (Bloom filter over var % 64),
  // cached in the unused header words at AddClause and kept fresh
  // on every strengthening, so the subsumption pass never rebuilds it.
  uint64_t ClauseSig(ClauseRef c) const {
    return arena_[c + 1] | (static_cast<uint64_t>(arena_[c + 2]) << 32);
  }
  void StoreClauseSig(ClauseRef c);

  struct Watcher {
    ClauseRef cref;
    Lit blocker;
  };

  // --- order blocks -----------------------------------------------------
  //
  // The implicit transitivity axioms ¬x_ij ∨ ¬x_jk ∨ x_ik of each Cnf
  // order block. Propagate runs PropagateOrder on every order literal
  // after its watch list: exactly the unit propagation of the ternaries
  // that contain it (closure, both contrapositives, conflicts). A ternary
  // that implies a literal above level 0, or that is falsified, is then
  // materialized once — allocated as a permanent problem clause, attached
  // and used as the reason — so Analyze, GC, Simplify and ProblemIsHorn
  // see an ordinary clause. After that the watches propagate it and
  // PropagateOrder skips it. A materialized axiom is implied by the
  // block, so it leaves the model cache valid.
  //
  // The blocks' current values live in order_value_, one byte per atom:
  // each block has a row-major region (x_ik at rows + i·stride + k) and a
  // transposed one (x_ki at cols + i·stride + k) of stride×stride bytes,
  // rows padded to whole 64-bit words, the diagonal and the padding
  // reading as true. A block grows in place up to `stride` values. Every
  // order variable knows its two bytes (order_bytes_), so enqueue and
  // backtrack cost two byte stores. PropagateOrder scans the rows and
  // columns of i and j eight values k per word for the ternaries that
  // may be unit or falsified, O(size / 8) words per literal; the hits
  // go through OrderBlock::PropagateAxioms.
  struct OrderBlockState {
    OrderBlock block;     // size and variable matrix, as in Cnf
    int stride = 0;       // capacity, a multiple of 8 and >= block.size
    uint32_t rows = 0;    // offsets into order_value_
    uint32_t cols = 0;
  };
  // Per variable: its two value bytes, which every enqueue and backtrack
  // reads (kept apart from the variable's OrderPos, which only
  // PropagateOrder and registration need).
  struct OrderBytes {
    static constexpr uint32_t kNone = UINT32_MAX;
    uint32_t row = kNone;  // x_ij's byte in its block's row region
    uint32_t col = 0;      // and in the transposed region
  };
  // FeedClauseFrom's tail: the `n` open literals in add_buf_, sorted, lose
  // their duplicates (a tautology is satisfied); the clause is then
  // enqueued, attached as a binary or allocated.
  bool AttachNormalized(size_t n);
  // SyncOrderBlock's non-template parts: the index of the block holding
  // `x01`, or of a new empty one; and, once block b has grown from `old`
  // values, the checks and value bytes of its new entries.
  int OrderBlockOf(Var x01);
  void RegisterOrderEntries(int b, int old);
  ClauseRef PropagateOrder(Lit p);
  // PropagateOrder's slow path: applies the ternaries of word `k0` whose
  // bits are set in `hits` (k = k0 + byte index).
  ClauseRef FireOrderAxioms(Lit p, int k0, uint64_t hits);
  // Allocates and attaches the ternary (lits[0] ∨ lits[1] ∨ lits[2]) as a
  // problem clause watched on lits[0] and lits[1].
  ClauseRef MaterializeAxiom(const Lit (&lits)[3]);
  // Number of order-block ternaries `value(var)` (true/false per
  // variable) falsifies, stopping once `limit` are found.
  template <class ValueFn>
  int64_t CountOpenAxioms(ValueFn value, int64_t limit) const;

  // --- search ----------------------------------------------------------
  SolveResult SolveInternal(std::span<const Lit> assumptions);
  SolveResult SolveLoop(std::span<const Lit> assumptions);
  SolveResult Search(int64_t conflict_budget,
                     std::span<const Lit> assumptions);
  // Unit propagation to fixpoint. It may materialize order axioms, which
  // appends to arena_, clauses_ and the watch and occurrence lists: no
  // caller may hold a ClauseLits pointer across it.
  ClauseRef Propagate();
  void Analyze(ClauseRef conflict, std::vector<Lit>* out_learnt,
               int* out_btlevel);
  void AnalyzeFinal(Lit p, std::vector<Lit>* out_core);
  void UncheckedEnqueue(Lit p, ClauseRef from) {
    CCR_DCHECK(ValueOf(p) == Lbool::kUndef);
    assigns_[p.var()] = p.negated() ? Lbool::kFalse : Lbool::kTrue;
    level_[p.var()] = DecisionLevel();
    reason_[p.var()] = from;
    trail_.push_back(p);
    const OrderBytes slot = order_bytes_[p.var()];
    if (slot.row != OrderBytes::kNone) {
      const Lbool v = p.negated() ? Lbool::kFalse : Lbool::kTrue;
      order_value_[slot.row] = v;
      order_value_[slot.col] = v;
    }
  }
  void CancelUntil(int level);
  Lit PickBranchLit();
  void AttachClause(ClauseRef c);
  void DetachClause(ClauseRef c);
  void AttachBinary(Lit a, Lit b);
  // Grows the variable universe to `n` variables (no-op if it is that
  // large already): checks n <= kMaxVars before anything grows, resizes
  // each per-variable array once and appends the new variables to the
  // decision heap in id order. Every variable is created here.
  void GrowVars(int n);
  void RecordLearnt(const std::vector<Lit>& learnt);
  void ReduceDb();
  void RemoveSatisfiedTopLevel();
  void SweepSatisfied(std::vector<ClauseRef>* list);
  void SweepSatisfiedProblem();
  void SweepBinaries();

  // --- arena lifecycle --------------------------------------------------
  // Whether the persistent occurrence index is maintained at all: the
  // subsumption pass and the local search's repair tiers consume it.
  bool TrackOccurrences() const { return options_.use_inprocessing; }
  void MaybeGarbageCollect();
  ClauseRef RelocateClause(ClauseRef c);
  // Drops dead entries from clauses_, shifting inproc_watermark_ by the
  // number removed below it — the exact accounting that replaces the old
  // drifting fresh-clause counter.
  void CompactProblemClauses();
  void RebuildOccurrenceIndex();

  // --- model cache ------------------------------------------------------
  bool ModelWitnesses(const std::vector<Lbool>& m,
                      std::span<const Lit> assumptions) const {
    // Backwards: callers append the discriminating literal (the pair's
    // order literal) after the long-lived guard prefix, so misses fail
    // on the first probe instead of re-checking the shared guards.
    for (size_t i = assumptions.size(); i-- > 0;) {
      const Lit a = assumptions[i];
      if (static_cast<size_t>(a.var()) >= m.size()) return false;
      if (LboolOf(m[a.var()], a.negated()) != Lbool::kTrue) return false;
    }
    return true;
  }
  // A clause was added: cached models may be falsified.
  // Clause learning and inprocessing are implication-preserving and do
  // not invalidate.
  void InvalidateModelCache() {
    model_fresh_ = false;
    model_pool_.clear();
    model_pool_next_ = 0;
  }
  // Rotates the previous newest model into the ring before model_ is
  // overwritten by a fresh solve.
  void CacheCurrentModel();
  // Pushes a genuine model found by local search into the ring.
  void PushPoolModel(std::vector<Lbool> m);
  // Debug aid: does `m` satisfy every live problem clause, every binary,
  // and agree with the level-0 trail?
  bool DebugModelSatisfiesLive(const std::vector<Lbool>& m) const;

  // --- inprocessing ----------------------------------------------------
  void SubsumptionPass();
  void VivificationPass();
  // Removes `l` from the (attached, size>=3) problem clause `c`,
  // re-attaching / migrating / enqueueing as the new size demands.
  void StrengthenClause(ClauseRef c, Lit l);
  // Rewrites clause `c` to `lits` after vivification shortened it.
  void ShrinkClause(ClauseRef c, std::span<const Lit> lits);

  Lbool ValueOf(Lit p) const {
    return LboolOf(assigns_[p.var()], p.negated());
  }
  int DecisionLevel() const { return static_cast<int>(trail_lim_.size()); }

  // VSIDS helpers. The activity increments grow by 1/decay per conflict
  // (MiniSat's defaults).
  static constexpr double kVarDecay = 0.95;
  static constexpr double kClauseDecay = 0.999;
  void VarBump(Var v);
  void VarDecay() { var_inc_ /= kVarDecay; }
  void ClauseBump(ClauseRef c);
  void ClauseDecay() { clause_inc_ /= kClauseDecay; }
  void HeapInsert(Var v);
  Var HeapPop();
  void HeapDecrease(Var v);
  bool HeapEmpty() const { return heap_.empty(); }

  SolverOptions options_;
  SolverStats stats_;
  SolverStats last_call_;
  bool ok_ = true;  // false once UNSAT independent of assumptions

  std::vector<uint32_t> arena_;
  std::vector<ClauseRef> clauses_;  // problem clauses (arena-backed)
  std::vector<ClauseRef> learnts_;  // learnt clauses of size >= 3

  std::vector<std::vector<Watcher>> watches_;  // indexed by Lit::index()
  // Implicit binary watch lists: bins_[p.index()] holds every literal q
  // with a clause (~p ∨ q) — assigning p true implies q, no arena access.
  std::vector<std::vector<Lit>> bins_;
  // Binary clauses learnt into bins_ (LearntClauses() debug accessor
  // only; capped in RecordLearnt, and a learnt binary stays implied even
  // after a sweep prunes its entries).
  std::vector<std::pair<Lit, Lit>> learnt_binaries_;
  Lit bin_conflict_[2] = {kLitUndef, kLitUndef};

  std::vector<Lbool> assigns_;                 // per var
  std::vector<bool> polarity_;                 // saved phases
  std::vector<int> level_;                     // per var
  std::vector<ClauseRef> reason_;              // per var
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  size_t qhead_ = 0;   // next trail literal for long-clause propagation
  size_t bhead_ = 0;   // next trail literal for binary propagation

  std::vector<double> activity_;  // per var
  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  std::vector<Var> heap_;       // binary max-heap of vars by activity
  std::vector<int> heap_pos_;   // per var; -1 if absent

  // FeedClauseFrom's normalization buffer, reused by every add.
  std::vector<Lit> add_buf_;
  // Added problem clauses with two or more positive literals, each
  // followed by kLitUndef; ProblemIsHorn drops the ones satisfied at
  // level 0.
  std::vector<Lit> non_horn_lits_;

  std::vector<OrderBlockState> blocks_;
  std::vector<OrderBytes> order_bytes_;  // per var
  std::vector<OrderPos> order_pos_;      // per var; block -1: in none
  std::vector<Lbool> order_value_;
  // Materialized ternaries (a, b, c) of block `block`, keyed
  // block << 48 | a << 32 | b << 16 | c: an open-addressing set (0 marks
  // a free slot; no key is 0, since a, b, c differ) with its size.
  std::vector<uint64_t> materialized_;
  size_t num_materialized_ = 0;
  // Adds `key`; false if it was already there.
  bool InsertMaterialized(uint64_t key);

  std::vector<uint8_t> seen_;   // scratch for Analyze
  std::vector<Lit> analyze_toclear_;  // seen_ marks to undo
  std::vector<Lbool> model_;
  std::vector<Lit> conflict_core_;

  // Cached-model pool: an assumption solve first checks the recent
  // models — one satisfying every assumption IS the answer, no search.
  // model_ itself is the newest entry when model_fresh_; older models
  // ride in a small ring. Cleared whenever the formula genuinely
  // strengthens (AddClause). The verdict is exact either way. No
  // pipeline phase solves on the Horn Φ(Se); the per-pair Lemma-6 loop
  // uses it.
  static constexpr size_t kModelPoolSize = 4;
  std::vector<std::vector<Lbool>> model_pool_;
  size_t model_pool_next_ = 0;
  bool model_fresh_ = false;

  // Decision level of an open BeginProbe session; -1 when no probe is
  // open. Guards the EndProbe contract in debug builds.
  int probe_base_level_ = -1;

  double max_learnts_ = 0;

  // Inprocessing bookkeeping: clauses_[inproc_watermark_..] are the
  // entries appended since the last subsumption pass (those act as the
  // subsumers). Every clauses_ compaction adjusts the watermark by the
  // number of entries dropped below it, so the delta is exact — no
  // clamping, no drift. Problem binaries added since the last pass ride
  // in pending_bins_ (they bypass the arena under binary watches).
  size_t inproc_watermark_ = 0;
  std::vector<std::pair<Lit, Lit>> pending_bins_;
  // False until the first vivification pass, which stamps the initial
  // encoding as seen instead of distilling it wholesale.
  bool vivify_primed_ = false;

  // Arena lifecycle: words owned by dead clauses and shrunk tails (live =
  // arena_.size() - arena_dead_words_), the lifetime high-water mark, and
  // the relocation target recycled across collections.
  size_t arena_dead_words_ = 0;
  size_t arena_peak_words_ = 0;
  std::vector<uint32_t> arena_tmp_;

  // MaybeSimplify's schedule: the level-0 trail length and the long plus
  // binary propagation count when the last sweep ran; the next trail fact
  // whose watchers are still to be counted, the clauses known satisfied
  // at level 0 since the last sweep (an estimate), and their sum over the
  // MaybeSimplify calls since then.
  size_t sweep_trail_ = 0;
  int64_t sweep_props_ = 0;
  size_t sat_head_ = 0;
  size_t sat_clauses_ = 0;
  size_t sat_held_ = 0;

  // Persistent occurrence index over the problem clauses (maintained
  // whenever inprocessing is on): occur_[v] lists every arena
  // clause containing v in clause-addition order, appended at AddClause,
  // purged lazily when dead entries are scanned, and rebuilt exactly —
  // same order — by GarbageCollect.
  std::vector<std::vector<ClauseRef>> occur_;

  // Stochastic local search scratch (SeedFromLocalSearch), pooled so
  // repeated seeding/probing calls on a long-lived solver allocate
  // nothing once warm. The active subformula (live clauses minus those
  // satisfied by the fixing, fixed-false literals dropped) is gathered
  // into flat CSR buffers per call.
  struct SlsScratch {
    std::vector<Lit> pool;          // clause literals, CSR
    std::vector<int32_t> starts;    // clause -> offset into pool
    std::vector<int32_t> occ;       // lit index -> clause ids, CSR
    std::vector<int32_t> occ_start;
    std::vector<int32_t> cursor;    // CSR fill cursors
    std::vector<uint8_t> val;       // per var: current assignment
    std::vector<uint8_t> fixed;     // per var: never flipped
    std::vector<uint8_t> best;      // per var: best assignment seen
    std::vector<int32_t> true_count;  // per clause
    std::vector<int32_t> unsat;  // stack of unsatisfied clause ids
    std::vector<int32_t> unsat_pos;   // clause -> position in its stack
    std::vector<Var> free_vars;       // distinct unfixed vars in pool
    std::vector<uint8_t> var_seen;    // per var: dedup for free_vars
    std::vector<Var> cand;            // zero-break candidates per flip
  };
  SlsScratch sls_;
  // Per-call RNG salt: advances on every auto-seeded search so repeated
  // calls explore different trajectories, deterministically. Reset()
  // zeroes it — a Reset solver replays the identical stream.
  uint64_t sls_salt_ = 0;

  // Incremental local-search verification cache: the last assignment a
  // SeedFromLocalSearch call proved to satisfy every live clause, plus
  // watermarks describing the formula it was proved against. A later
  // call can then re-verify only what changed — variables whose value
  // differs (their clauses found through occur_ and bins_), arena
  // clauses appended past the watermark, and the logged problem
  // binaries — instead of scanning the whole clause database. Any
  // in-place clause edit or clause-list compaction bumps sls_epoch_,
  // voiding the cache until the next full verification; the binary log
  // is bounded, overflowing into the same voiding.
  std::vector<uint8_t> sls_verified_val_;  // empty = nothing verified yet
  size_t sls_verified_clauses_ = 0;        // clauses_.size() at verify
  uint64_t sls_epoch_ = 0;
  uint64_t sls_verified_epoch_ = 0;
  bool sls_bin_log_overflow_ = false;
  std::vector<std::pair<Lit, Lit>> sls_new_bins_;
};

template <class EmitFn>
bool Solver::FeedClauseFrom(EmitFn emit) {
  if (!ok_) return false;
  CCR_DCHECK(DecisionLevel() == 0);
  InvalidateModelCache();
  bool satisfied = false;
  size_t n = 0;
  emit([&](Lit l) {
    const Lbool v = ValueOf(l);
    if (v == Lbool::kTrue) {
      satisfied = true;
      return false;
    }
    if (v == Lbool::kFalse) return true;
    if (n == add_buf_.size()) add_buf_.resize(2 * n + 8);
    Lit* buf = add_buf_.data();
    size_t j = n++;
    for (; j > 0 && l < buf[j - 1]; --j) buf[j] = buf[j - 1];
    buf[j] = l;
    return true;
  });
  return satisfied || AttachNormalized(n);
}

template <class VarFn>
void Solver::SyncOrderBlock(int size, VarFn var) {
  CCR_DCHECK(DecisionLevel() == 0);
  if (!ok_ || size < 2) return;
  CCR_CHECK(size < (1 << 16));
  const int b = OrderBlockOf(var(0, 1));
  OrderBlock& block = blocks_[b].block;
  const int old = block.size;
  if (size <= old) return;
  block.Grow(size, var);
  RegisterOrderEntries(b, old);
}

}  // namespace ccr::sat

#endif  // CCR_SAT_SOLVER_H_
