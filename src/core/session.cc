#include "src/core/session.h"

#include <utility>

#include "src/common/timer.h"

namespace ccr {

namespace {

// Session grounding runs guarded: CFD rule bodies carry per-version
// selector variables, which is what lets ExtendWith stay append-only on
// every delta (see InstantiationOptions::guard_cfds).
InstantiationOptions SessionGroundingOptions() {
  InstantiationOptions opts;
  opts.guard_cfds = true;
  return opts;
}

}  // namespace

sat::Solver* SessionScratch::AcquireSolver(const sat::SolverOptions& options) {
  if (solver_ == nullptr) {
    solver_ = std::make_unique<sat::Solver>(options);
  } else {
    solver_->Reset(options);
    ++solver_reuses_;
  }
  return solver_.get();
}

sat::Cnf* SessionScratch::AcquireCnf() {
  if (cnf_ == nullptr) {
    cnf_ = std::make_unique<sat::Cnf>();
  } else {
    cnf_->Clear();
  }
  return cnf_.get();
}

Instantiation* SessionScratch::AcquireInstantiation() {
  // No clearing needed here: BuildInto clears in place, recycling the
  // projection tables and index slots the previous session grew.
  if (inst_ == nullptr) inst_ = std::make_unique<Instantiation>();
  return inst_.get();
}

maxsat::WalkSatScratch* SessionScratch::AcquireWalkSatScratch() {
  if (walksat_ == nullptr) walksat_ = std::make_unique<maxsat::WalkSatScratch>();
  return walksat_.get();
}

DeduceScratch* SessionScratch::AcquireDeduceScratch() {
  if (deduce_ == nullptr) deduce_ = std::make_unique<DeduceScratch>();
  return deduce_.get();
}

void ResolutionSession::AdoptScratchObjects() {
  SessionScratch* scratch = options_.scratch;
  if (scratch == nullptr) {
    owned_scratch_ = std::make_unique<SessionScratch>();
    scratch = owned_scratch_.get();
  }
  inst_ = scratch->AcquireInstantiation();
  cnf_ = scratch->AcquireCnf();
  solver_ = scratch->AcquireSolver(options_.solver);
}

Result<ResolutionSession> ResolutionSession::Create(
    const Specification& se, const ResolveOptions& options) {
  ResolutionSession s;
  s.options_ = options;
  s.spec_ = se;
  Timer timer;
  s.AdoptScratchObjects();
  CCR_RETURN_NOT_OK(
      Instantiation::BuildInto(s.spec_, s.inst_, SessionGroundingOptions()));
  BuildCnfInto(*s.inst_, s.cnf_);
  CCR_RETURN_NOT_OK(s.FeedSolver());
  // Inprocessing cadence: the freshly built Φ(Se) is the baseline; each
  // sweep an ExtendWith schedules vivifies and backward-subsumes exactly
  // the clauses appended since the previous one against the whole
  // database.
  if (s.options_.solver.use_inprocessing) s.solver_->PrimeInprocessing();
  // SLS warm start: a local-search pass under the active guards installs
  // a near-model into the saved phases (and, when fully satisfying, the
  // witness ring) before the first validity solve ever runs. Skipped on
  // NaiveDeduce pipelines, where it once slowed the per-pair entailment
  // solves.
  if (s.options_.solver.use_sls_seeding && !s.options_.naive_deduce) {
    s.solver_->SeedFromLocalSearch(s.inst_->guard_assumptions());
  }
  s.last_encode_ms_ = timer.ElapsedMs();
  return s;
}

Status ResolutionSession::FeedSolver() {
  solver_->AddCnfFrom(*cnf_, fed_clauses_);
  fed_clauses_ = cnf_->num_clauses();
  // Every phase decides Φ(Se) by propagation, which is exact only on a
  // Horn formula. The solver counts positive literals as clauses arrive,
  // so on a Horn formula this is O(1).
  if (!solver_->ProblemIsHorn()) {
    return Status::Internal("the encoding of Se is not a Horn formula");
  }
  return Status::OK();
}

ValidityResult ResolutionSession::CheckValidity() {
  return IsValidShared(solver_, *cnf_, inst_->guard_assumptions());
}

DeducedOrders ResolutionSession::Deduce() {
  if (options_.naive_deduce) {
    return NaiveDeduceShared(*inst_, solver_, inst_->guard_assumptions());
  }
  return DeduceOrderShared(*inst_, *cnf_, solver_, options_.deduce,
                           inst_->guard_assumptions());
}

Suggestion ResolutionSession::MakeSuggestion(
    const std::vector<std::vector<int>>& candidates,
    const std::vector<int>& known_true) {
  return SuggestOnSolver(*inst_, solver_, inst_->guard_assumptions(),
                         candidates, known_true, options_.suggest);
}

SessionRound ResolutionSession::RunRound(bool want_suggestion) {
  SessionRound out;
  RoundTrace& trace = out.trace;
  Timer timer;

  // Step (1): validity.
  sat::SolverStats phase_start = solver_->stats();
  out.valid = CheckValidity().valid;
  trace.validity_solver = solver_->stats() - phase_start;
  trace.validity_ms = timer.ElapsedMs();
  if (!out.valid) return out;

  // Step (2): deduce true values.
  timer.Restart();
  phase_start = solver_->stats();
  out.od = Deduce();
  trace.deduce_solver = solver_->stats() - phase_start;
  out.true_idx = ExtractTrueValueIndices(inst_->varmap, out.od);
  trace.deduce_ms = timer.ElapsedMs();

  // Step (3): done when every resolvable attribute has a true value.
  for (const int idx : out.true_idx) trace.resolved_attrs += idx >= 0;
  out.complete = trace.resolved_attrs >= CountResolvableAttrs(inst_->varmap);
  if (out.complete || !want_suggestion) return out;

  // Step (4a): the suggestion.
  timer.Restart();
  phase_start = solver_->stats();
  out.candidates = CandidateValues(inst_->varmap, out.od);
  out.suggestion = MakeSuggestion(out.candidates, out.true_idx);
  trace.suggest_solver = solver_->stats() - phase_start;
  trace.suggest_ms = timer.ElapsedMs();
  return out;
}

Status ResolutionSession::ExtendWith(const PartialTemporalOrder& ot) {
  // Only It grows, in place: Append costs what Ot adds, and Σ and Γ are
  // never copied after Create. Append rejects a bad delta before touching
  // anything; a delta the grounding rejects is truncated away again.
  const TemporalInstance::Mark before = spec_.temporal.mark();
  CCR_RETURN_NOT_OK(spec_.temporal.Append(ot));
  Timer timer;
  // No phase allocates solver variables, so the VarMap names every one
  // and this round's atom and guard variables get fresh ids.
  CCR_CHECK(solver_->num_vars() <= inst_->varmap.num_vars());
  cnf_->EnsureVars(inst_->varmap.num_vars());
  Result<InstantiationDelta> extended =
      inst_->ExtendWith(spec_, ot, SessionGroundingOptions());
  if (!extended.ok()) {
    spec_.temporal.TruncateTo(before);
    return extended.status();
  }
  const InstantiationDelta& delta = *extended;
  // Guarded grounding expresses every delta append-only — the LHS-growth
  // case retires guards instead of demanding a rebuild.
  CCR_CHECK(!delta.needs_rebuild);
  ExtendCnf(*inst_, delta, cnf_);
  CCR_RETURN_NOT_OK(FeedSolver());
  // New clauses (and retired-guard units) may have asserted fresh
  // top-level facts; fold them in before the next phase solves. Sweeping
  // the clauses they satisfy costs a pass over the whole database, so it
  // runs on MaybeSimplify's schedule: only once the level-0 trail has
  // grown and either the propagations since the last sweep reach the
  // arena's size or the satisfied clauses have been held, round after
  // round, as long as a sweep costs. The sweep is also the arena GC
  // schedule point: it marks dead clauses and ends by compacting the
  // arena once the dead fraction crosses SolverOptions::gc_frac — which
  // is what keeps a multi-hundred-round session's solver memory
  // proportional to its live clause set. (perfbench's traced drive still
  // runs the full Simplify() here and times it as sat.simplify.)
  solver_->MaybeSimplify();
  // Re-seed from local search: the phases still hold (near) the previous
  // round's model, so a short pass usually repairs it against the delta
  // and refills the witness ring the extension just invalidated — the
  // next solves start warm. Skipped on NaiveDeduce pipelines, as in
  // Create.
  if (options_.solver.use_sls_seeding && !options_.naive_deduce &&
      !solver_->IsUnsatForever()) {
    solver_->SeedFromLocalSearch(inst_->guard_assumptions());
  }
  ++incremental_extensions_;
  last_encode_ms_ = timer.ElapsedMs();
  return Status::OK();
}

}  // namespace ccr
