#include "src/core/session.h"

#include <utility>

#include "src/common/pooled.h"
#include "src/common/timer.h"
#include "src/encode/cnf_builder.h"

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

// Every phase decides Φ(Se) by propagation, which is exact only on a Horn
// formula. The solver counts positive literals as clauses arrive, so on a
// Horn formula this is O(1).
Status HornCheck(sat::Solver* solver) {
  if (!solver->ProblemIsHorn()) {
    return Status::Internal("the encoding of Se is not a Horn formula");
  }
  return Status::OK();
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

DeduceScratch* SessionScratch::AcquireDeduceScratch() {
  return &AcquireRoundScratch()->deduce;
}

RoundScratch* SessionScratch::AcquireRoundScratch() {
  if (round_ == nullptr) round_ = std::make_unique<RoundScratch>();
  return round_.get();
}

void ResolutionSession::AdoptScratchObjects() {
  SessionScratch* scratch = options_.scratch;
  if (scratch == nullptr) {
    owned_scratch_ = std::make_unique<SessionScratch>();
    scratch = owned_scratch_.get();
  }
  inst_ = scratch->AcquireInstantiation();
  solver_ = scratch->AcquireSolver(options_.solver);
  round_ = scratch->AcquireRoundScratch();
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
  LoadSolver(*s.inst_, s.solver_);
  CCR_RETURN_NOT_OK(HornCheck(s.solver_));
  // Inprocessing cadence: the freshly built Φ(Se) is the baseline; each
  // sweep an ExtendWith schedules vivifies and backward-subsumes exactly
  // the clauses appended since the previous one against the whole
  // database.
  if (s.options_.solver.use_inprocessing) s.solver_->PrimeInprocessing();
  // Model-cache seed: the least model of Φ(Se) under the active guards
  // (one probe) enters the witness ring before the first validity solve
  // ever runs. Skipped on NaiveDeduce pipelines.
  if (s.options_.solver.use_sls_seeding && !s.options_.naive_deduce) {
    s.solver_->SeedFromLocalSearch(s.inst_->guard_assumptions());
  }
  s.last_encode_ms_ = timer.ElapsedMs();
  return s;
}

ValidityResult ResolutionSession::CheckValidity() {
  return IsValidShared(solver_, inst_->guard_assumptions());
}

DeducedOrders ResolutionSession::Deduce() {
  DeducedOrders od;
  DeduceInto(&od);
  return od;
}

void ResolutionSession::DeduceInto(DeducedOrders* od) {
  if (options_.naive_deduce) {
    NaiveDeduceShared(*inst_, solver_, inst_->guard_assumptions(),
                      &round_->deduce, od);
  } else {
    DeduceOrderShared(*inst_, solver_, options_.deduce,
                      inst_->guard_assumptions(), &round_->deduce, od);
  }
}

Suggestion ResolutionSession::MakeSuggestion(
    const std::vector<std::vector<int>>& candidates,
    const std::vector<int>& known_true) {
  return SuggestOnSolver(*inst_, solver_, inst_->guard_assumptions(),
                         candidates, known_true, options_.suggest);
}

const SessionRound& ResolutionSession::RunRound(bool want_suggestion) {
  // Empty what this round may not refill, parking the storage.
  RoundScratch& rs = *round_;
  SessionRound& out = rs.round;
  out.valid = false;
  out.complete = false;
  out.true_idx.clear();
  PooledResize(&out.candidates, 0, &rs.spare_candidates);
  if (out.suggestion.has_value()) {
    rs.parked_suggestion = std::move(*out.suggestion);
    out.suggestion.reset();
  }
  out.trace = {};
  RoundTrace& trace = out.trace;
  const VarMap& vm = inst_->varmap;
  const std::vector<sat::Lit>& guards = inst_->guard_assumptions();
  Timer timer;

  // Step (1): validity.
  sat::SolverStats phase_start = solver_->stats();
  out.valid = CheckValidity().valid;
  trace.validity_solver = solver_->stats() - phase_start;
  trace.validity_ms = timer.ElapsedMs();
  if (!out.valid) {
    PooledResize(&out.od.per_attr, 0, &rs.deduce.spare_orders);
    return out;
  }

  // Step (2): deduce true values.
  timer.Restart();
  phase_start = solver_->stats();
  DeduceInto(&out.od);
  trace.deduce_solver = solver_->stats() - phase_start;
  ExtractTrueValueIndices(vm, out.od, &out.true_idx);
  trace.deduce_ms = timer.ElapsedMs();

  // Step (3): done when every resolvable attribute has a true value.
  for (const int idx : out.true_idx) trace.resolved_attrs += idx >= 0;
  out.complete = trace.resolved_attrs >= CountResolvableAttrs(vm);
  if (out.complete || !want_suggestion) return out;

  // Step (4a): the suggestion.
  timer.Restart();
  phase_start = solver_->stats();
  PooledResize(&out.candidates, vm.num_attrs(), &rs.spare_candidates);
  CandidateValues(vm, out.od, &out.candidates);
  Suggestion& suggestion =
      out.suggestion.emplace(std::move(rs.parked_suggestion));
  SuggestOnSolver(*inst_, solver_, guards, out.candidates, out.true_idx,
                  options_.suggest, &rs.suggest, &suggestion);
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
  ExtendSolver(*inst_, delta, solver_);
  CCR_RETURN_NOT_OK(HornCheck(solver_));
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
  // proportional to its live clause set.
  solver_->MaybeSimplify();
  // Re-seed: the extension invalidated the witness ring, so the least
  // model of the extended formula refills it. Skipped on NaiveDeduce
  // pipelines, as in Create.
  if (options_.solver.use_sls_seeding && !options_.naive_deduce &&
      !solver_->IsUnsatForever()) {
    solver_->SeedFromLocalSearch(inst_->guard_assumptions());
  }
  ++incremental_extensions_;
  last_encode_ms_ = timer.ElapsedMs();
  return Status::OK();
}

}  // namespace ccr
