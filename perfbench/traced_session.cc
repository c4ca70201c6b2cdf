#include "perfbench/traced_session.h"

#include <algorithm>
#include <utility>

namespace perfbench {

namespace {

// Session grounding is guarded, exactly as in ResolutionSession.
ccr::InstantiationOptions GroundingOptions() {
  ccr::InstantiationOptions opts;
  opts.guard_cfds = true;
  return opts;
}

}  // namespace

ccr::Result<TracedSession> TracedSession::Create(
    const ccr::Specification& se, const ccr::ResolveOptions& options,
    ccr::SessionScratch* scratch, Tracer* tracer, std::string owner,
    LayerCounts* counts) {
  TracedSession s;
  s.options_ = options;
  s.tracer_ = tracer;
  s.owner_ = std::move(owner);
  s.counts_ = counts;
  ScopedSpan span(tracer, "core.create", s.owner_);
  s.spec_ = se;
  s.inst_ = scratch->AcquireInstantiation();
  s.cnf_ = scratch->AcquireCnf();
  s.solver_ = scratch->AcquireSolver(options.solver);
  s.deduce_scratch_ = scratch->AcquireDeduceScratch();
  s.stats_at_create_ = s.solver_->stats();
  {
    ScopedSpan ground(tracer, "encode.ground", s.owner_);
    CCR_RETURN_NOT_OK(
        ccr::Instantiation::BuildInto(s.spec_, s.inst_, GroundingOptions()));
  }
  {
    ScopedSpan cnf(tracer, "encode.cnf", s.owner_);
    ccr::BuildCnfInto(*s.inst_, s.cnf_);
  }
  s.Feed();
  {
    ScopedSpan seed(tracer, "sat.seed", s.owner_);
    if (options.solver.use_inprocessing) s.solver_->PrimeInprocessing();
    if (options.solver.use_sls_seeding && !options.naive_deduce) {
      s.solver_->SeedFromLocalSearch(s.inst_->guard_assumptions());
    }
  }
  ++counts->sessions;
  counts->ground_constraints +=
      static_cast<int64_t>(s.inst_->constraints.size());
  counts->clauses += s.cnf_->num_clauses();
  return s;
}

void TracedSession::Feed() {
  ScopedSpan span(tracer_, "sat.feed", owner_);
  solver_->AddCnfFrom(*cnf_, fed_clauses_);
  fed_clauses_ = cnf_->num_clauses();
}

ccr::ValidityResult TracedSession::CheckValidity() {
  ScopedSpan span(tracer_, "core.validity", owner_);
  ++counts_->validity_calls;
  return ccr::IsValidShared(solver_, *cnf_, inst_->guard_assumptions());
}

TracedDeduction TracedSession::Deduce() {
  ScopedSpan span(tracer_, "core.deduce", owner_);
  TracedDeduction d;
  if (options_.naive_deduce) {
    d.od = ccr::NaiveDeduceShared(*inst_, solver_, inst_->guard_assumptions());
  } else {
    d.od = ccr::DeduceOrder(*inst_, *cnf_, options_.deduce,
                            inst_->guard_assumptions(), deduce_scratch_);
  }
  d.true_idx = ccr::ExtractTrueValueIndices(inst_->varmap, d.od);
  ++counts_->deduce_calls;
  counts_->deduced_pairs += d.od.CountPairs();
  return d;
}

ccr::Suggestion TracedSession::MakeSuggestion(const TracedDeduction& d) {
  ScopedSpan span(tracer_, "core.suggest", owner_);
  const std::vector<std::vector<int>> candidates =
      ccr::CandidateValues(inst_->varmap, d.od);
  ccr::Suggestion s =
      ccr::SuggestOnSolver(*inst_, solver_, inst_->guard_assumptions(),
                           candidates, d.true_idx, options_.suggest);
  counts_->suggested_attrs += static_cast<int64_t>(s.attrs.size());
  return s;
}

ccr::Status TracedSession::ExtendWith(const ccr::PartialTemporalOrder& ot) {
  ScopedSpan span(tracer_, "core.extend", owner_);
  CCR_ASSIGN_OR_RETURN(ccr::Specification next, ccr::Extend(spec_, ot));
  while (inst_->varmap.num_vars() < solver_->num_vars()) {
    inst_->varmap.NewAuxVar();
  }
  cnf_->EnsureVars(inst_->varmap.num_vars());
  {
    ScopedSpan extend(tracer_, "encode.extend", owner_);
    CCR_ASSIGN_OR_RETURN(ccr::InstantiationDelta delta,
                         inst_->ExtendWith(next, ot, GroundingOptions()));
    if (delta.needs_rebuild) {
      return ccr::Status::Internal("guarded grounding asked for a rebuild");
    }
    ccr::ExtendCnf(*inst_, delta, cnf_);
  }
  Feed();
  {
    ScopedSpan simplify(tracer_, "sat.simplify", owner_);
    solver_->Simplify();
  }
  if (options_.solver.use_sls_seeding && !options_.naive_deduce &&
      !solver_->IsUnsatForever()) {
    ScopedSpan seed(tracer_, "sat.seed", owner_);
    solver_->SeedFromLocalSearch(inst_->guard_assumptions());
  }
  spec_ = std::move(next);
  return ccr::Status::OK();
}

void TracedSession::Finish() {
  counts_->solver += solver_->stats() - stats_at_create_;
  counts_->arena_peak_words =
      std::max(counts_->arena_peak_words, solver_->arena_peak_words());
}

}  // namespace perfbench
