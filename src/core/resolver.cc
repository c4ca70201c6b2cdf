#include "src/core/resolver.h"

#include <utility>

#include "src/core/session.h"

namespace ccr {

Status ResolveOptions::Validate() const {
  if (max_rounds < 0) {
    return Status::InvalidArgument("ResolveOptions: max_rounds must be >= 0");
  }
  // Written so that NaN fails too.
  if (!(solver.gc_frac >= 0.0 && solver.gc_frac <= 1.0)) {
    return Status::InvalidArgument(
        "ResolveOptions: solver.gc_frac must be in [0, 1]");
  }
  return Status::OK();
}

int CountResolvableAttrs(const VarMap& vm) {
  int n = 0;
  for (int a = 0; a < vm.num_attrs(); ++a) {
    if (!vm.domain(a).empty()) ++n;
  }
  return n;
}

Result<PartialTemporalOrder> MakeAnswerDelta(
    const Specification& se, const std::vector<UserOracle::Answer>& answers) {
  const int n_attrs = se.schema().size();
  PartialTemporalOrder ot;
  Tuple to(std::vector<Value>(n_attrs, Value::Null()));
  for (const UserOracle::Answer& ans : answers) {
    if (ans.attr < 0 || ans.attr >= n_attrs) {
      return Status::InvalidArgument(
          "answer names an invalid attribute index");
    }
    to[ans.attr] = ans.value;
  }
  const int to_index = se.instance().size();
  ot.new_tuples.push_back(std::move(to));
  for (const UserOracle::Answer& ans : answers) {
    for (int t = 0; t < to_index; ++t) {
      ot.orders.emplace_back(ans.attr, t, to_index);
    }
  }
  return ot;
}

Result<ResolveResult> Resolve(const Specification& se, UserOracle* oracle,
                              const ResolveOptions& options) {
  CCR_RETURN_NOT_OK(options.Validate());
  const int n_attrs = se.schema().size();
  ResolveResult result;
  result.true_values.assign(n_attrs, Value::Null());
  result.resolved.assign(n_attrs, false);
  result.user_provided.assign(n_attrs, false);

  CCR_ASSIGN_OR_RETURN(ResolutionSession session,
                       ResolutionSession::Create(se, options));
  const Instantiation& inst = session.instantiation();

  // Solver work of the ExtendWith that *produced* a round (clause feed +
  // between-round Simplify, where inprocessing runs) is captured when the
  // extension happens and stamped into the next round's trace — the same
  // attribution rule encode_ms follows.
  sat::SolverStats pending_extend_stats;

  for (int round = 0; round <= options.max_rounds; ++round) {
    const SessionRound& r =
        session.RunRound(oracle != nullptr && round < options.max_rounds);
    RoundTrace& trace = result.trace.emplace_back(r.trace);
    trace.round = round;
    // Round r > 0 was encoded by the ExtendWith that ended round r-1;
    // attribute that cost to the round it produced.
    trace.encode_ms = session.last_encode_ms();
    trace.encode_solver = pending_extend_stats;
    pending_extend_stats = {};
    if (!r.valid) {
      // Initial specification invalid (or a user's answer clashed with the
      // constraints): report and stop. The framework's "No" branch sends
      // users back to revise; a programmatic oracle cannot, so we stop.
      if (round == 0) result.valid = false;
      break;
    }

    for (int a = 0; a < n_attrs; ++a) {
      if (r.true_idx[a] >= 0) {
        result.true_values[a] = inst.varmap.domain(a)[r.true_idx[a]];
        result.resolved[a] = true;
      }
    }
    result.rounds_used = round;
    result.round_values.push_back(result.true_values);
    result.round_resolved.push_back(result.resolved);
    if (r.complete) {
      result.complete = true;
      break;
    }
    if (!r.suggestion.has_value()) break;  // no oracle, or no rounds left

    // Step (4b): user input.
    const std::vector<UserOracle::Answer> answers =
        oracle->Provide(session.spec(), *r.suggestion, inst.varmap);
    if (answers.empty()) break;  // user settles

    // Materialize the answers as a new tuple t_o that dominates every
    // existing tuple on the answered attributes (§III Remark (1)).
    CCR_ASSIGN_OR_RETURN(const PartialTemporalOrder ot,
                         MakeAnswerDelta(session.spec(), answers));
    for (const auto& ans : answers) {
      result.user_provided[ans.attr] = true;
    }
    const sat::SolverStats phase_start = session.solver_stats();
    CCR_RETURN_NOT_OK(session.ExtendWith(ot));
    pending_extend_stats = session.solver_stats() - phase_start;
  }

  return result;
}

}  // namespace ccr
