#include "src/core/isvalid.h"

namespace ccr {

ValidityResult IsValidCnf(const sat::Cnf& phi,
                          const sat::SolverOptions& options) {
  sat::Solver solver(options);
  solver.AddCnf(phi);
  return IsValidShared(&solver, phi);
}

ValidityResult IsValidShared(sat::Solver* solver, const sat::Cnf& phi,
                             std::span<const sat::Lit> assumptions) {
  ValidityResult result = IsValidShared(solver, assumptions);
  result.num_vars = phi.num_vars();
  result.num_clauses = phi.num_clauses() + phi.num_implicit_clauses();
  return result;
}

ValidityResult IsValidShared(sat::Solver* solver,
                             std::span<const sat::Lit> assumptions) {
  ValidityResult result;
  // Propagation first (see the header): a conflict refutes the
  // assumptions, and a quiet fixpoint over a Horn formula is a model.
  if (!solver->BeginProbe(assumptions)) return result;
  solver->EndProbe();
  if (solver->ProblemIsHorn()) {
    result.valid = true;
    return result;
  }
  result.valid =
      solver->SolveWithAssumptions(assumptions) == sat::SolveResult::kSat;
  result.solver_conflicts = solver->last_call_stats().conflicts;
  return result;
}

Result<ValidityResult> IsValid(const Specification& se,
                               const sat::SolverOptions& options) {
  CCR_ASSIGN_OR_RETURN(Instantiation inst, Instantiation::Build(se));
  const sat::Cnf phi = BuildCnf(inst);
  return IsValidCnf(phi, options);
}

}  // namespace ccr
