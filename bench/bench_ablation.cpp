// Ablations of the engine's main design choices:
//   A1. DeduceOrder negative-unit handling — paper mode (Fig. 5 lines 6-7
//       add the reversed order) vs strict mode (negative units only reduce
//       the formula).
//   A2. MaxClique exact branch-and-bound vs greedy heuristic in Suggest.
//   A3. Φ(Se) satisfiability: CDCL vs WalkSAT local search (the engine
//       the paper's GetSug runs).

#include "bench_util.h"

namespace {

using namespace ccr;
using namespace ccr::bench;

void AblateDeduceMode(const Dataset& ds) {
  PrintHeader("A1 — DeduceOrder negative-unit handling");
  for (bool paper_mode : {true, false}) {
    double ms = 0;
    int64_t pairs = 0;
    int resolved = 0;
    Timer t;
    for (size_t i = 0; i < ds.entities.size(); ++i) {
      const Specification se = ds.MakeSpec(static_cast<int>(i));
      auto inst = Instantiation::Build(se);
      CCR_CHECK(inst.ok());
      const sat::Cnf phi = BuildCnf(*inst);
      DeduceOptions opts;
      opts.paper_negative_units = paper_mode;
      const DeducedOrders od = DeduceOrder(*inst, phi, opts);
      pairs += od.CountPairs();
      for (int v : ExtractTrueValueIndices(inst->varmap, od)) {
        resolved += v >= 0 ? 1 : 0;
      }
    }
    ms = t.ElapsedMs();
    std::printf("  %-12s: %8.1f ms, %lld deduced pairs, %d true values\n",
                paper_mode ? "paper-mode" : "strict-mode", ms,
                static_cast<long long>(pairs), resolved);
  }
}

void AblateClique(const Dataset& ds) {
  PrintHeader("A2 — MaxClique exact vs greedy in Suggest");
  for (bool exact : {true, false}) {
    double ms = 0;
    size_t suggested_attrs = 0;
    size_t derivable = 0;
    Timer t;
    for (size_t i = 0; i < ds.entities.size(); ++i) {
      const Specification se = ds.MakeSpec(static_cast<int>(i));
      auto inst = Instantiation::Build(se);
      CCR_CHECK(inst.ok());
      const sat::Cnf phi = BuildCnf(*inst);
      const DeducedOrders od = DeduceOrder(*inst, phi);
      const auto known = ExtractTrueValueIndices(inst->varmap, od);
      const auto candidates = CandidateValues(inst->varmap, od);
      SuggestOptions opts;
      opts.exact_clique = exact;
      const Suggestion sug = Suggest(*inst, phi, candidates, known, opts);
      suggested_attrs += sug.attrs.size();
      derivable += sug.derivable_attrs.size();
    }
    ms = t.ElapsedMs();
    std::printf("  %-12s: %8.1f ms, %zu attrs to ask, %zu derivable\n",
                exact ? "exact-bnb" : "greedy", ms, suggested_attrs,
                derivable);
  }
}

void AblateMaxSat(const Dataset& ds) {
  PrintHeader("A3 — CDCL vs WalkSAT on Φ(Se) instances");
  double exact_ms = 0, walk_ms = 0;
  int exact_sat = 0, walk_sat = 0, n = 0;
  maxsat::WalkSatScratch scratch;  // pooled across entities
  for (size_t i = 0; i < ds.entities.size() && n < 12; ++i, ++n) {
    const Specification se = ds.MakeSpec(static_cast<int>(i));
    auto inst = Instantiation::Build(se);
    CCR_CHECK(inst.ok());
    const sat::Cnf phi = BuildCnf(*inst);
    Timer t;
    sat::Solver solver;
    solver.AddCnf(phi);
    exact_sat += solver.Solve() == sat::SolveResult::kSat ? 1 : 0;
    exact_ms += t.ElapsedMs();
    t.Restart();
    maxsat::WalkSatOptions wopts;
    wopts.max_flips = 200000;
    const auto wr =
        maxsat::RunWalkSat(phi, wopts, &scratch);
    CCR_CHECK(wr.ok());
    walk_sat += wr->satisfied ? 1 : 0;
    walk_ms += t.ElapsedMs();
  }
  std::printf("  CDCL   : %8.1f ms, %d/%d satisfiable\n", exact_ms,
              exact_sat, n);
  std::printf("  WalkSAT: %8.1f ms, %d/%d satisfied (incomplete search)\n",
              walk_ms, walk_sat, n);
}

}  // namespace

int main() {
  const int scale = BenchScale();
  NbaOptions nopts;
  nopts.num_entities = 30 * scale;
  const Dataset nba = GenerateNba(nopts);
  PersonOptions popts;
  popts.num_entities = 20 * scale;
  popts.min_tuples = 10;
  popts.max_tuples = 60;
  popts.p_status_gap = 0.4;
  const Dataset person = GeneratePerson(popts);

  AblateDeduceMode(person);
  AblateClique(person);
  AblateMaxSat(nba);
  return 0;
}
