// NBA roster cleanup: resolve current team/arena/stats for synthetic
// players (the paper's NBA scenario, §VI).
//
// Generates an NBA-like corpus, resolves a handful of players with a
// ground-truth oracle, and reports accuracy against the paper's Pick
// baseline — a miniature of the Fig. 8(f) experiment.

#include <cstdio>

#include "src/ccr.h"

int main() {
  using namespace ccr;

  NbaOptions options;
  options.num_entities = 40;
  const Dataset ds = GenerateNba(options);
  std::printf("NBA-like corpus: %zu players, |Sigma|=%zu, |Gamma|=%zu\n",
              ds.entities.size(), ds.sigma().size(), ds.gamma().size());

  // Resolve the first few players and print their current rows.
  for (int i = 0; i < 3; ++i) {
    const EntityCase& ec = ds.entities[i];
    TruthOracle oracle(ec.truth);
    auto r = Resolve(ds.MakeSpec(i), &oracle);
    CCR_CHECK(r.ok());
    std::printf("\n%s: %d tuples, %d conflicted attributes, rounds=%d\n",
                ec.instance.entity_id().c_str(), ec.instance.size(),
                ec.instance.CountConflictAttributes(), r->rounds_used);
    for (const char* attr :
         {"team", "tname", "arena", "city", "allpoints"}) {
      const int a = ds.schema.IndexOf(attr);
      std::printf("  %-10s = %-16s (truth: %s)%s\n", attr,
                  r->resolved[a] ? r->true_values[a].ToString().c_str()
                                 : "?",
                  ec.truth[a].ToString().c_str(),
                  r->user_provided[a] ? "  [user]" : "");
    }
  }

  // Dataset-level accuracy: unified method vs Pick.
  ExperimentOptions eopts;
  eopts.max_rounds = 2;
  const ExperimentResult ours = RunExperiment(ds, eopts);
  const Result<AccuracyCounts> pick = RunPick(ds);
  if (!pick.ok()) {
    std::fprintf(stderr, "Pick baseline: %s\n",
                 pick.status().ToString().c_str());
    return 1;
  }
  std::printf("\naccuracy (F-measure): 0-round %.3f | 2-round %.3f | "
              "Pick %.3f\n",
              ours.accuracy_by_round[0].F1(),
              ours.accuracy_by_round[2].F1(), pick->F1());
  return 0;
}
