// Fig. 8(f)-(h), (j)-(l), (n)-(p): F-measure of conflict resolution while
// varying the available constraints, with one curve per interaction round
// and the Pick baseline on the combined plots.
//
//   (f)/(j)/(n): vary |Σ|+|Γ| together   (plus Pick)
//   (g)/(k)/(o): vary |Σ|, Γ = ∅
//   (h)/(l)/(p): vary |Γ|, Σ = ∅
//
// Reproduced shape: more constraints → higher F; Σ+Γ > Σ-only ≫ Γ-only;
// our method ≫ Pick (the paper reports a 201% average improvement).

#include "bench_util.h"

namespace {

using namespace ccr;
using namespace ccr::bench;

constexpr double kFractions[] = {0.2, 0.4, 0.6, 0.8, 1.0};

enum class Mode { kBoth, kSigmaOnly, kGammaOnly };

const char* ModeName(Mode m) {
  switch (m) {
    case Mode::kBoth: return "vary |Sigma|+|Gamma|";
    case Mode::kSigmaOnly: return "vary |Sigma| (Gamma=0)";
    case Mode::kGammaOnly: return "vary |Gamma| (Sigma=0)";
  }
  return "?";
}

void RunFigure(const Dataset& ds, Mode mode, int max_rounds,
               int answers_per_round, double answer_prob) {
  std::printf("  %s\n", ModeName(mode));
  std::printf("  %-10s", "fraction");
  for (int k = 0; k <= max_rounds; ++k) {
    std::printf("  %d-inter.", k);
  }
  std::printf("\n");
  for (double f : kFractions) {
    // Average over constraint subsets (which 20% of Σ you get matters);
    // the full-fraction point needs a single run.
    const int n_seeds = f >= 1.0 ? 1 : 3;
    std::vector<AccuracyCounts> pooled(max_rounds + 1);
    for (int seed = 1; seed <= n_seeds; ++seed) {
      ExperimentOptions opts;
      opts.max_rounds = max_rounds;
      opts.answers_per_round = answers_per_round;
      opts.oracle_answer_prob = answer_prob;
      opts.subset_seed = static_cast<uint64_t>(seed);
      switch (mode) {
        case Mode::kBoth:
          opts.sigma_fraction = f;
          opts.gamma_fraction = f;
          break;
        case Mode::kSigmaOnly:
          opts.sigma_fraction = f;
          opts.gamma_fraction = 0.0;
          break;
        case Mode::kGammaOnly:
          opts.sigma_fraction = 0.0;
          opts.gamma_fraction = f;
          break;
      }
      const ExperimentResult r = RunExperiment(ds, opts);
      for (int k = 0; k <= max_rounds; ++k) {
        pooled[k].Add(r.accuracy_by_round[k]);
      }
    }
    std::printf("  %-10.1f", f);
    for (const AccuracyCounts& c : pooled) std::printf("  %8.3f", c.F1());
    std::printf("\n");
  }
}

void RunDataset(const char* name, const Dataset& ds, int max_rounds,
                int answers_per_round, double answer_prob) {
  std::printf("\n%s (%zu entities)\n", name, ds.entities.size());
  RunFigure(ds, Mode::kBoth, max_rounds, answers_per_round, answer_prob);
  const Result<AccuracyCounts> pick = RunPick(ds);
  if (pick.ok()) {
    std::printf("  Pick baseline F-measure: %.3f\n", pick->F1());
  } else {
    std::printf("  Pick baseline failed: %s\n",
                pick.status().ToString().c_str());
  }
  RunFigure(ds, Mode::kSigmaOnly, max_rounds, answers_per_round,
            answer_prob);
  RunFigure(ds, Mode::kGammaOnly, max_rounds, answers_per_round,
            answer_prob);
}

}  // namespace

int main() {
  PrintHeader("Fig. 8(f)-(p) — F-measure vs available constraints");
  const int scale = BenchScale();
  {
    NbaOptions opts;
    opts.num_entities = 50 * scale;
    RunDataset("NBA (Fig. 8(f)-(h))", GenerateNba(opts), 2, 2, 0.7);
  }
  {
    CareerOptions opts;
    opts.num_entities = 65 * scale;
    RunDataset("CAREER (Fig. 8(j)-(l))", GenerateCareer(opts), 2, 1, 0.8);
  }
  {
    PersonOptions opts;
    opts.num_entities = 50 * scale;
    opts.min_tuples = 8;
    opts.max_tuples = 60;
    RunDataset("Person (Fig. 8(n)-(p))", GeneratePerson(opts), 3, 1, 0.6);
  }
  return 0;
}
