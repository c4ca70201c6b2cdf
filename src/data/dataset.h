// Dataset containers and the ground-truth user oracle for the
// experimental study (§VI).
//
// Each generator produces entity instances with a *hidden* version history
// (its timestamps). The algorithms never see the history — specifications
// start with empty currency orders, exactly as in the paper ("We assumed
// empty currency orders in all the experiments") — but the per-attribute
// most-current values derived from it serve as ground truth for
// verification and for simulating user interactions.

#ifndef CCR_DATA_DATASET_H_
#define CCR_DATA_DATASET_H_

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/resolver.h"

namespace ccr {

/// \brief One entity instance plus its ground truth.
struct EntityCase {
  EntityInstance instance;
  /// Per-attribute most-current value (from the hidden history); null when
  /// the attribute never carries a value.
  std::vector<Value> truth;
};

/// \brief A full experimental dataset: shared schema and constraints plus
/// many entities.
struct Dataset {
  std::string name;
  Schema schema;
  std::vector<CurrencyConstraint> sigma;
  std::vector<ConstantCfd> gamma;
  std::vector<EntityCase> entities;

  /// Builds the specification for entity `idx` with empty currency orders
  /// and (optionally) a subset of the constraints.
  ///
  /// `sigma_fraction` / `gamma_fraction` select a prefix-shuffled fraction
  /// of Σ / Γ (deterministic in `subset_seed`), used by the Fig. 8(f)-(p)
  /// sweeps.
  Specification MakeSpec(int idx, double sigma_fraction = 1.0,
                         double gamma_fraction = 1.0,
                         uint64_t subset_seed = 1) const;
};

/// Checks the corpus-size options every generator shares: num_entities
/// >= 0 and 1 <= min_tuples <= max_tuples. `what` names the options
/// struct in the error message.
Status ValidateCorpusSize(const char* what, int num_entities, int min_tuples,
                          int max_tuples);

/// \brief UserOracle that answers suggestions from the dataset's ground
/// truth — the paper's simulated users ("We simulated user interactions by
/// providing true values for suggested attributes, some with new values").
class TruthOracle : public UserOracle {
 public:
  /// `truth` is the per-attribute ground truth of the entity being
  /// resolved. `answers_per_round` caps how many suggested attributes the
  /// user fills in per interaction, and `answer_prob` < 1 makes the user
  /// skip an asked attribute with the complementary probability that
  /// round (§III: "The users do not have to enter values for all
  /// attributes in A") — both produce the gradual k-interaction curves of
  /// Fig. 8(e)/(i)/(m).
  explicit TruthOracle(std::vector<Value> truth,
                       int answers_per_round = 1 << 20,
                       double answer_prob = 1.0, uint64_t seed = 0xACE)
      : truth_(std::move(truth)),
        answers_per_round_(answers_per_round),
        answer_prob_(answer_prob),
        rng_(seed) {}

  std::vector<Answer> Provide(const Specification& se,
                              const Suggestion& suggestion,
                              const VarMap& vm) override;

  int rounds_answered() const { return rounds_answered_; }

 private:
  std::vector<Value> truth_;
  int answers_per_round_;
  double answer_prob_;
  Rng rng_;
  int rounds_answered_ = 0;
};

}  // namespace ccr

#endif  // CCR_DATA_DATASET_H_
