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

#include <memory>
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
  /// Σ and Γ, made once for `schema`; every specification MakeSpec builds
  /// with the full constraint sets shares it.
  std::shared_ptr<const RuleSet> rules = RuleSet::Empty();
  std::vector<EntityCase> entities;

  const std::vector<CurrencyConstraint>& sigma() const {
    return rules->sigma();
  }
  const std::vector<ConstantCfd>& gamma() const { return rules->gamma(); }

  /// Makes `rules` from Σ and Γ for `schema`. Aborts when a constraint
  /// names an attribute outside the schema: generators build them.
  void SetRules(std::vector<CurrencyConstraint> sigma,
                std::vector<ConstantCfd> gamma);

  /// The rule set of a fraction of Σ / Γ: `sigma_fraction` /
  /// `gamma_fraction` select a prefix-shuffled fraction of each
  /// (deterministic in `subset_seed`), used by the Fig. 8(f)-(p) sweeps.
  /// Fractions of 1 return `rules` itself.
  std::shared_ptr<const RuleSet> SubsetRules(double sigma_fraction,
                                             double gamma_fraction,
                                             uint64_t subset_seed) const;

  /// Builds the specification for entity `idx` with empty currency orders
  /// and `rules` (this dataset's `rules` when null), which must fit
  /// `schema`; pass SubsetRules for a fraction of the constraints.
  Specification MakeSpec(int idx,
                         std::shared_ptr<const RuleSet> rules = nullptr) const;
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
