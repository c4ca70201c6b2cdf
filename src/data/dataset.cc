#include "src/data/dataset.h"

#include <string>

#include "src/common/rng.h"

namespace ccr {

namespace {

// Deterministically selects ceil(fraction * n) indices of [0, n).
std::vector<int> SelectFraction(int n, double fraction, uint64_t seed) {
  std::vector<int> idx(n);
  for (int i = 0; i < n; ++i) idx[i] = i;
  if (fraction >= 1.0) return idx;
  Rng rng(seed);
  rng.Shuffle(&idx);
  const int keep = static_cast<int>(fraction * n + 0.5);
  idx.resize(keep);
  return idx;
}

}  // namespace

Status ValidateCorpusSize(const char* what, int num_entities, int min_tuples,
                          int max_tuples) {
  if (num_entities < 0) {
    return Status::InvalidArgument(std::string(what) +
                                   ": num_entities must be >= 0");
  }
  if (min_tuples < 1 || min_tuples > max_tuples) {
    return Status::InvalidArgument(
        std::string(what) + ": need 1 <= min_tuples <= max_tuples, got " +
        std::to_string(min_tuples) + " and " + std::to_string(max_tuples));
  }
  return Status::OK();
}

void Dataset::SetRules(std::vector<CurrencyConstraint> sigma,
                       std::vector<ConstantCfd> gamma) {
  Result<std::shared_ptr<const RuleSet>> made =
      RuleSet::Make(schema.size(), std::move(sigma), std::move(gamma));
  CCR_CHECK(made.ok());
  rules = std::move(made).value();
}

std::shared_ptr<const RuleSet> Dataset::SubsetRules(
    double sigma_fraction, double gamma_fraction,
    uint64_t subset_seed) const {
  if (sigma_fraction >= 1.0 && gamma_fraction >= 1.0) return rules;
  std::vector<CurrencyConstraint> sigma_part;
  for (int i : SelectFraction(static_cast<int>(sigma().size()),
                              sigma_fraction, subset_seed)) {
    sigma_part.push_back(sigma()[i]);
  }
  std::vector<ConstantCfd> gamma_part;
  for (int i : SelectFraction(static_cast<int>(gamma().size()),
                              gamma_fraction, subset_seed ^ 0xABCDEF)) {
    gamma_part.push_back(gamma()[i]);
  }
  // A subset of a rule set made for `schema` fits it.
  Result<std::shared_ptr<const RuleSet>> made = RuleSet::Make(
      schema.size(), std::move(sigma_part), std::move(gamma_part));
  CCR_CHECK(made.ok());
  return std::move(made).value();
}

Specification Dataset::MakeSpec(int idx,
                                std::shared_ptr<const RuleSet> rules) const {
  Specification se;
  se.temporal = TemporalInstance(entities[idx].instance);
  se.rules = rules != nullptr ? std::move(rules) : this->rules;
  return se;
}

std::vector<UserOracle::Answer> TruthOracle::Provide(
    const Specification& se, const Suggestion& suggestion,
    const VarMap& vm) {
  (void)se;
  (void)vm;
  std::vector<Answer> answers;
  bool skipped_any = false;
  for (int attr : suggestion.attrs) {
    if (static_cast<int>(answers.size()) >= answers_per_round_) break;
    const Value& v = truth_[attr];
    if (v.is_null()) continue;  // user has no knowledge of this attribute
    if (!rng_.Chance(answer_prob_)) {
      skipped_any = true;  // hesitates this round; may answer next time
      continue;
    }
    answers.push_back(Answer{attr, v});
  }
  // If everything was skipped by hesitation, answer one attribute anyway:
  // a user who keeps the session open contributes something each round.
  if (answers.empty() && skipped_any) {
    for (int attr : suggestion.attrs) {
      if (!truth_[attr].is_null()) {
        answers.push_back(Answer{attr, truth_[attr]});
        break;
      }
    }
  }
  if (!answers.empty()) ++rounds_answered_;
  return answers;
}

}  // namespace ccr
