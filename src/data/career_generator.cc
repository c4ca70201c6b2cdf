#include "src/data/career_generator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "src/common/rng.h"
#include "src/common/status.h"

namespace ccr {

namespace {

enum CareerAttr {
  kFirstName = 0,
  kLastName,
  kAffiliation,
  kCity,
  kCountry,
  kCareerAttrCount,
};

std::string Label(const char* prefix, int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%03d", prefix, i);
  return buf;
}

}  // namespace

Status CareerOptions::Validate() const {
  CCR_RETURN_NOT_OK(ValidateCorpusSize("CareerOptions", num_entities,
                                       min_tuples, max_tuples));
  if (max_path < 2 || max_path > num_affiliations) {
    return Status::InvalidArgument(
        "CareerOptions: need 2 <= max_path <= num_affiliations");
  }
  if (pattern_gap < 0 || max_cites < 0) {
    return Status::InvalidArgument(
        "CareerOptions: pattern_gap and max_cites must be >= 0");
  }
  return Status::OK();
}

Dataset GenerateCareer(const CareerOptions& options) {
  CCR_CHECK(options.Validate().ok());
  Dataset ds;
  ds.name = "CAREER";
  auto schema = Schema::Make(
      {"first_name", "last_name", "affiliation", "city", "country"});
  CCR_CHECK(schema.ok());
  ds.schema = std::move(schema).value();
  std::vector<CurrencyConstraint> sigma;
  std::vector<ConstantCfd> gamma;

  // Affiliation i sits in city "Cty_i" and one of 40 countries; the CFD
  // affiliation → (city, country) becomes two constant CFDs per pattern.
  std::vector<std::string> aff_city(options.num_affiliations);
  std::vector<std::string> aff_country(options.num_affiliations);
  for (int i = 0; i < options.num_affiliations; ++i) {
    aff_city[i] = Label("Cty_", i);
    aff_country[i] = Label("Country_", i % 40);
    // Pattern tableaus discovered from data are incomplete; skip every
    // pattern_gap-th affiliation.
    if (options.pattern_gap > 0 && i % options.pattern_gap == 5) continue;
    gamma.emplace_back(
        std::vector<std::pair<int, Value>>{
            {kAffiliation, Value::Str(Label("Univ_", i))}},
        kCity, Value::Str(aff_city[i]));
    gamma.emplace_back(
        std::vector<std::pair<int, Value>>{
            {kAffiliation, Value::Str(Label("Univ_", i))}},
        kCountry, Value::Str(aff_country[i]));
  }

  Rng master(options.seed);

  // First pass: author paths and citation DAGs; mine the pooled
  // affiliation-pair constraints from citation edges.
  struct Author {
    std::vector<int> path;       // strictly increasing affiliation ids
    std::vector<int> paper_aff;  // affiliation id per paper
  };
  std::vector<Author> authors(options.num_entities);
  std::set<std::pair<int, int>> cited_pairs;  // (older aff, newer aff)

  for (int e = 0; e < options.num_entities; ++e) {
    Rng rng = master.Fork();
    Author& author = authors[e];

    // Strictly increasing path over the global affiliation ladder.
    const int path_len =
        rng.Chance(options.p_single_affiliation)
            ? 1
            : static_cast<int>(rng.Range(2, options.max_path));
    std::set<int> chosen;
    while (static_cast<int>(chosen.size()) < path_len) {
      chosen.insert(static_cast<int>(rng.Below(options.num_affiliations)));
    }
    author.path.assign(chosen.begin(), chosen.end());

    // Papers: count from a truncated geometric around the mean; each paper
    // belongs to a path stage, stages non-decreasing over time.
    int n_papers;
    {
      const double u = rng.NextDouble();
      const double span = options.mean_tuples - options.min_tuples;
      n_papers = options.min_tuples +
                 static_cast<int>(-span * 0.9 *
                                  std::log(std::max(1e-9, 1.0 - u)));
      n_papers = std::clamp(n_papers, options.min_tuples,
                            options.max_tuples);
    }
    author.paper_aff.resize(n_papers);
    for (int p = 0; p < n_papers; ++p) {
      const int stage = std::min<int>(
          static_cast<int>(author.path.size()) - 1,
          static_cast<int>(p * author.path.size() / n_papers));
      author.paper_aff[p] = author.path[stage];
    }
    // Make sure the final affiliation appears.
    author.paper_aff[n_papers - 1] = author.path.back();

    // Citation DAG: paper p cites up to max_cites earlier papers, drawn
    // uniformly from the author's whole back catalogue (real citations
    // reach back across affiliations, which is what makes the pooled
    // constraint set large — ≈503 pairs in the paper's corpus).
    for (int p = 1; p < n_papers; ++p) {
      for (int c = 0; c < options.max_cites; ++c) {
        if (!rng.Chance(options.p_cite)) continue;
        const int q = static_cast<int>(rng.Below(p));
        const int a_old = author.paper_aff[q];
        const int a_new = author.paper_aff[p];
        if (a_old != a_new) cited_pairs.emplace(a_old, a_new);
      }
    }
  }

  // Σ: one constraint per cited (older, newer) affiliation pair — the
  // paper's "if paper A cites paper B then the affiliation used in A is
  // more current" rule, pooled across the corpus (≈ 503 in the paper).
  for (const auto& [a_old, a_new] : cited_pairs) {
    CurrencyConstraint phi(kAffiliation);
    phi.AddConstCompare(1, kAffiliation, CmpOp::kEq,
                        Value::Str(Label("Univ_", a_old)));
    phi.AddConstCompare(2, kAffiliation, CmpOp::kEq,
                        Value::Str(Label("Univ_", a_new)));
    sigma.push_back(std::move(phi));
  }

  // Second pass: materialize tuples and ground truth.
  Rng noise_rng(options.seed ^ 0xDECAF);
  for (int e = 0; e < options.num_entities; ++e) {
    const Author& author = authors[e];
    const std::string first = "First_" + std::to_string(e);
    const std::string last = "Last_" + std::to_string(e);

    EntityCase ec;
    ec.instance = EntityInstance(ds.schema, first + " " + last);
    const int n_papers = static_cast<int>(author.paper_aff.size());
    for (int p = 0; p < n_papers; ++p) {
      const int aff = author.paper_aff[p];
      std::string city = aff_city[aff];
      if (p + 1 < n_papers && noise_rng.Chance(options.p_city_noise)) {
        city += "_misspelled";  // repaired by the CFD during resolution
      }
      CCR_CHECK(ec.instance
                    .Add(Tuple({Value::Str(first), Value::Str(last),
                                Value::Str(Label("Univ_", aff)),
                                Value::Str(city),
                                Value::Str(aff_country[aff])}))
                    .ok());
    }
    const int last_aff = author.paper_aff[n_papers - 1];
    ec.truth = {Value::Str(first), Value::Str(last),
                Value::Str(Label("Univ_", last_aff)),
                Value::Str(aff_city[last_aff]),
                Value::Str(aff_country[last_aff])};
    ds.entities.push_back(std::move(ec));
  }
  ds.SetRules(std::move(sigma), std::move(gamma));
  return ds;
}

}  // namespace ccr
