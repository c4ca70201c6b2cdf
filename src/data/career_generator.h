// CAREER-like synthetic data generator (§VI, "CAREER").
//
// The paper's CAREER data is CiteSeer publication metadata for 65 authors
// (schema: first_name, last_name, affiliation, city, country; one tuple
// per publication; 2–175 tuples per entity, about 32 on average). Its
// constraints come from citations — if paper A cites paper B by the same
// author, the affiliation/city/country in A are more current — yielding
// roughly 503 currency constraints and one CFD affiliation → (city,
// country) with 347 constant patterns.
//
// This generator synthesizes authors who move along a globally ordered
// "prestige ladder" of affiliations (global monotonicity keeps the pooled
// citation constraints acyclic, as real time-ordered citations are), plus
// a citation DAG over their papers. Affiliation-pair constraints are mined
// from the citation edges; the CFD patterns bind each affiliation to its
// (city, country). Optional noise misspells a city on non-final papers so
// the CFD repair path is exercised.

#ifndef CCR_DATA_CAREER_GENERATOR_H_
#define CCR_DATA_CAREER_GENERATOR_H_

#include <cstdint>

#include "src/data/dataset.h"

namespace ccr {

/// Parameters for the CAREER generator; defaults follow the paper's corpus
/// statistics.
struct CareerOptions {
  int num_entities = 65;
  int min_tuples = 2;
  int max_tuples = 175;
  double mean_tuples = 32.0;
  uint64_t seed = 11;

  int num_affiliations = 174;
  /// Every pattern_gap-th affiliation has no CFD pattern — discovered
  /// pattern tableaus are incomplete (the paper's single CFD carries 347
  /// patterns, fewer than two per affiliation). Authors ending at such an
  /// affiliation need a second interaction round for city/country, which
  /// is what caps CAREER at 2 rounds in Fig. 8(i).
  int pattern_gap = 11;
  int max_path = 8;            // affiliations per author
  /// Probability an author spends the whole career at one affiliation.
  /// Such authors have no affiliation conflict, so the CFD patterns can
  /// repair their misspelled cities with no currency information — the
  /// Γ-only regime of Fig. 8(l).
  double p_single_affiliation = 0.2;
  double p_cite = 0.65;        // per-slot citation probability
  int max_cites = 5;           // citation slots per paper
  double p_city_noise = 0.04;  // misspelled city on a non-final paper

  /// OK iff GenerateCareer can run on these options: the corpus size
  /// checks of ValidateCorpusSize, 2 <= max_path <= num_affiliations (a
  /// path visits distinct affiliations), and non-negative pattern_gap and
  /// max_cites. Check options taken from outside (CLI flags) with it.
  Status Validate() const;
};

/// Generates the dataset; deterministic in `options.seed`. Aborts when
/// `options.Validate()` fails.
Dataset GenerateCareer(const CareerOptions& options = {});

}  // namespace ccr

#endif  // CCR_DATA_CAREER_GENERATOR_H_
