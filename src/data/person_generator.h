// Person synthetic data generator (§VI, "Person data").
//
// Reimplements the paper's generator: the schema of Fig. 2 (name, status,
// job, kids, city, AC, zip, county); 983 currency constraints of the same
// forms as ϕ1–ϕ8 but with distinct constants (long status/job transition
// chains, monotone kids, status→job/AC/zip and city∧zip→county
// propagation); and a single CFD AC → city with 1000 constant patterns.
//
// Each entity evolves through a hidden version history: status/job advance
// along the chains, kids grow monotonically, and occasional moves change
// (city, AC, zip, county) consistently with the CFD patterns. The entity
// instance samples snapshot versions (the paper's E \ {t_c}: the final
// state itself is excluded); ground truth per attribute is the most
// current value that actually appears in the instance.
//
// Two knobs create the need for user interaction, mirroring the real-data
// behaviour of Fig. 8(m)-(p):
//   * gap transitions: a status/job step occasionally jumps two chain
//     positions, so the consecutive-pair constraints cannot order the
//     observed values (the currency information genuinely is not in Σ);
//   * ghost tuples: stale off-history values that no constraint orders.

#ifndef CCR_DATA_PERSON_GENERATOR_H_
#define CCR_DATA_PERSON_GENERATOR_H_

#include <cstdint>

#include "src/data/dataset.h"

namespace ccr {

/// Parameters for the Person generator. Defaults reproduce the paper's
/// setup (n = 10k entities is scaled down by default; benches override).
struct PersonOptions {
  int num_entities = 100;
  int min_tuples = 4;    // s: size of entity instances
  int max_tuples = 40;
  uint64_t seed = 42;

  int status_chain = 500;  // 499 consecutive-pair constraints
  int job_chain = 480;     // 479 consecutive-pair constraints
  int num_cities = 1000;   // 1000 AC → city CFD patterns

  /// Probability that a version step is a *break*: both status and job
  /// jump two chain positions at once, so neither the consecutive-pair
  /// constraints nor contrapositive reasoning through ϕ5 can order the
  /// values across the cut — the currency information genuinely is not in
  /// Σ and user input is required (the Fig. 8(m) regime).
  double p_status_gap = 0.35;
  /// Probability of an additional job-only chain skip on a normal step
  /// (harmless for resolution — job still follows status via ϕ5 — but
  /// adds realistic variety).
  double p_job_gap = 0.12;
  double p_move = 0.45;        // prob. a version changes city/AC/zip
  /// Probability of a *mid-stage move*: a version where only city/AC/zip
  /// change while status/job/kids stay put. ϕ6/ϕ7 cannot order such AC and
  /// zip values even once status is known (equal status on both sides),
  /// so these attributes need their own user answers — the source of
  /// Person's third interaction round (Fig. 8(m)).
  double p_move_only = 0.22;
  double p_ghost = 0.06;       // prob. of a stale ghost tuple per entity
  /// Probability that a sampled tuple's city is misspelled (AC intact).
  /// The AC → city CFD repairs these; entities that never moved need no
  /// currency information for the repair (Fig. 8(p)'s non-zero floor).
  double p_city_dirt = 0.08;

  /// OK iff GeneratePerson can run on these options: the corpus size
  /// checks of ValidateCorpusSize, non-negative chain lengths and at least
  /// one city. Check options taken from outside (CLI flags) with it.
  Status Validate() const;
};

/// Generates the dataset; deterministic in `options.seed`. Aborts when
/// `options.Validate()` fails.
Dataset GeneratePerson(const PersonOptions& options = {});

}  // namespace ccr

#endif  // CCR_DATA_PERSON_GENERATOR_H_
