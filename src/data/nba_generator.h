// NBA-like synthetic data generator (§VI, "NBA player statistics").
//
// The paper's NBA table joins player stats with team and arena histories
// scraped from the web; the data itself is not redistributable, so this
// generator synthesizes a league whose *constraint structure* matches the
// paper's description exactly:
//   * 14-attribute schema (pid, name, true_name, team, league, tname,
//     points, poss, allpoints, min, arena, opened, capacity, city);
//   * 54 currency constraints: 15 team-rename pairs on tname (ϕ1 form),
//     32 arena-move pairs (ϕ2 form), 4 for the monotone career total
//     allpoints (ϕ3 form: allpoints itself plus points/poss/min), and 3
//     propagation rules from the arena order to opened/capacity/city
//     (ϕ4 form);
//   * 58 constant CFDs arena → city (ψ1 form);
//   * 760 entities with 2–136 tuples each (about 27 on average).
//
// Team and arena timelines are globally monotone and players never return
// to a previous team, so the generated histories can never contradict the
// constraints (the paper's instances are likewise constraint-consistent).

#ifndef CCR_DATA_NBA_GENERATOR_H_
#define CCR_DATA_NBA_GENERATOR_H_

#include <cstdint>

#include "src/data/dataset.h"

namespace ccr {

/// Parameters for the NBA generator; defaults follow the paper's corpus
/// statistics (scaled-down entity count by default; benches override).
struct NbaOptions {
  int num_entities = 100;
  int min_tuples = 2;
  int max_tuples = 136;
  double mean_tuples = 27.0;
  uint64_t seed = 7;

  int num_teams = 26;       // 58 arenas over 26 teams => 32 move pairs
  int num_renames = 15;     // teams whose tname changed once
  int max_seasons = 14;     // career length cap
  double p_team_change = 0.45;
  /// Probability that a tuple's city is a misspelled variant of the
  /// arena's city (the paper's NBA table joined three web sources with
  /// inconsistent spellings). The arena → city CFDs repair these; for
  /// single-arena players the repair needs no currency information at
  /// all, which is what keeps the Γ-only curves of Fig. 8(h) above zero.
  double p_city_dirt = 0.10;

  /// OK iff GenerateNba can run on these options: the corpus size checks
  /// of ValidateCorpusSize, the paper's league (num_teams = 26,
  /// num_renames = 15: 54 constraints, 58 CFDs) and max_seasons >= 4
  /// (renames and arena moves happen in seasons [2, max_seasons - 2]).
  /// Check options taken from outside (CLI flags) with it.
  Status Validate() const;
};

/// Generates the dataset; deterministic in `options.seed`. Aborts when
/// `options.Validate()` fails.
Dataset GenerateNba(const NbaOptions& options = {});

}  // namespace ccr

#endif  // CCR_DATA_NBA_GENERATOR_H_
