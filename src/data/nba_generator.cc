#include "src/data/nba_generator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "src/common/rng.h"
#include "src/common/status.h"

namespace ccr {

namespace {

enum NbaAttr {
  kPid = 0,
  kPlayerName,
  kTrueName,
  kTeam,
  kLeague,
  kTname,
  kPoints,
  kPoss,
  kAllpoints,
  kMin,
  kArena,
  kOpened,
  kCapacity,
  kCity,
  kNbaAttrCount,
};

std::string Label(const char* prefix, int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%03d", prefix, i);
  return buf;
}

// Global league structure: team timelines with renames and arena moves.
struct TeamInfo {
  std::vector<std::string> tnames;     // historical names, oldest first
  int rename_season = -1;              // season at which tnames[1] starts
  std::vector<int> arenas;             // arena ids, oldest first
  std::vector<int> move_seasons;       // season arena[i+1] starts, i >= 0
};

struct ArenaInfo {
  std::string name;
  std::string city;
  int opened = 0;
  int capacity = 0;
};

}  // namespace

Status NbaOptions::Validate() const {
  CCR_RETURN_NOT_OK(ValidateCorpusSize("NbaOptions", num_entities,
                                       min_tuples, max_tuples));
  // GenerateNba builds the paper's league only: 58 arenas over 26 teams,
  // 15 of them renamed, for exactly 54 constraints and 58 CFDs.
  if (num_teams != 26 || num_renames != 15) {
    return Status::InvalidArgument(
        "NbaOptions: the league needs num_teams = 26 and num_renames = 15");
  }
  if (max_seasons < 4) {
    return Status::InvalidArgument("NbaOptions: max_seasons must be >= 4");
  }
  return Status::OK();
}

Dataset GenerateNba(const NbaOptions& options) {
  CCR_CHECK(options.Validate().ok());
  Dataset ds;
  ds.name = "NBA";
  auto schema = Schema::Make({"pid", "name", "true_name", "team", "league",
                              "tname", "points", "poss", "allpoints", "min",
                              "arena", "opened", "capacity", "city"});
  CCR_CHECK(schema.ok());
  ds.schema = std::move(schema).value();
  std::vector<CurrencyConstraint> sigma;
  std::vector<ConstantCfd> gamma;

  Rng master(options.seed);

  // --- league structure ---------------------------------------------------
  // 26 teams share 58 arenas: 6 teams with 3 arenas (2 moves) and 20 with
  // 2 arenas (1 move) => 6*3 + 20*2 = 58 arenas, 6*2 + 20*1 = 32 moves.
  std::vector<TeamInfo> teams(options.num_teams);
  std::vector<ArenaInfo> arenas;
  int arena_serial = 0;
  auto new_arena = [&]() {
    ArenaInfo a;
    a.name = Label("Arena_", arena_serial);
    a.city = Label("City_", arena_serial);
    a.opened = 1900 + arena_serial;          // globally distinct
    a.capacity = 15000 + 37 * arena_serial;  // globally distinct
    ++arena_serial;
    arenas.push_back(a);
    return arena_serial - 1;
  };
  for (int t = 0; t < options.num_teams; ++t) {
    TeamInfo& info = teams[t];
    info.tnames.push_back(Label("Team_", t));
    if (t < options.num_renames) {
      info.tnames.push_back(Label("Team_", t) + "_new");
      info.rename_season =
          static_cast<int>(master.Range(2, options.max_seasons - 2));
    }
    const int n_arenas = (t < 6) ? 3 : 2;
    for (int a = 0; a < n_arenas; ++a) info.arenas.push_back(new_arena());
    // Move seasons strictly increasing within the career window.
    int prev = 1;
    for (int m = 0; m + 1 < n_arenas; ++m) {
      prev = static_cast<int>(
          master.Range(prev + 1, options.max_seasons - 2 + m));
      info.move_seasons.push_back(prev);
    }
  }
  auto team_tname = [&](int t, int season) -> const std::string& {
    const TeamInfo& info = teams[t];
    if (info.rename_season >= 0 && season >= info.rename_season) {
      return info.tnames[1];
    }
    return info.tnames[0];
  };
  auto team_arena = [&](int t, int season) {
    const TeamInfo& info = teams[t];
    int idx = 0;
    for (size_t m = 0; m < info.move_seasons.size(); ++m) {
      if (season >= info.move_seasons[m]) idx = static_cast<int>(m) + 1;
    }
    return info.arenas[idx];
  };

  // --- Σ: 54 currency constraints ------------------------------------------
  // 15 tname rename pairs (ϕ1 form).
  for (int t = 0; t < options.num_renames; ++t) {
    CurrencyConstraint phi(kTname);
    phi.AddConstCompare(1, kTname, CmpOp::kEq, Value::Str(teams[t].tnames[0]));
    phi.AddConstCompare(2, kTname, CmpOp::kEq, Value::Str(teams[t].tnames[1]));
    sigma.push_back(std::move(phi));
  }
  // 32 arena move pairs (ϕ2 form).
  for (const TeamInfo& info : teams) {
    for (size_t m = 0; m + 1 < info.arenas.size(); ++m) {
      CurrencyConstraint phi(kArena);
      phi.AddConstCompare(1, kArena, CmpOp::kEq,
                          Value::Str(arenas[info.arenas[m]].name));
      phi.AddConstCompare(2, kArena, CmpOp::kEq,
                          Value::Str(arenas[info.arenas[m + 1]].name));
      sigma.push_back(std::move(phi));
    }
  }
  // 4 allpoints constraints (ϕ3 form): the monotone career total orders
  // itself and the per-season stats.
  {
    CurrencyConstraint phi(kAllpoints);
    phi.AddAttrCompare(kAllpoints, CmpOp::kLt);
    sigma.push_back(std::move(phi));
  }
  for (int target : {kPoints, kPoss, kMin}) {
    CurrencyConstraint phi(target);
    phi.AddAttrCompare(kAllpoints, CmpOp::kLt);
    phi.AddAttrCompare(target, CmpOp::kNe);
    sigma.push_back(std::move(phi));
  }
  // 3 arena propagation rules (ϕ4 form).
  for (int target : {kOpened, kCapacity, kCity}) {
    CurrencyConstraint phi(target);
    phi.AddOrder(kArena);
    phi.AddAttrCompare(target, CmpOp::kNe);
    sigma.push_back(std::move(phi));
  }
  CCR_CHECK(static_cast<int>(sigma.size()) == 54);

  // --- Γ: 58 arena → city CFDs (ψ1 form) -----------------------------------
  for (const ArenaInfo& a : arenas) {
    gamma.emplace_back(
        std::vector<std::pair<int, Value>>{{kArena, Value::Str(a.name)}},
        kCity, Value::Str(a.city));
  }
  CCR_CHECK(static_cast<int>(gamma.size()) == 58);

  // --- entities -------------------------------------------------------------
  ds.entities.reserve(options.num_entities);
  for (int e = 0; e < options.num_entities; ++e) {
    Rng rng = master.Fork();
    // Tuple count: geometric-ish around the mean, clamped to [min, max].
    int s = options.min_tuples;
    {
      const double u = rng.NextDouble();
      const double span = options.mean_tuples - options.min_tuples;
      s = options.min_tuples +
          static_cast<int>(-span * 0.9 *
                           std::log(std::max(1e-9, 1.0 - u)));
      s = std::clamp(s, options.min_tuples, options.max_tuples);
    }

    const int n_seasons =
        static_cast<int>(rng.Range(3, options.max_seasons));
    std::unordered_set<int> used_teams;
    int team = static_cast<int>(rng.Below(options.num_teams));
    used_teams.insert(team);

    // Hidden per-season history.
    std::vector<Tuple> history;
    int64_t allpoints = 0;
    const std::string pname = "Player_" + std::to_string(e);
    for (int season = 0; season < n_seasons; ++season) {
      if (season > 0 && rng.Chance(options.p_team_change)) {
        // Move to a team never played for (keeps histories acyclic).
        for (int tries = 0; tries < 8; ++tries) {
          const int cand = static_cast<int>(rng.Below(options.num_teams));
          if (!used_teams.count(cand)) {
            team = cand;
            used_teams.insert(cand);
            break;
          }
        }
      }
      // Per-season stats: distinct within the player (season offsets) so
      // the ϕ3 orders can never cycle.
      const int points =
          200 + season * 977 + static_cast<int>(rng.Below(900));
      const int poss = 500 + season * 1201 + static_cast<int>(rng.Below(1100));
      const int minutes =
          400 + season * 1069 + static_cast<int>(rng.Below(1000));
      allpoints += points;
      const int arena_id = team_arena(team, season);
      const ArenaInfo& arena = arenas[arena_id];
      history.emplace_back(Tuple(
          {Value::Int(e), Value::Str(pname), Value::Str(pname),
           Value::Str(Label("Team_", team)), Value::Str("NBA"),
           Value::Str(team_tname(team, season)), Value::Int(points),
           Value::Int(poss), Value::Int(allpoints), Value::Int(minutes),
           Value::Str(arena.name), Value::Int(arena.opened),
           Value::Int(arena.capacity), Value::Str(arena.city)}));
    }

    EntityCase ec;
    ec.instance = EntityInstance(ds.schema, pname);
    int max_season = -1;
    std::vector<int> sampled(s);
    for (int t = 0; t < s; ++t) {
      sampled[t] = static_cast<int>(rng.Below(n_seasons));
    }
    if (s >= 2) {
      sampled[0] = 0;
      sampled[1] = n_seasons - 1;
    }
    // Misspell some city values (never the first clean occurrence, so
    // every city's true spelling stays present in the instance).
    std::unordered_set<std::string> clean_seen;
    for (int v : sampled) {
      Tuple t = history[v];
      const std::string& city = t[kCity].as_string();
      if (clean_seen.count(city) && rng.Chance(options.p_city_dirt)) {
        t[kCity] = Value::Str(city + "*");
      } else {
        clean_seen.insert(city);
      }
      CCR_CHECK(ec.instance.Add(std::move(t)).ok());
      max_season = std::max(max_season, v);
    }
    ec.truth = history[max_season].values();
    ds.entities.push_back(std::move(ec));
  }
  ds.SetRules(std::move(sigma), std::move(gamma));
  return ds;
}

}  // namespace ccr
