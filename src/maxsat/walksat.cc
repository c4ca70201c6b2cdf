#include "src/maxsat/walksat.h"

#include <algorithm>
#include <cstdint>

#include "src/common/status.h"

namespace ccr::maxsat {

using sat::Cnf;
using sat::Lit;

namespace {

Status ValidateOptions(const WalkSatOptions& options) {
  if (options.max_flips <= 0) {
    return Status::InvalidArgument("WalkSatOptions.max_flips must be > 0");
  }
  if (options.tries <= 0) {
    return Status::InvalidArgument("WalkSatOptions.tries must be > 0");
  }
  if (!(options.noise >= 0.0 && options.noise <= 1.0)) {
    return Status::InvalidArgument(
        "WalkSatOptions.noise must lie in [0, 1]");
  }
  return Status::OK();
}

bool LitTrue(const std::vector<uint8_t>& assign, Lit l) {
  return (assign[l.var()] != 0) != l.negated();
}

void MarkUnsat(WalkSatScratch* s, int clause) {
  if (s->unsat_pos[clause] >= 0) return;
  s->unsat_pos[clause] = static_cast<int>(s->unsat_clauses.size());
  s->unsat_clauses.push_back(clause);
}

void MarkSat(WalkSatScratch* s, int clause) {
  const int pos = s->unsat_pos[clause];
  if (pos < 0) return;
  const int last = s->unsat_clauses.back();
  s->unsat_clauses[pos] = last;
  s->unsat_pos[last] = pos;
  s->unsat_clauses.pop_back();
  s->unsat_pos[clause] = -1;
}

void Flip(WalkSatScratch* s, sat::Var v) {
  const uint8_t new_val = s->assign[v] ^ 1;
  s->assign[v] = new_val;
  const Lit now_true = sat::Lit(v, /*negated=*/new_val == 0);
  const Lit now_false = ~now_true;
  for (int j = s->occ_start[now_true.index()];
       j < s->occ_start[now_true.index() + 1]; ++j) {
    if (++s->true_count[s->occ[j]] == 1) MarkSat(s, s->occ[j]);
  }
  for (int j = s->occ_start[now_false.index()];
       j < s->occ_start[now_false.index() + 1]; ++j) {
    if (--s->true_count[s->occ[j]] == 0) MarkUnsat(s, s->occ[j]);
  }
}

// Number of currently-satisfied clauses that flipping v would break
// (clauses where v's literal is the only true one).
int BreakCount(const WalkSatScratch& s, sat::Var v) {
  const Lit cur_true = sat::Lit(v, /*negated=*/s.assign[v] == 0);
  int breaks = 0;
  for (int j = s.occ_start[cur_true.index()];
       j < s.occ_start[cur_true.index() + 1]; ++j) {
    if (s.true_count[s.occ[j]] == 1) ++breaks;
  }
  return breaks;
}

}  // namespace

Result<WalkSatResult> RunWalkSat(const Cnf& cnf,
                                 const WalkSatOptions& options,
                                 WalkSatScratch* scratch) {
  CCR_RETURN_NOT_OK(ValidateOptions(options));
  // The paper's Walksat searches the full Φ(Se): spell the order blocks'
  // transitivity axioms out as clauses first.
  if (cnf.num_order_blocks() > 0) {
    return RunWalkSat(cnf.Materialized(), options, scratch);
  }
  WalkSatResult result;
  const int n_vars = cnf.num_vars();
  const int n_clauses = cnf.num_clauses();
  result.model.assign(n_vars, false);
  result.best_unsat = n_clauses;

  Rng rng(options.seed);
  WalkSatScratch local;
  WalkSatScratch& s = scratch != nullptr ? *scratch : local;

  // Occurrence lists (lit index -> clause ids) in flat CSR form so a
  // pooled scratch clears in O(buffers), not O(vars).
  s.occ_start.assign(static_cast<size_t>(2 * n_vars) + 1, 0);
  int total_lits = 0;
  for (int c = 0; c < n_clauses; ++c) {
    for (Lit l : cnf.clause(c)) {
      ++s.occ_start[l.index() + 1];
      ++total_lits;
    }
  }
  for (size_t i = 1; i < s.occ_start.size(); ++i) {
    s.occ_start[i] += s.occ_start[i - 1];
  }
  s.occ.resize(static_cast<size_t>(total_lits));
  s.cursor.assign(s.occ_start.begin(), s.occ_start.end() - 1);
  for (int c = 0; c < n_clauses; ++c) {
    for (Lit l : cnf.clause(c)) s.occ[s.cursor[l.index()]++] = c;
  }

  for (int attempt = 0; attempt < options.tries; ++attempt) {
    s.assign.resize(static_cast<size_t>(n_vars));
    for (int v = 0; v < n_vars; ++v) s.assign[v] = rng.Chance(0.5) ? 1 : 0;
    s.true_count.assign(static_cast<size_t>(n_clauses), 0);
    s.unsat_clauses.clear();
    s.unsat_pos.assign(static_cast<size_t>(n_clauses), -1);
    for (int c = 0; c < n_clauses; ++c) {
      for (Lit l : cnf.clause(c)) {
        if (LitTrue(s.assign, l)) ++s.true_count[c];
      }
      if (s.true_count[c] == 0) MarkUnsat(&s, c);
    }

    for (int64_t flip = 0; flip < options.max_flips; ++flip) {
      const int unsat_now = static_cast<int>(s.unsat_clauses.size());
      if (unsat_now < result.best_unsat) {
        result.best_unsat = unsat_now;
        for (int v = 0; v < n_vars; ++v) result.model[v] = s.assign[v] != 0;
      }
      if (unsat_now == 0) {
        result.satisfied = true;
        return result;
      }
      // Pick a random unsatisfied clause.
      const int c = s.unsat_clauses[static_cast<size_t>(
          rng.Below(s.unsat_clauses.size()))];
      auto lits = cnf.clause(c);
      if (lits.empty()) break;  // empty clause: formula can't be satisfied
      // Freebie move: a variable with break count 0, else noise/greedy.
      sat::Var chosen = sat::kVarUndef;
      int best_break = INT32_MAX;
      s.zero_break.clear();
      for (Lit l : lits) {
        const int b = BreakCount(s, l.var());
        if (b == 0) s.zero_break.push_back(l.var());
        if (b < best_break) {
          best_break = b;
          chosen = l.var();
        }
      }
      if (!s.zero_break.empty()) {
        chosen = rng.PickFrom(s.zero_break);
      } else if (rng.Chance(options.noise)) {
        chosen = lits[static_cast<size_t>(rng.Below(lits.size()))].var();
      }
      CCR_DCHECK(chosen != sat::kVarUndef);
      Flip(&s, chosen);
    }
  }
  return result;
}

}  // namespace ccr::maxsat
