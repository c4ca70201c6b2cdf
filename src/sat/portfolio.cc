// Portfolio race implementation: team lifecycle, formula mirroring, the
// clause-sharing ring protocol, and the race itself. See portfolio.h for
// the design and the determinism contract.

#include "src/sat/portfolio.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "src/common/status.h"
#include "src/sat/solver.h"

namespace ccr::sat {

// Out of line because PortfolioTeam is incomplete in solver.h.
Solver::~Solver() = default;

void ClauseShareRing::BeginRace(int workers) {
  workers_ = workers;
  while (bufs_.size() < static_cast<size_t>(workers)) {
    bufs_.push_back(std::make_unique<ClauseExportBuf>());
  }
  for (int w = 0; w < workers; ++w) bufs_[w]->Reset();
  cursors_.assign(static_cast<size_t>(workers),
                  std::vector<size_t>(static_cast<size_t>(workers), 0));
}

PortfolioTeam::PortfolioTeam(const SolverOptions& master_options,
                             int workers) {
  helpers.reserve(static_cast<size_t>(workers - 1));
  for (int w = 1; w < workers; ++w) {
    helpers.push_back(
        std::make_unique<Solver>(DiversifiedOptions(master_options, w)));
  }
}

SolverOptions PortfolioTeam::DiversifiedOptions(const SolverOptions& base,
                                                int w) {
  SolverOptions o = base;
  // Helpers never race recursively, never simplify (the master owns
  // inprocessing/BVE; a helper that eliminated variables could no longer
  // adopt-export its models), never run local search (pure CDCL keeps a
  // helper's whole budget on search), and never answer from a model
  // cache (their solves are always real races).
  o.portfolio_threads = 0;
  o.use_inprocessing = false;
  o.use_bve = false;
  o.use_sls_seeding = false;
  o.use_sls_probing = false;
  o.use_model_cache = false;
  // Diversity: each slot flips a different corner of the flag matrix the
  // ablation suite already proves verdict-neutral, so every helper
  // explores a genuinely different search trajectory on the same
  // formula.
  switch (w % 4) {
    case 1:
      o.use_ema_restarts = false;  // Luby cadence vs. the master's EMA
      break;
    case 2:
      o.use_deep_ccmin = false;  // longer learnts, different 1-UIP shape
      o.var_decay = 0.85;        // faster-moving VSIDS focus
      break;
    case 3:
      o.use_phase_saving = false;  // default-false polarities
      o.var_decay = 0.75;
      break;
    default:  // w % 4 == 0
      o.use_ema_restarts = false;
      o.use_lbd_tiers = false;  // MiniSat-style activity-only learnt DB
      break;
  }
  return o;
}

void Solver::SyncTeam() {
  if (team_ == nullptr) {
    team_ = std::make_unique<PortfolioTeam>(options_,
                                            options_.portfolio_threads);
  }
  // Replay the mirror op log into every helper, in call order, so each
  // holds the caller's formula with identical variable ids (NewVar
  // allocates densely, so growing to a clause's max var reproduces the
  // master's id assignment). The log then clears: all helpers sync at
  // this single point.
  for (const std::unique_ptr<Solver>& h : team_->helpers) {
    for (const MirrorOp& op : mirror_log_) {
      switch (op.kind) {
        case MirrorOp::kFreeze: {
          Var max_v = op.act.var();
          for (Var v : op.vars) max_v = std::max(max_v, v);
          while (h->num_vars() <= max_v) h->NewVar();
          h->FreezeScope(op.act, op.vars);
          break;
        }
        case MirrorOp::kOrderBlock:
          h->SyncOrderBlock(op.block_size, op.vars);  // grows vars too
          break;
        case MirrorOp::kClause:
          h->AddClause(op.lits);  // grows the helper's vars as needed
          break;
      }
    }
    // Variables the master allocated that no mirrored op mentions yet
    // (e.g. assumption-only selectors) still need helper-side ids.
    while (h->num_vars() < num_vars()) h->NewVar();
  }
  mirror_log_.clear();
}

void Solver::MaybeExportLearnt(const std::vector<Lit>& learnt, int lbd) {
  if (learnt.size() > static_cast<size_t>(kShareMaxLits)) return;
  if (learnt.size() > 2 && lbd > kShareMaxGlue) return;
  export_buf_->TryPush(learnt, lbd);
}

bool Solver::ImportSharedClause(std::span<const Lit> lits, int glue) {
  CCR_DCHECK(DecisionLevel() == 0);
  if (!ok_) return false;
  // Validation: every variable must exist here, and must be neither
  // BVE-eliminated (it no longer exists in this solver's formula) nor
  // scope-frozen (the exporter's scope state may differ). Rejection is
  // always sound — a skipped implied clause changes nothing.
  for (Lit l : lits) {
    if (l.var() < 0 || l.var() >= num_vars()) return false;
    if (eliminated_[l.var()] || frozen_[l.var()]) return false;
  }
  // Evaluate against the level-0 trail, defensively dedup (the exporter
  // is trusted code, but a sorted unique clause is what the attach paths
  // below expect).
  std::vector<Lit> out(lits.begin(), lits.end());
  std::sort(out.begin(), out.end());
  std::vector<Lit> kept;
  Lit prev = kLitUndef;
  for (Lit l : out) {
    if (l == prev) continue;
    if (l == ~prev) return false;  // tautology: nothing to integrate
    const Lbool v = ValueOf(l);
    if (v == Lbool::kTrue) return false;  // already satisfied at level 0
    if (v == Lbool::kFalse) continue;     // false literal: drop
    kept.push_back(l);
    prev = l;
  }
  if (kept.empty()) {
    // Every literal false at level 0: the implied clause is empty, the
    // formula is UNSAT regardless of assumptions.
    ok_ = false;
    return false;
  }
  if (kept.size() == 1) {
    UncheckedEnqueue(kept[0], kRefUndef);
    ok_ = (Propagate() == kRefUndef);
    ++stats_.imported_units;
    return true;
  }
  if (kept.size() == 2 && options_.use_binary_watches) {
    AttachBinary(kept[0], kept[1]);
    if (learnt_binaries_.size() < 4096) {
      learnt_binaries_.emplace_back(kept[0], kept[1]);
    }
    ++stats_.learnt_core;  // kept forever, like any learnt binary
    ++stats_.imported_bins;
    return true;
  }
  const ClauseRef c = AllocClause(kept, /*learnt=*/true);
  SetClauseLbd(c, static_cast<uint32_t>(std::max(glue, 1)));
  if (options_.use_lbd_tiers && glue <= 2) {
    learnts_core_.push_back(c);
    ++stats_.learnt_core;
  } else if (options_.use_lbd_tiers && glue <= 6) {
    learnts_mid_.push_back(c);
    ++stats_.learnt_mid;
  } else {
    learnts_local_.push_back(c);
    ++stats_.learnt_local;
  }
  AttachClause(c);
  if (kept.size() == 2) {
    ++stats_.imported_bins;
  } else {
    ++stats_.imported_lbd;
  }
  return true;
}

bool Solver::ImportSharedClauses() {
  CCR_DCHECK(DecisionLevel() == 0);
  std::vector<Lit> scratch;
  const int n = share_ring_->workers();
  for (int p = 0; p < n; ++p) {
    if (p == share_worker_) continue;
    ClauseExportBuf& buf = share_ring_->buf(p);
    size_t& cur = share_ring_->cursor(share_worker_, p);
    const size_t end = buf.Published();
    for (; cur < end && ok_; ++cur) {
      const SharedClause& sc = buf.At(cur);
      scratch.clear();
      for (int k = 0; k < sc.size; ++k) {
        scratch.push_back(Lit::FromIndex(sc.lits[k]));
      }
      ImportSharedClause(scratch, sc.glue);
    }
  }
  return ok_;
}

void Solver::AdoptExternalModel(const std::vector<Lbool>& m) {
  // Same ring rotation as CacheCurrentModel, but WITHOUT its SLS
  // re-anchor block: the master's assignment here is the level-0 trail
  // only, nowhere near a full model, and must not become the local
  // search verification baseline.
  if (options_.use_model_cache && model_fresh_ && !model_.empty()) {
    if (model_pool_.size() < kModelPoolSize) {
      model_pool_.push_back(model_);
    } else {
      model_pool_[model_pool_next_] = model_;
      model_pool_next_ = (model_pool_next_ + 1) % kModelPoolSize;
    }
  }
  model_ = m;
  // The helper never eliminated variables, so its values for the
  // master's BVE-eliminated variables are genuine — no ExtendModel
  // reconstruction needed, the model is already complete and exact.
  CCR_DCHECK(DebugModelSatisfiesLive(model_));
  if (options_.use_model_cache) model_fresh_ = true;
}

SolveResult Solver::PortfolioRace(std::span<const Lit> assumptions) {
  SyncTeam();
  const int n = options_.portfolio_threads;
  team_->ring.BeginRace(n);

  // Race state. `winner` is CASed exactly once by the first decisive
  // worker; `stop` is the interrupt flag Search and Propagate poll.
  std::atomic<uint8_t> stop{0};
  std::atomic<int> winner{-1};
  std::vector<SolveResult> results(static_cast<size_t>(n),
                                   SolveResult::kUnknown);

  std::vector<SolverStats> helper_before;
  helper_before.reserve(team_->helpers.size());
  for (const std::unique_ptr<Solver>& h : team_->helpers) {
    helper_before.push_back(h->stats_);
  }

  const auto run = [&](int w, Solver* s) {
    s->stop_flag_ = &stop;
    s->share_ring_ = &team_->ring;
    s->export_buf_ = &team_->ring.buf(w);
    s->share_worker_ = w;
    const SolveResult r = s->SolveLoop(assumptions);
    s->stop_flag_ = nullptr;
    s->share_ring_ = nullptr;
    s->export_buf_ = nullptr;
    s->share_worker_ = -1;
    results[static_cast<size_t>(w)] = r;
    if (r != SolveResult::kUnknown) {
      int expected = -1;
      if (winner.compare_exchange_strong(expected, w)) {
        stop.store(1, std::memory_order_release);
      }
    }
  };

  // Helpers get real threads; the master races in the calling thread as
  // worker 0 (its warm VSIDS/phase/learnt state is the strongest
  // starting point of the team).
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n - 1));
  for (int w = 1; w < n; ++w) {
    threads.emplace_back(run, w, team_->helpers[static_cast<size_t>(w - 1)].get());
  }
  run(0, this);
  for (std::thread& t : threads) t.join();

  // Post-race, single-threaded again. Drain the leftover exports into
  // the master: every one is an implied clause the master keeps across
  // solves — a free warm start for the session's next call.
  share_ring_ = &team_->ring;
  share_worker_ = 0;
  ImportSharedClauses();
  share_ring_ = nullptr;
  share_worker_ = -1;

  // Fold the helpers' import work into the master's counters so
  // RoundTrace attribution sees the whole team's sharing traffic.
  ++stats_.portfolio_races;
  for (size_t i = 0; i < team_->helpers.size(); ++i) {
    const SolverStats d = team_->helpers[i]->stats_ - helper_before[i];
    stats_.imported_units += d.imported_units;
    stats_.imported_bins += d.imported_bins;
    stats_.imported_lbd += d.imported_lbd;
  }

  const int win = winner.load(std::memory_order_acquire);
  if (win >= 0) {
    for (int w = 0; w < n; ++w) {
      if (w != win && results[static_cast<size_t>(w)] == SolveResult::kUnknown) {
        ++stats_.cancelled_workers;
      }
    }
  }
  if (win < 0) {
    // Only possible under a max_conflicts budget: every worker ran out.
    return SolveResult::kUnknown;
  }
  if (win == 0) return results[0];

  Solver& h = *team_->helpers[static_cast<size_t>(win - 1)];
  if (results[static_cast<size_t>(win)] == SolveResult::kSat) {
    AdoptExternalModel(h.model_);
    conflict_core_.clear();
    return SolveResult::kSat;
  }
  // kUnsat: the helper's failed-assumption core is valid here verbatim —
  // same formula, and helper learnts are implied by it alone.
  conflict_core_ = h.conflict_core_;
  if (h.IsUnsatForever()) ok_ = false;
  return SolveResult::kUnsat;
}

}  // namespace ccr::sat
