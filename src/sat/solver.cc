#include "src/sat/solver.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/common/status.h"

namespace ccr::sat {

namespace {

// Inprocessing budgets per Simplify() call, so the between-round pass
// stays a small fraction of the round's solve time even on the first call
// (which sees the whole initial encoding, not just a delta).
constexpr int64_t kSubsumptionStepBudget = 2'000'000;  // literal compares
constexpr int64_t kVivifyPropBudget = 200'000;         // trail literals

// Order-block values are scanned eight Lbools (one byte each) per 64-bit
// word; these give bit 0 of each byte for one value.
static_assert(sizeof(Lbool) == 1 && static_cast<int>(Lbool::kFalse) == 0 &&
              static_cast<int>(Lbool::kTrue) == 1 &&
              static_cast<int>(Lbool::kUndef) == 2);
static_assert(std::endian::native == std::endian::little);
constexpr uint64_t kByteLowBits = 0x0101010101010101ULL;
uint64_t LoadLbools(const Lbool* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return w;
}
uint64_t TrueBytes(uint64_t w) { return w & kByteLowBits; }
uint64_t UndefBytes(uint64_t w) { return (w >> 1) & kByteLowBits; }
uint64_t FalseBytes(uint64_t w) { return ~(w | (w >> 1)) & kByteLowBits; }

// A relocated clause leaves this in its header slot, with the forwarding
// reference in the next word. No live header can collide: the smallest
// stored clause has size 2, so every real header is >= (2 << 3) = 16.
constexpr uint32_t kMovedHeader = 7;

}  // namespace

Solver::Solver(SolverOptions options) : options_(options) {}

Var Solver::NewVar() {
  const Var v = num_vars();
  GrowVars(v + 1);
  return v;
}

void Solver::GrowVars(int n) {
  const int old = num_vars();
  if (n <= old) return;
  // Checked before anything grows: a literal packs 2*var+sign into an
  // int32_t.
  CCR_CHECK(n <= kMaxVars);
  const size_t nv = static_cast<size_t>(n);
  assigns_.resize(nv, Lbool::kUndef);
  polarity_.resize(nv, false);
  level_.resize(nv, 0);
  reason_.resize(nv, kRefUndef);
  activity_.resize(nv, 0.0);
  seen_.resize(nv, 0);
  order_bytes_.resize(nv);
  order_pos_.resize(nv);
  reverse_.resize(nv, kVarUndef);
  // 2 watch lists (and 2 binary implication lists) per var. Past
  // num_vars() every list is empty (see Reset), so the ones a Reset left
  // behind are re-adopted as they are, buffers included.
  if (watches_.size() < 2 * nv) watches_.resize(2 * nv);
  if (bins_.size() < 2 * nv) bins_.resize(2 * nv);
  if (occur_.size() < nv) occur_.resize(nv);
  // A new variable has activity 0 and every activity is >= 0, so
  // HeapInsert would leave each one where it lands: at the end, in id
  // order.
  heap_pos_.resize(nv);
  for (Var v = old; v < n; ++v) {
    heap_pos_[v] = static_cast<int>(heap_.size());
    heap_.push_back(v);
  }
}

void Solver::Reset(SolverOptions options) {
  options_ = options;
  stats_ = {};
  last_call_ = {};
  ok_ = true;
  arena_.clear();
  clauses_.clear();
  learnts_.clear();
  // Only the lists of this session's variables can be non-empty (the
  // invariant GrowVars relies on), so clearing them costs what the session
  // used, not the largest universe ever grown. The outer vectors and each
  // list's buffer stay for GrowVars to re-adopt.
  const size_t nv = static_cast<size_t>(num_vars());
  for (size_t i = 0; i < 2 * nv; ++i) {
    watches_[i].clear();
    bins_[i].clear();
  }
  for (size_t v = 0; v < nv; ++v) occur_[v].clear();
  learnt_binaries_.clear();
  bin_conflict_[0] = bin_conflict_[1] = kLitUndef;
  assigns_.clear();
  polarity_.clear();
  level_.clear();
  reason_.clear();
  trail_.clear();
  trail_lim_.clear();
  qhead_ = 0;
  bhead_ = 0;
  activity_.clear();
  var_inc_ = 1.0;
  clause_inc_ = 1.0;
  heap_.clear();
  heap_pos_.clear();
  seen_.clear();
  analyze_toclear_.clear();
  non_horn_lits_.clear();
  blocks_.clear();
  order_bytes_.clear();
  order_pos_.clear();
  reverse_.clear();
  order_value_.clear();
  // Not a fill: one big session would make every later Reset clear its
  // whole table. The next insertion re-allocates at the smallest size.
  materialized_.clear();
  num_materialized_ = 0;
  model_.clear();
  conflict_core_.clear();
  max_learnts_ = 0;
  inproc_watermark_ = 0;
  pending_bins_.clear();
  vivify_primed_ = false;
  arena_dead_words_ = 0;
  arena_peak_words_ = 0;
  arena_tmp_.clear();
  sweep_trail_ = 0;
  sweep_props_ = 0;
  sat_head_ = 0;
  sat_clauses_ = 0;
  sat_held_ = 0;
  bin_entries_ = 0;
  model_fresh_ = false;
  model_pool_.clear();
  model_pool_next_ = 0;
  probe_base_level_ = -1;
}

Solver::ClauseRef Solver::AllocClause(std::span<const Lit> lits,
                                      bool learnt) {
  const ClauseRef ref = static_cast<ClauseRef>(arena_.size());
  // Arena references must leave bit 31 free for the literal-encoded
  // binary reasons.
  CCR_CHECK(ref < kRefBinaryFlag);
  arena_.resize(ref + 3 + lits.size());
  uint32_t* words = arena_.data() + ref;
  words[0] = (static_cast<uint32_t>(lits.size()) << 3) | (learnt ? 1u : 0u);
  words[1] = 0;  // activity bits
  words[2] = 0;  // signature hi (problem clauses)
  for (size_t k = 0; k < lits.size(); ++k) {
    words[3 + k] = static_cast<uint32_t>(lits[k].index());
  }
  arena_peak_words_ = std::max(arena_peak_words_, arena_.size());
  return ref;
}

void Solver::StoreClauseSig(ClauseRef c) {
  CCR_DCHECK(!ClauseLearnt(c));
  uint64_t s = 0;
  const Lit* lits = ClauseLits(c);
  for (int k = 0; k < ClauseSize(c); ++k) {
    s |= 1ull << (lits[k].var() & 63);
  }
  arena_[c + 1] = static_cast<uint32_t>(s);
  arena_[c + 2] = static_cast<uint32_t>(s >> 32);
}

void Solver::AttachClause(ClauseRef c) {
  CCR_DCHECK(ClauseSize(c) >= 2);
  const Lit* lits = ClauseLits(c);
  watches_[(~lits[0]).index()].push_back({c, lits[1]});
  watches_[(~lits[1]).index()].push_back({c, lits[0]});
}

void Solver::DetachClause(ClauseRef c) {
  const Lit* lits = ClauseLits(c);
  for (int i = 0; i < 2; ++i) {
    auto& ws = watches_[(~lits[i]).index()];
    for (size_t j = 0; j < ws.size(); ++j) {
      if (ws[j].cref == c) {
        ws[j] = ws.back();
        ws.pop_back();
        break;
      }
    }
  }
}

void Solver::AttachBinary(Lit a, Lit b) {
  bins_[(~a).index()].push_back(b);
  bins_[(~b).index()].push_back(a);
  bin_entries_ += 2;
}

bool Solver::AddClause(std::vector<Lit> lits) {
  if (!ok_) return false;
  Var max_var = kVarUndef;
  for (Lit l : lits) max_var = std::max(max_var, l.var());
  GrowVars(max_var + 1);
  return FeedClause(lits);
}

bool Solver::AttachNormalized(size_t n) {
  Lit* buf = add_buf_.data();
  // Sorted, duplicates and a variable's two literals (a tautology) are
  // neighbours.
  size_t kept = 0;
  int positives = 0;
  for (size_t i = 0; i < n; ++i) {
    if (kept > 0 && buf[i] == buf[kept - 1]) continue;
    if (kept > 0 && buf[i] == ~buf[kept - 1]) return true;
    positives += buf[i].negated() ? 0 : 1;
    buf[kept++] = buf[i];
  }
  const std::span<const Lit> out(buf, kept);
  if (out.empty()) {
    ok_ = false;
    return false;
  }
  if (out.size() == 1) {
    UncheckedEnqueue(out[0], kRefUndef);
    ok_ = (Propagate() == kRefUndef);
    return ok_;
  }
  if (positives > 1) {
    non_horn_lits_.insert(non_horn_lits_.end(), out.begin(), out.end());
    non_horn_lits_.push_back(kLitUndef);
  }
  if (out.size() == 2) {
    // Binaries never touch the arena: they live in the implicit
    // implication lists and propagate with literal-encoded reasons.
    AttachBinary(out[0], out[1]);
    if (options_.use_inprocessing) {
      pending_bins_.emplace_back(out[0], out[1]);
    }
    return true;
  }
  const ClauseRef c = AllocClause(out, /*learnt=*/false);
  StoreClauseSig(c);
  clauses_.push_back(c);
  if (TrackOccurrences()) {
    for (Lit l : out) occur_[l.var()].push_back(c);
  }
  AttachClause(c);
  return true;
}

void Solver::AddCnfFrom(const Cnf& cnf, int first_clause) {
  GrowVars(cnf.num_vars());
  for (int b = 0; b < cnf.num_order_blocks(); ++b) {
    const OrderBlock& block = cnf.order_block(b);
    SyncOrderBlock(block.size, [&](int i, int j) { return block.at(i, j); });
  }
  for (int i = first_clause; i < cnf.num_clauses() && ok_; ++i) {
    FeedClause(cnf.clause(i));
  }
}

bool Solver::ProblemIsHorn() {
  CCR_DCHECK(DecisionLevel() == 0);
  std::vector<Lit>& v = non_horn_lits_;
  size_t w = 0;
  for (size_t i = 0; i < v.size();) {
    size_t end = i;
    bool satisfied = false;
    for (; v[end] != kLitUndef; ++end) {
      satisfied = satisfied || (ValueOf(v[end]) == Lbool::kTrue &&
                                level_[v[end].var()] == 0);
    }
    if (!satisfied) {
      for (size_t k = i; k <= end; ++k) v[w++] = v[k];
    }
    i = end + 1;
  }
  v.resize(w);
  return v.empty();
}

Solver::ClauseRef Solver::Propagate() {
  ClauseRef conflict = kRefUndef;
  while (qhead_ < trail_.size()) {
    // Binary-first BFS: drain every pending binary implication before
    // touching a long clause. Binaries resolve with one contiguous list
    // scan — no arena access, no watcher juggling.
    while (bhead_ < trail_.size()) {
      const Lit bp = trail_[bhead_++];
      for (const Lit q : bins_[bp.index()]) {
        const Lbool v = ValueOf(q);
        if (v == Lbool::kTrue) continue;
        if (v == Lbool::kFalse) {
          bin_conflict_[0] = q;
          bin_conflict_[1] = ~bp;
          qhead_ = bhead_ = trail_.size();
          return kRefBinConflict;
        }
        ++stats_.binary_propagations;
        UncheckedEnqueue(q, MakeBinaryRef(~bp));
      }
      // Asymmetry, the order blocks' binaries ¬x_ij ∨ ¬x_ji: x_ij true
      // makes x_ji false, with that binary as its reason. It fires here,
      // with the clause binaries, so PropagateOrder below already sees
      // x_ji false (firing it there was measurably slower).
      if (bp.negated()) continue;
      const Var rev = reverse_[bp.var()];
      if (rev == kVarUndef) continue;
      const Lbool v = assigns_[rev];
      if (v == Lbool::kFalse) continue;
      if (v == Lbool::kTrue) {
        bin_conflict_[0] = Lit::Neg(rev);
        bin_conflict_[1] = ~bp;
        qhead_ = bhead_ = trail_.size();
        return kRefBinConflict;
      }
      ++stats_.binary_propagations;
      UncheckedEnqueue(Lit::Neg(rev), MakeBinaryRef(~bp));
    }
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;
    auto& ws = watches_[p.index()];
    size_t i = 0, j = 0;
    const size_t n = ws.size();
    while (i < n) {
      Watcher w = ws[i];
      if (ValueOf(w.blocker) == Lbool::kTrue) {
        ws[j++] = ws[i++];
        continue;
      }
      const ClauseRef c = w.cref;
      Lit* lits = ClauseLits(c);
      const int size = ClauseSize(c);
      // Normalize so the false literal (~p) is at position 1.
      const Lit not_p = ~p;
      if (lits[0] == not_p) std::swap(lits[0], lits[1]);
      CCR_DCHECK(lits[1] == not_p);
      ++i;
      // 0th watch true => clause satisfied.
      if (lits[0] != w.blocker && ValueOf(lits[0]) == Lbool::kTrue) {
        ws[j++] = {c, lits[0]};
        continue;
      }
      // Look for a new literal to watch.
      bool found = false;
      for (int k = 2; k < size; ++k) {
        if (ValueOf(lits[k]) != Lbool::kFalse) {
          std::swap(lits[1], lits[k]);
          watches_[(~lits[1]).index()].push_back({c, lits[0]});
          found = true;
          break;
        }
      }
      if (found) continue;
      // Clause is unit or conflicting.
      ws[j++] = {c, lits[0]};
      if (ValueOf(lits[0]) == Lbool::kFalse) {
        conflict = c;
        qhead_ = bhead_ = trail_.size();
        while (i < n) ws[j++] = ws[i++];
      } else {
        UncheckedEnqueue(lits[0], c);
      }
    }
    ws.resize(j);
    if (conflict != kRefUndef) break;
    if (order_bytes_[p.var()].row != OrderBytes::kNone) {
      conflict = PropagateOrder(p);
      if (conflict != kRefUndef) {
        qhead_ = bhead_ = trail_.size();
        break;
      }
    }
  }
  return conflict;
}

Solver::ClauseRef Solver::PropagateOrder(Lit p) {
  const OrderPos& pos = order_pos_[p.var()];
  const OrderBlockState& state = blocks_[pos.block];
  const int d = state.block.size;
  // Rows and columns of i and j, eight values k per word. A hit is a k
  // whose ternary may be unit or falsified. The diagonal reads as true,
  // which never makes a hit; the padding past `d` is masked off.
  const Lbool* row_i = &order_value_[state.rows + pos.i * state.stride];
  const Lbool* row_j = &order_value_[state.rows + pos.j * state.stride];
  const Lbool* col_i = &order_value_[state.cols + pos.i * state.stride];
  const Lbool* col_j = &order_value_[state.cols + pos.j * state.stride];
  for (int k0 = 0; k0 < d; k0 += 8) {
    const uint64_t ik = LoadLbools(row_i + k0);
    const uint64_t kj = LoadLbools(col_j + k0);
    uint64_t hits;
    if (!p.negated()) {
      // x_ij true, a premise of (i, j, k): unit once x_jk is true or x_ik
      // false; and of (k, i, j): unit once x_ki is true or x_kj false.
      const uint64_t jk = LoadLbools(row_j + k0);
      const uint64_t ki = LoadLbools(col_i + k0);
      hits = (TrueBytes(jk) & ~ik) | (FalseBytes(ik) & UndefBytes(jk)) |
             (TrueBytes(ki) & ~kj) | (FalseBytes(kj) & UndefBytes(ki));
    } else {
      // x_ij false, the conclusion of (i, k, j): unit once x_ik or x_kj
      // is true.
      hits = (TrueBytes(ik) & ~FalseBytes(kj)) |
             (TrueBytes(kj) & UndefBytes(ik));
    }
    hits &= kByteLowBits;
    if (d - k0 < 8) hits &= (1ULL << (8 * (d - k0))) - 1;
    if (hits != 0) {
      const ClauseRef conflict = FireOrderAxioms(p, k0, hits);
      if (conflict != kRefUndef) return conflict;
    }
  }
  return kRefUndef;
}

Solver::ClauseRef Solver::FireOrderAxioms(Lit p, int k0, uint64_t hits) {
  const OrderPos& pos = order_pos_[p.var()];
  const OrderBlockState& state = blocks_[pos.block];
  const Lbool* rows = &order_value_[state.rows];
  const auto value = [&](int a, int b) { return rows[a * state.stride + b]; };
  ClauseRef conflict = kRefUndef;
  // The ternary (a, b, c) holds ~p, which is false; `first` is its open
  // literal or its third false one, `other` its remaining false literal
  // (OrderBlock::PropagateAxioms). Returns false on a conflict.
  const auto fire = [&](int a, int b, int c, Lit first, Lit other) {
    const bool falsified = ValueOf(first) == Lbool::kFalse;
    if (!falsified && DecisionLevel() == 0) {
      // Level-0 facts need no reason: conflict analysis never reads one.
      UncheckedEnqueue(first, kRefUndef);
      return true;
    }
    const uint64_t key = (static_cast<uint64_t>(pos.block) << 48) |
                         (static_cast<uint64_t>(a) << 32) |
                         (static_cast<uint64_t>(b) << 16) |
                         static_cast<uint64_t>(c);
    // Already a clause: its watches propagate it.
    if (!InsertMaterialized(key)) return true;
    // Watch two literals of the highest levels: ~p sits on the current
    // level, and so does an implied literal; in a conflict the third
    // false literal with the higher level joins it.
    if (falsified && level_[other.var()] > level_[first.var()]) {
      std::swap(first, other);
    }
    const Lit lits[3] = {first, ~p, other};
    const ClauseRef axiom = MaterializeAxiom(lits);
    if (falsified) {
      conflict = axiom;
      return false;
    }
    UncheckedEnqueue(first, axiom);
    return true;
  };
  // The rules read the values as they run: an earlier hit of this word
  // may have set some (only at its own k, so the other hits stay
  // candidates).
  for (; hits != 0; hits &= hits - 1) {
    const int k = k0 + std::countr_zero(hits) / 8;
    if (!state.block.PropagateAxioms(pos.i, pos.j, k, !p.negated(), value,
                                     fire)) {
      break;
    }
  }
  return conflict;
}

bool Solver::InsertMaterialized(uint64_t key) {
  if (2 * (num_materialized_ + 1) > materialized_.size()) {
    // Grow to twice the size (at least 64 slots) and re-insert.
    std::vector<uint64_t> old(std::max<size_t>(64, 2 * materialized_.size()));
    old.swap(materialized_);
    num_materialized_ = 0;
    for (const uint64_t k : old) {
      if (k != 0) InsertMaterialized(k);
    }
  }
  const size_t mask = materialized_.size() - 1;
  for (size_t h = (key * 0x9E3779B97F4A7C15ULL) >> 20;; ++h) {
    uint64_t& slot = materialized_[h & mask];
    if (slot == key) return false;
    if (slot == 0) {
      slot = key;
      ++num_materialized_;
      return true;
    }
  }
}

Solver::ClauseRef Solver::MaterializeAxiom(const Lit (&lits)[3]) {
  const ClauseRef c = AllocClause(lits, /*learnt=*/false);
  StoreClauseSig(c);
  clauses_.push_back(c);
  if (TrackOccurrences()) {
    for (Lit l : lits) occur_[l.var()].push_back(c);
  }
  AttachClause(c);
  return c;
}

int Solver::OrderBlockOf(Var x01) {
  CCR_CHECK(x01 >= 0 && x01 < num_vars());
  if (order_pos_[x01].block >= 0) return order_pos_[x01].block;
  CCR_CHECK(blocks_.size() < (1u << 16));
  blocks_.emplace_back();
  return static_cast<int>(blocks_.size()) - 1;
}

void Solver::RegisterOrderEntries(int b, int old) {
  OrderBlockState& state = blocks_[b];
  const int size = state.block.size;
  // Entry x_ij's value bytes, in the row region and the transposed one.
  const auto seat = [&](int i, int j, Var v) {
    OrderBytes& slot = order_bytes_[v];
    slot.row = state.rows + static_cast<uint32_t>(i * state.stride + j);
    slot.col = state.cols + static_cast<uint32_t>(j * state.stride + i);
    order_pos_[v] = {b, i, j};
    reverse_[v] = state.block.at(j, i);
    order_value_[slot.row] = order_value_[slot.col] = assigns_[v];
  };
  // The value regions hold stride×stride entries. A block that outgrows
  // them gets fresh ones at least twice as wide, reseated with the
  // level-0 facts of every registered entry; the old regions stay unused
  // until Reset, and the doubling keeps them smaller than the live ones.
  if (size > state.stride) {
    state.stride = (std::max(size, 2 * state.stride) + 7) & ~7;
    const size_t region = static_cast<size_t>(state.stride) * state.stride;
    CCR_CHECK(order_value_.size() + 2 * region < OrderBytes::kNone);
    state.rows = static_cast<uint32_t>(order_value_.size());
    state.cols = static_cast<uint32_t>(order_value_.size() + region);
    order_value_.resize(order_value_.size() + 2 * region, Lbool::kTrue);
    for (int i = 0; i < old; ++i) {
      for (int j = 0; j < old; ++j) {
        if (i != j) seat(i, j, state.block.at(i, j));
      }
    }
  }
  // The new rows and columns must not belong to any block yet, and must
  // still be open: the closure rules never saw an earlier value.
  for (int i = 0; i < size; ++i) {
    for (int j = i < old ? old : 0; j < size; ++j) {
      if (i == j) continue;
      const Var v = state.block.at(i, j);
      CCR_CHECK(v >= 0 && v < num_vars() && order_pos_[v].block < 0 &&
                assigns_[v] == Lbool::kUndef);
      seat(i, j, v);
    }
  }
}

template <class ValueFn>
int64_t Solver::CountOpenAxioms(ValueFn value, int64_t limit) const {
  int64_t open = 0;
  for (const OrderBlockState& state : blocks_) {
    open += state.block.CountOpenAxioms(value, limit - open);
    if (open >= limit) break;
  }
  return open;
}

void Solver::VarBump(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_pos_[v] >= 0) HeapDecrease(v);
}

void Solver::ClauseBump(ClauseRef c) {
  const float act = ClauseActivity(c) + static_cast<float>(clause_inc_);
  SetClauseActivity(c, act);
  if (act > 1e20f) {
    for (ClauseRef l : learnts_) {
      SetClauseActivity(l, ClauseActivity(l) * 1e-20f);
    }
    clause_inc_ *= 1e-20;
  }
}

void Solver::Analyze(ClauseRef conflict, std::vector<Lit>* out_learnt,
                     int* out_btlevel) {
  int path_count = 0;
  Lit p = kLitUndef;
  out_learnt->clear();
  out_learnt->push_back(kLitUndef);  // slot for the asserting literal
  size_t index = trail_.size();

  ClauseRef c = conflict;
  do {
    CCR_DCHECK(c != kRefUndef);
    Lit bin_buf[2];
    const Lit* lits;
    int size;
    if (c == kRefBinConflict) {
      bin_buf[0] = bin_conflict_[0];
      bin_buf[1] = bin_conflict_[1];
      lits = bin_buf;
      size = 2;
    } else if (RefIsBinary(c)) {
      // Reason clause of p is (p ∨ other); position 0 mirrors the arena
      // invariant that lits[0] is the asserting literal.
      bin_buf[0] = p;
      bin_buf[1] = RefLit(c);
      lits = bin_buf;
      size = 2;
    } else {
      if (ClauseLearnt(c)) ClauseBump(c);
      lits = ClauseLits(c);
      size = ClauseSize(c);
    }
    for (int k = (p == kLitUndef) ? 0 : 1; k < size; ++k) {
      const Lit q = lits[k];
      const Var v = q.var();
      if (!seen_[v] && level_[v] > 0) {
        seen_[v] = 1;
        VarBump(v);
        if (level_[v] >= DecisionLevel()) {
          ++path_count;
        } else {
          out_learnt->push_back(q);
        }
      }
    }
    // Select next literal on the current level to resolve on.
    while (!seen_[trail_[--index].var()]) {
    }
    p = trail_[index];
    c = reason_[p.var()];
    seen_[p.var()] = 0;
    --path_count;
  } while (path_count > 0);
  (*out_learnt)[0] = ~p;

  // Conflict-clause minimization, one step: a literal is redundant if
  // its reason's other literals are all already in the learnt clause (or
  // level 0). Snapshot the pre-minimization literals first: the loop
  // compacts the clause in place, so dropped literals are overwritten and
  // only this snapshot can clear their seen_ marks afterwards. A stale
  // seen_ bit would make every later Analyze skip that variable entirely
  // — producing learnt clauses that are not implied by the formula.
  std::vector<Lit>& learnt = *out_learnt;
  analyze_toclear_.assign(learnt.begin(), learnt.end());
  size_t keep = 1;
  for (size_t k = 1; k < learnt.size(); ++k) {
    const Var v = learnt[k].var();
    const ClauseRef r = reason_[v];
    bool redundant = false;
    if (r != kRefUndef) {
      if (RefIsBinary(r)) {
        const Lit other = RefLit(r);
        redundant = seen_[other.var()] || level_[other.var()] == 0;
      } else {
        redundant = true;
        const Lit* rl = ClauseLits(r);
        const int rs = ClauseSize(r);
        for (int m = 1; m < rs; ++m) {
          const Var w = rl[m].var();
          if (!seen_[w] && level_[w] > 0) {
            redundant = false;
            break;
          }
        }
      }
    }
    if (!redundant) learnt[keep++] = learnt[k];
  }
  stats_.learnt_literals += static_cast<int64_t>(keep);
  learnt.resize(keep);

  // Backtrack level: highest level among the non-asserting literals.
  if (learnt.size() == 1) {
    *out_btlevel = 0;
  } else {
    size_t max_i = 1;
    for (size_t k = 2; k < learnt.size(); ++k) {
      if (level_[learnt[k].var()] > level_[learnt[max_i].var()]) max_i = k;
    }
    std::swap(learnt[1], learnt[max_i]);
    *out_btlevel = level_[learnt[1].var()];
  }
  // The snapshot covers every kept literal and every dropped one.
  for (Lit l : analyze_toclear_) seen_[l.var()] = 0;
  analyze_toclear_.clear();
}

void Solver::AnalyzeFinal(Lit p, std::vector<Lit>* out_core) {
  out_core->clear();
  out_core->push_back(p);
  if (DecisionLevel() == 0) return;
  seen_[p.var()] = 1;
  for (size_t i = trail_.size();
       i-- > static_cast<size_t>(trail_lim_[0]);) {
    const Var v = trail_[i].var();
    if (!seen_[v]) continue;
    const ClauseRef r = reason_[v];
    if (r == kRefUndef) {
      if (level_[v] > 0) out_core->push_back(~trail_[i]);
    } else if (RefIsBinary(r)) {
      const Lit other = RefLit(r);
      if (level_[other.var()] > 0) seen_[other.var()] = 1;
    } else {
      const Lit* lits = ClauseLits(r);
      const int size = ClauseSize(r);
      for (int k = 1; k < size; ++k) {
        if (level_[lits[k].var()] > 0) seen_[lits[k].var()] = 1;
      }
    }
    seen_[v] = 0;
  }
  seen_[p.var()] = 0;
}

void Solver::CancelUntil(int target) {
  if (DecisionLevel() <= target) return;
  const size_t keep = static_cast<size_t>(trail_lim_[target]);
  for (size_t i = trail_.size(); i-- > keep;) {
    const Var v = trail_[i].var();
    const OrderBytes slot = order_bytes_[v];
    if (slot.row != OrderBytes::kNone) {
      order_value_[slot.row] = Lbool::kUndef;
      order_value_[slot.col] = Lbool::kUndef;
    }
    assigns_[v] = Lbool::kUndef;
    polarity_[v] = trail_[i].negated();
    reason_[v] = kRefUndef;
    if (heap_pos_[v] < 0) HeapInsert(v);
  }
  trail_.resize(trail_lim_[target]);
  trail_lim_.resize(target);
  qhead_ = trail_.size();
  bhead_ = qhead_;
}

// --- decision heap -------------------------------------------------------

void Solver::HeapInsert(Var v) {
  heap_pos_[v] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  HeapDecrease(v);
}

void Solver::HeapDecrease(Var v) {
  // Percolate up by activity.
  int i = heap_pos_[v];
  while (i > 0) {
    const int parent = (i - 1) / 2;
    if (activity_[heap_[parent]] >= activity_[v]) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i]] = i;
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[v] = i;
}

Var Solver::HeapPop() {
  const Var top = heap_[0];
  heap_pos_[top] = -1;
  const Var last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    // Percolate `last` down from the root.
    int i = 0;
    const int n = static_cast<int>(heap_.size());
    while (true) {
      int child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n &&
          activity_[heap_[child + 1]] > activity_[heap_[child]]) {
        ++child;
      }
      if (activity_[heap_[child]] <= activity_[last]) break;
      heap_[i] = heap_[child];
      heap_pos_[heap_[i]] = i;
      i = child;
    }
    heap_[i] = last;
    heap_pos_[last] = i;
  }
  return top;
}

Lit Solver::PickBranchLit() {
  Var next = kVarUndef;
  while (!HeapEmpty()) {
    next = HeapPop();
    if (assigns_[next] == Lbool::kUndef) break;
    next = kVarUndef;
  }
  if (next == kVarUndef) return kLitUndef;
  return Lit(next, polarity_[next]);
}

void Solver::RecordLearnt(const std::vector<Lit>& learnt) {
  if (learnt.size() == 1) {
    UncheckedEnqueue(learnt[0], kRefUndef);
    return;
  }
  if (learnt.size() == 2) {
    AttachBinary(learnt[0], learnt[1]);
    // Recorded only for the LearntClauses() debug accessor; capped so a
    // conflict-heavy production solve cannot grow it without bound.
    if (learnt_binaries_.size() < 4096) {
      learnt_binaries_.emplace_back(learnt[0], learnt[1]);
    }
    UncheckedEnqueue(learnt[0], MakeBinaryRef(learnt[1]));
    return;
  }
  const ClauseRef c = AllocClause(learnt, /*learnt=*/true);
  learnts_.push_back(c);
  AttachClause(c);
  ClauseBump(c);
  UncheckedEnqueue(learnt[0], c);
}

void Solver::ReduceDb() {
  // MiniSat's reduction: keep the most active half of the learnt clauses;
  // never drop reasons.
  ++stats_.reductions;
  std::sort(learnts_.begin(), learnts_.end(),
            [this](ClauseRef a, ClauseRef b) {
              return ClauseActivity(a) > ClauseActivity(b);
            });
  const size_t keep = learnts_.size() / 2;
  size_t j = 0;
  for (size_t i = 0; i < learnts_.size(); ++i) {
    const ClauseRef c = learnts_[i];
    const Lit first = ClauseLits(c)[0];
    const bool is_reason = assigns_[first.var()] != Lbool::kUndef &&
                           reason_[first.var()] == c;
    if (i < keep || is_reason) {
      learnts_[j++] = c;
    } else {
      DetachClause(c);
      MarkClauseDead(c);
    }
  }
  learnts_.resize(j);
}

void Solver::SweepSatisfied(std::vector<ClauseRef>* list) {
  size_t j = 0;
  for (ClauseRef c : *list) {
    if (ClauseDead(c)) continue;  // removed by inprocessing, already detached
    const Lit* lits = ClauseLits(c);
    const int size = ClauseSize(c);
    bool satisfied = false;
    for (int k = 0; k < size && !satisfied; ++k) {
      satisfied = ValueOf(lits[k]) == Lbool::kTrue;
    }
    if (satisfied) {
      DetachClause(c);
      MarkClauseDead(c);
    } else {
      (*list)[j++] = c;
    }
  }
  list->resize(j);
}

void Solver::SweepSatisfiedProblem() {
  CCR_DCHECK(DecisionLevel() == 0);
  for (ClauseRef c : clauses_) {
    if (ClauseDead(c)) continue;
    const Lit* lits = ClauseLits(c);
    const int size = ClauseSize(c);
    bool satisfied = false;
    for (int k = 0; k < size && !satisfied; ++k) {
      satisfied = ValueOf(lits[k]) == Lbool::kTrue;
    }
    if (satisfied) {
      DetachClause(c);
      MarkClauseDead(c);
    }
  }
  CompactProblemClauses();
}

void Solver::CompactProblemClauses() {
  size_t j = 0;
  size_t wm = inproc_watermark_;
  for (size_t i = 0; i < clauses_.size(); ++i) {
    if (ClauseDead(clauses_[i])) {
      if (i < inproc_watermark_) --wm;
      continue;
    }
    clauses_[j++] = clauses_[i];
  }
  clauses_.resize(j);
  inproc_watermark_ = wm;
  CCR_DCHECK(inproc_watermark_ <= clauses_.size());
}

void Solver::RemoveSatisfiedTopLevel() { SweepSatisfied(&learnts_); }

void Solver::SweepBinaries() {
  // An entry (p -> q) is dead once either variable is fixed at level 0:
  // p fixed means the list is never scanned again (or was fully
  // propagated), q fixed true means the clause is satisfied, and q fixed
  // false implies p's var was fixed by the same propagation.
  CCR_DCHECK(DecisionLevel() == 0);
  bin_entries_ = 0;
  for (size_t i = 0; i < 2 * static_cast<size_t>(num_vars()); ++i) {
    std::vector<Lit>& list = bins_[i];
    if (list.empty()) continue;
    const Lit p = Lit::FromIndex(static_cast<int32_t>(i));
    if (assigns_[p.var()] != Lbool::kUndef) {
      list.clear();
      continue;
    }
    size_t j = 0;
    for (Lit q : list) {
      if (assigns_[q.var()] == Lbool::kUndef) list[j++] = q;
    }
    list.resize(j);
    bin_entries_ += j;
  }
}

bool Solver::Simplify() {
  CCR_DCHECK(DecisionLevel() == 0);
  if (!ok_) return false;
  if (Propagate() != kRefUndef) {
    ok_ = false;
    return false;
  }
  ++stats_.sweeps;
  sweep_trail_ = trail_.size();
  sweep_props_ = stats_.propagations + stats_.binary_propagations;
  sat_head_ = trail_.size();
  sat_clauses_ = 0;
  sat_held_ = 0;
  RemoveSatisfiedTopLevel();
  SweepSatisfiedProblem();
  SweepBinaries();
  if (options_.use_inprocessing) {
    SubsumptionPass();
    if (ok_) VivificationPass();
  }
  MaybeGarbageCollect();
  return ok_;
}

bool Solver::MaybeSimplify() {
  CCR_DCHECK(DecisionLevel() == 0);
  if (!ok_) return false;
  if (Propagate() != kRefUndef) {
    ok_ = false;
    return false;
  }
  if (trail_.size() == sweep_trail_) return true;
  // Search pays: long plus binary propagations since the last sweep have
  // reached what a sweep walks, the arena's words plus the binary
  // entries.
  const int64_t props = stats_.propagations + stats_.binary_propagations;
  if (props - sweep_props_ >=
      static_cast<int64_t>(arena_.size() + bin_entries_)) {
    return Simplify();
  }
  // Memory pays: every clause watching a fact fixed since the last sweep
  // is satisfied, so counting the new facts' watchers (a clause may be
  // counted twice) estimates what a sweep would detach. Each call holds
  // that many satisfied clauses one more round; once the held total
  // reaches the clause database's size, long clauses plus binary
  // entries, keeping them has cost as much as the pass that drops them
  // (the ski-rental rule).
  for (; sat_head_ < trail_.size(); ++sat_head_) {
    sat_clauses_ += watches_[(~trail_[sat_head_]).index()].size();
  }
  sat_held_ += sat_clauses_;
  if (sat_held_ >= clauses_.size() + learnts_.size() + bin_entries_) {
    return Simplify();
  }
  return true;
}

void Solver::PrimeInprocessing() {
  for (ClauseRef c : clauses_) SetClauseVivified(c, true);
  vivify_primed_ = true;
  inproc_watermark_ = clauses_.size();
  pending_bins_.clear();
}

bool Solver::BeginProbe(std::span<const Lit> base) {
  CCR_DCHECK(probe_base_level_ < 0);
  if (!ok_) return false;
  CancelUntil(0);
  if (Propagate() != kRefUndef) {
    ok_ = false;
    return false;
  }
  // One decision level holds the whole base; EndProbe pops it.
  trail_lim_.push_back(static_cast<int>(trail_.size()));
  for (const Lit a : base) {
    CCR_CHECK(a.var() < num_vars());
    const Lbool v = ValueOf(a);
    if (v == Lbool::kFalse) {
      CancelUntil(0);
      return false;
    }
    if (v == Lbool::kUndef) UncheckedEnqueue(a, kRefUndef);
  }
  if (Propagate() != kRefUndef) {
    CancelUntil(0);
    return false;
  }
  probe_base_level_ = DecisionLevel();
  return true;
}

bool Solver::ProbeExtend(std::span<const Lit> extra) {
  CCR_DCHECK(probe_base_level_ >= 0);
  for (const Lit a : extra) {
    CCR_CHECK(a.var() < num_vars());
    const Lbool v = ValueOf(a);
    if (v == Lbool::kFalse) {
      EndProbe();
      return false;
    }
    if (v == Lbool::kUndef) UncheckedEnqueue(a, kRefUndef);
  }
  if (Propagate() != kRefUndef) {
    EndProbe();
    return false;
  }
  return true;
}

void Solver::EndProbe() {
  CCR_DCHECK(probe_base_level_ >= 0);
  CancelUntil(0);
  probe_base_level_ = -1;
}

std::vector<std::vector<Lit>> Solver::LearntClauses() const {
  std::vector<std::vector<Lit>> out;
  for (ClauseRef c : learnts_) {
    if (ClauseDead(c)) continue;
    const Lit* lits = ClauseLits(c);
    out.emplace_back(lits, lits + ClauseSize(c));
  }
  for (const auto& [a, b] : learnt_binaries_) {
    out.push_back({a, b});
  }
  return out;
}

int64_t Solver::Luby(int64_t i) {
  // MiniSat's formulation: find the smallest complete subsequence
  // (size 2^(seq+1) - 1) that contains position i, then shrink it and
  // reduce i modulo the size until i is its last position.
  int64_t size = 1;
  int seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) >> 1;
    --seq;
    i = i % size;
  }
  return int64_t{1} << seq;
}

SolveResult Solver::Search(int64_t conflict_budget,
                           std::span<const Lit> assumptions) {
  int64_t conflicts_here = 0;
  std::vector<Lit> learnt;
  while (true) {
    const ClauseRef conflict = Propagate();
    if (conflict != kRefUndef) {
      ++stats_.conflicts;
      ++conflicts_here;
      if (DecisionLevel() == 0) {
        ok_ = false;
        return SolveResult::kUnsat;
      }
      int bt_level = 0;
      Analyze(conflict, &learnt, &bt_level);
      // Backjumping may pop assumption pseudo-decisions; the
      // honor-assumptions step below re-establishes them, and an
      // assumption forced false there yields kUnsat with a core.
      CancelUntil(bt_level);
      RecordLearnt(learnt);
      VarDecay();
      ClauseDecay();
      continue;
    }

    // No conflict.
    if (conflicts_here >= conflict_budget) {
      CancelUntil(0);
      return SolveResult::kUnknown;  // restart
    }
    if (DecisionLevel() == 0) RemoveSatisfiedTopLevel();
    if (static_cast<double>(learnts_.size()) >= max_learnts_) {
      ReduceDb();
      max_learnts_ *= 1.1;
      MaybeGarbageCollect();
    }

    Lit next = kLitUndef;
    // Honor assumptions first.
    while (DecisionLevel() < static_cast<int>(assumptions.size())) {
      const Lit a = assumptions[DecisionLevel()];
      const Lbool av = ValueOf(a);
      if (av == Lbool::kTrue) {
        trail_lim_.push_back(static_cast<int>(trail_.size()));
      } else if (av == Lbool::kFalse) {
        AnalyzeFinal(~a, &conflict_core_);
        return SolveResult::kUnsat;
      } else {
        next = a;
        break;
      }
    }
    if (next == kLitUndef) {
      next = PickBranchLit();
      if (next == kLitUndef) {
        // All variables assigned: model found.
        CacheCurrentModel();
        model_.assign(assigns_.begin(), assigns_.end());
        return SolveResult::kSat;
      }
      ++stats_.decisions;
    }
    trail_lim_.push_back(static_cast<int>(trail_.size()));
    UncheckedEnqueue(next, kRefUndef);
  }
}

void Solver::CacheCurrentModel() {
  if (model_fresh_ && !model_.empty()) {
    // Rotate the previous newest model into the ring.
    if (model_pool_.size() < kModelPoolSize) {
      model_pool_.push_back(model_);
    } else {
      model_pool_[model_pool_next_] = model_;
      model_pool_next_ = (model_pool_next_ + 1) % kModelPoolSize;
    }
  }
  model_fresh_ = true;
}

bool Solver::SeedFromLocalSearch(std::span<const Lit> assumptions) {
  CCR_DCHECK(DecisionLevel() == 0);
  if (!ok_) return false;
  const size_t nv = static_cast<size_t>(num_vars());
  // A cached model that satisfies the assumptions already answers the
  // solves a seed is for. The fresh model_ and every pooled witness
  // satisfy every live clause (anything that could break that
  // invalidates the cache), so only the assumptions need reading. A
  // shorter model predates variables added since; pass on it.
  const auto cached = [&](const std::vector<Lbool>& m) {
    return m.size() >= nv && ModelWitnesses(m, assumptions);
  };
  if ((model_fresh_ && cached(model_)) ||
      std::ranges::any_of(model_pool_, cached)) {
    return true;
  }
  // On a Horn formula the probe's fixpoint, every open variable false, is
  // the least model of Φ ∧ assumptions. A refuted probe: no model exists.
  if (!ProblemIsHorn() || !BeginProbe(assumptions)) return false;
  std::vector<Lbool> m(nv);
  for (size_t v = 0; v < nv; ++v) {
    m[v] = assigns_[v] == Lbool::kTrue ? Lbool::kTrue : Lbool::kFalse;
  }
  EndProbe();
  CCR_DCHECK(DebugModelSatisfiesLive(m));
  PushPoolModel(std::move(m));
  return true;
}

void Solver::PushPoolModel(std::vector<Lbool> m) {
  if (model_pool_.size() < kModelPoolSize) {
    model_pool_.push_back(std::move(m));
  } else {
    model_pool_[model_pool_next_] = std::move(m);
    model_pool_next_ = (model_pool_next_ + 1) % kModelPoolSize;
  }
  ++stats_.sls_seeded_models;
}

bool Solver::DebugModelSatisfiesLive(const std::vector<Lbool>& m) const {
  if (m.size() < static_cast<size_t>(num_vars())) return false;
  for (Var v = 0; v < num_vars(); ++v) {
    if (assigns_[v] != Lbool::kUndef && level_[v] == 0 &&
        m[v] != assigns_[v]) {
      return false;
    }
  }
  for (ClauseRef c : clauses_) {
    if (ClauseDead(c)) continue;
    bool sat = false;
    const Lit* lits = ClauseLits(c);
    const int sz = ClauseSize(c);
    for (int i = 0; i < sz && !sat; ++i) {
      sat = LboolOf(m[lits[i].var()], lits[i].negated()) == Lbool::kTrue;
    }
    if (!sat) return false;
  }
  for (int32_t i = 0; i < 2 * num_vars(); ++i) {
    const Lit u = ~Lit::FromIndex(i);
    for (Lit q : bins_[i]) {
      if (u.index() > q.index()) continue;
      if (LboolOf(m[u.var()], u.negated()) != Lbool::kTrue &&
          LboolOf(m[q.var()], q.negated()) != Lbool::kTrue) {
        return false;
      }
    }
  }
  return CountOpenAxioms([&](Var v) { return m[v] == Lbool::kTrue; }, 1) ==
         0;
}

SolveResult Solver::SolveInternal(std::span<const Lit> assumptions) {
  const SolverStats before = stats_;
  if (!assumptions.empty()) ++stats_.assumption_solves;
  // Witness reuse: a recent model satisfying every assumption already
  // decides the call — kSat, with that model, zero search.
  if (ok_) {
    bool hit = false;
    if (model_fresh_ && ModelWitnesses(model_, assumptions)) {
      hit = true;  // model_ stays the answer
    } else {
      for (size_t k = model_pool_.size(); k-- > 0 && !hit;) {
        if (ModelWitnesses(model_pool_[k], assumptions)) {
          // Trade places: the witness becomes model_, the displaced
          // newest model stays cached in the witness's slot. (Rotating
          // via CacheCurrentModel here could overwrite the very slot
          // being read when the ring is full.) The swap is only legal
          // while model_ is itself a model of the current formula; a
          // stale model_ (invalidated, pool since repopulated by local
          // search) must not re-enter the ring, so copy instead.
          if (model_fresh_) {
            std::swap(model_, model_pool_[k]);
          } else {
            model_ = model_pool_[k];
          }
          model_fresh_ = true;
          hit = true;
        }
      }
    }
    if (hit) {
      ++stats_.model_cache_hits;
      conflict_core_.clear();
      last_call_ = stats_ - before;
      return SolveResult::kSat;
    }
  }
  const SolveResult r = SolveLoop(assumptions);
  last_call_ = stats_ - before;
  return r;
}

SolveResult Solver::SolveLoop(std::span<const Lit> assumptions) {
  conflict_core_.clear();
  if (!ok_) return SolveResult::kUnsat;
  for (Lit a : assumptions) {
    CCR_CHECK(a.var() < num_vars());
  }
  CancelUntil(0);
  max_learnts_ =
      std::max(1000.0, static_cast<double>(clauses_.size()) / 3.0);

  int64_t restart_round = 0;
  while (true) {
    const SolveResult r = Search(100 * Luby(restart_round), assumptions);
    if (r != SolveResult::kUnknown) {
      CancelUntil(0);
      return r;
    }
    // Search returned kUnknown at level 0: a restart boundary.
    ++restart_round;
    ++stats_.restarts;
  }
}

// --- inprocessing --------------------------------------------------------

void Solver::ShrinkClause(ClauseRef c, std::span<const Lit> lits) {
  // `c` is detached. Re-home the shortened clause by its new size.
  if (lits.empty()) {
    MarkClauseDead(c);
    ok_ = false;
    return;
  }
  if (lits.size() == 1) {
    MarkClauseDead(c);
    const Lbool v = ValueOf(lits[0]);
    if (v == Lbool::kFalse) {
      ok_ = false;
    } else if (v == Lbool::kUndef) {
      UncheckedEnqueue(lits[0], kRefUndef);  // propagated by the caller
    }
    return;
  }
  CCR_DCHECK(!ClauseLearnt(c));
  const int old_size = ClauseSize(c);
  Lit* dst = ClauseLits(c);
  std::copy(lits.begin(), lits.end(), dst);
  SetClauseSize(c, static_cast<int>(lits.size()));
  // The abandoned tail words are dead arena weight from here on.
  arena_dead_words_ += static_cast<size_t>(old_size) - lits.size();
  SetClauseVivified(c, false);  // a changed clause is worth revisiting
  if (lits.size() == 2) {
    MarkClauseDead(c);  // migrated out of the arena into the bin lists
    AttachBinary(lits[0], lits[1]);
    return;
  }
  StoreClauseSig(c);
  AttachClause(c);
}

void Solver::StrengthenClause(ClauseRef c, Lit l) {
  DetachClause(c);
  std::vector<Lit> out;
  const Lit* lits = ClauseLits(c);
  const int size = ClauseSize(c);
  out.reserve(static_cast<size_t>(size) - 1);
  bool satisfied = false;
  for (int k = 0; k < size && !satisfied; ++k) {
    const Lit x = lits[k];
    if (x == l) continue;
    const Lbool v = ValueOf(x);
    if (v == Lbool::kTrue) satisfied = true;
    if (v == Lbool::kUndef) out.push_back(x);
    // Level-0 false literals are dropped along the way.
  }
  if (satisfied) {
    MarkClauseDead(c);
    return;
  }
  ShrinkClause(c, out);
}

void Solver::SubsumptionPass() {
  CCR_DCHECK(DecisionLevel() == 0);
  CCR_DCHECK(inproc_watermark_ <= clauses_.size());
  // Backward subsumption / self-subsuming resolution: the clauses the
  // encode layer appended since the last pass — everything at or beyond
  // the watermark — act as subsumers against the whole problem DB. A
  // subsumer C removes any D ⊇ C outright; if C matches D except for
  // exactly one flipped literal l, resolving on l strengthens D by
  // dropping ~l (equivalence-preserving both ways). Candidates come from
  // the persistent occurrence index; dead or stale entries are purged in
  // place as the scan walks a list.
  const size_t fresh_begin = inproc_watermark_;
  if (fresh_begin == clauses_.size() && pending_bins_.empty()) return;

  int64_t steps = 0;
  // Does the clause `sub` subsume `d` outright (return 1), subsume it
  // after flipping exactly one literal (return 2, *flip = the literal of
  // `sub` whose negation must leave `d`), or neither (return 0)?
  auto subsume_check = [this, &steps](std::span<const Lit> sub, ClauseRef d,
                                      Lit* flip) -> int {
    const Lit* dl = ClauseLits(d);
    const int ds = ClauseSize(d);
    Lit flipped = kLitUndef;
    for (Lit a : sub) {
      steps += ds;
      bool found = false;
      bool neg = false;
      for (int b = 0; b < ds; ++b) {
        if (dl[b] == a) {
          found = true;
          break;
        }
        if (dl[b] == ~a) {
          neg = true;
          break;
        }
      }
      if (found) continue;
      if (neg && flipped == kLitUndef) {
        flipped = a;
        continue;
      }
      return 0;
    }
    if (flipped == kLitUndef) return 1;
    *flip = flipped;
    return 2;
  };

  auto run_subsumer = [&](std::span<const Lit> sub, ClauseRef self) {
    // Candidates must contain every var of `sub`; scan the shortest
    // occurrence list.
    int best_var = -1;
    size_t best_len = SIZE_MAX;
    for (Lit a : sub) {
      const size_t len = occur_[a.var()].size();
      if (len < best_len) {
        best_len = len;
        best_var = a.var();
      }
    }
    if (best_var < 0) return;
    uint64_t sub_sig = 0;
    for (Lit a : sub) sub_sig |= 1ull << (a.var() & 63);
    std::vector<ClauseRef>& list = occur_[best_var];
    size_t j = 0;
    for (size_t i = 0; i < list.size(); ++i) {
      const ClauseRef d = list[i];
      if (ClauseDead(d)) continue;  // lazy purge
      list[j++] = d;
      if (d == self || !ok_) continue;
      if (ClauseSize(d) < static_cast<int>(sub.size())) continue;
      if ((sub_sig & ~ClauseSig(d)) != 0) continue;
      Lit flip = kLitUndef;
      const int verdict = subsume_check(sub, d, &flip);
      if (verdict == 1) {
        DetachClause(d);
        MarkClauseDead(d);
        ++stats_.subsumed;
        --j;  // died just now: purge it from this list too
      } else if (verdict == 2) {
        StrengthenClause(d, ~flip);
        ++stats_.subsumed;
        if (ClauseDead(d)) --j;  // shrank to unit/binary or was satisfied
      }
    }
    list.resize(j);
  };

  // New binary clauses first (the currency-order encodings are dominated
  // by them), then the appended long clauses.
  for (const auto& [a, b] : pending_bins_) {
    if (steps > kSubsumptionStepBudget || !ok_) break;
    const Lit sub[2] = {a, b};
    run_subsumer(std::span<const Lit>(sub, 2), kRefUndef);
  }
  pending_bins_.clear();
  for (size_t i = fresh_begin; i < clauses_.size(); ++i) {
    if (steps > kSubsumptionStepBudget || !ok_) break;
    const ClauseRef c = clauses_[i];
    if (ClauseDead(c)) continue;
    run_subsumer(
        std::span<const Lit>(ClauseLits(c), ClauseSize(c)), c);
  }

  // Strengthening may have queued units; fold them in.
  if (ok_ && Propagate() != kRefUndef) ok_ = false;
  CompactProblemClauses();
  inproc_watermark_ = clauses_.size();
}

void Solver::VivificationPass() {
  CCR_DCHECK(DecisionLevel() == 0);
  if (!ok_) return;
  // Clause vivification (distillation): for problem clause C = (l1..ln),
  // assume ¬l1, ¬l2, ... one at a time with full propagation (C itself
  // detached). A conflict — or a literal already decided by the prefix —
  // proves a strict subclause is implied, and C shrinks to it.
  //
  // Scope: only the round's delta. The first pass stamps the initial
  // encoding as vivified WITHOUT distilling it (wholesale distillation of
  // a generator-canonical encoding costs far more propagation than every
  // solve of the session combined); later passes distill exactly the
  // clauses appended — or strengthened by subsumption — since, under a
  // propagation budget as a backstop.
  if (!vivify_primed_) {
    vivify_primed_ = true;
    for (ClauseRef c : clauses_) SetClauseVivified(c, true);
    return;
  }
  const int64_t start_props = stats_.propagations;
  std::vector<Lit> lits;
  std::vector<Lit> kept;
  for (size_t n = clauses_.size(); n-- > 0;) {
    if (!ok_) break;
    if (stats_.propagations - start_props > kVivifyPropBudget) break;
    const ClauseRef c = clauses_[n];
    if (ClauseDead(c) || ClauseVivified(c)) continue;
    SetClauseVivified(c, true);
    // A copy: the probes below may materialize order axioms, and the
    // arena they are allocated in can move.
    lits.assign(ClauseLits(c), ClauseLits(c) + ClauseSize(c));
    const int size = static_cast<int>(lits.size());
    bool satisfied = false;
    for (int k = 0; k < size && !satisfied; ++k) {
      satisfied = ValueOf(lits[k]) == Lbool::kTrue;
    }
    if (satisfied) {
      DetachClause(c);
      MarkClauseDead(c);
      continue;
    }
    DetachClause(c);
    kept.clear();
    for (int k = 0; k < size; ++k) {
      const Lit l = lits[k];
      const Lbool v = ValueOf(l);
      if (v == Lbool::kTrue) {
        // ¬(prefix) forces l: C shrinks to (prefix ∨ l).
        kept.push_back(l);
        break;
      }
      if (v == Lbool::kFalse) continue;  // redundant literal
      kept.push_back(l);
      if (k == size - 1) break;  // asserting the last literal proves nothing
      trail_lim_.push_back(static_cast<int>(trail_.size()));
      UncheckedEnqueue(~l, kRefUndef);
      if (Propagate() != kRefUndef) break;  // ¬(prefix) is contradictory
    }
    CancelUntil(0);
    if (kept.size() == static_cast<size_t>(size)) {
      AttachClause(c);
      continue;
    }
    stats_.vivified += size - static_cast<int64_t>(kept.size());
    ShrinkClause(c, kept);
    // Keep the level-0 fixpoint before the next clause's decisions.
    if (ok_ && Propagate() != kRefUndef) ok_ = false;
  }
  CompactProblemClauses();
}

// --- arena garbage collection --------------------------------------------

Solver::ClauseRef Solver::RelocateClause(ClauseRef c) {
  if (arena_[c] == kMovedHeader) return arena_[c + 1];
  const ClauseRef nc = static_cast<ClauseRef>(arena_tmp_.size());
  CCR_CHECK(nc < kRefBinaryFlag);
  const size_t words = 3 + static_cast<size_t>(ClauseSize(c));
  arena_tmp_.insert(arena_tmp_.end(), arena_.begin() + c,
                    arena_.begin() + c + words);
  arena_[c] = kMovedHeader;
  arena_[c + 1] = nc;
  return nc;
}

void Solver::GarbageCollect() {
  if (arena_.empty()) return;
  const size_t old_words = arena_.size();
  arena_tmp_.clear();
  arena_tmp_.reserve(old_words - std::min(arena_dead_words_, old_words));
  // Relocate in list order: clause order — and with it watcher and
  // occurrence order — is identical before and after, which keeps the
  // collection search-neutral.
  size_t wm = inproc_watermark_;
  size_t j = 0;
  for (size_t i = 0; i < clauses_.size(); ++i) {
    const ClauseRef c = clauses_[i];
    if (ClauseDead(c)) {
      if (i < inproc_watermark_) --wm;
      continue;
    }
    clauses_[j++] = RelocateClause(c);
  }
  clauses_.resize(j);
  inproc_watermark_ = wm;
  CCR_DCHECK(inproc_watermark_ <= clauses_.size());
  size_t k = 0;
  for (ClauseRef c : learnts_) {
    if (ClauseDead(c)) continue;
    learnts_[k++] = RelocateClause(c);
  }
  learnts_.resize(k);
  // Every watched clause is live (each MarkClauseDead site detaches), so
  // every watcher's target has a forwarding ref by now.
  for (size_t i = 0; i < 2 * static_cast<size_t>(num_vars()); ++i) {
    for (Watcher& w : watches_[i]) {
      CCR_DCHECK(arena_[w.cref] == kMovedHeader);
      w.cref = arena_[w.cref + 1];
    }
  }
  for (Var v = 0; v < num_vars(); ++v) {
    const ClauseRef r = reason_[v];
    if (r == kRefUndef || r == kRefBinConflict || RefIsBinary(r)) continue;
    if (arena_[r] == kMovedHeader) {
      reason_[v] = arena_[r + 1];
    } else {
      // A dead reason can only hang off an unassigned or level-0
      // variable (live reasons are pinned by the reduce passes, and the
      // level-0 sweeps run with no deeper assignments outstanding), and
      // conflict analysis never dereferences level-0 reasons.
      CCR_DCHECK(assigns_[v] == Lbool::kUndef || level_[v] == 0);
      reason_[v] = kRefUndef;
    }
  }
  arena_.swap(arena_tmp_);
  arena_tmp_.clear();
  arena_tmp_.shrink_to_fit();
  // ClauseLits reads arena_, so the rebuild has to follow the swap.
  if (TrackOccurrences()) RebuildOccurrenceIndex();
  stats_.gc_reclaimed_words += static_cast<int64_t>(old_words - arena_.size());
  ++stats_.gc_runs;
  arena_dead_words_ = 0;
}

void Solver::MaybeGarbageCollect() {
  if (arena_dead_words_ == 0) return;
  if (static_cast<double>(arena_dead_words_) <=
      options_.gc_frac * static_cast<double>(arena_.size())) {
    return;
  }
  GarbageCollect();
}

void Solver::RebuildOccurrenceIndex() {
  for (Var v = 0; v < num_vars(); ++v) occur_[v].clear();
  // Iterating clauses_ reproduces clause-addition order, the same order
  // the incremental appends in FeedClauseFrom produce.
  for (ClauseRef c : clauses_) {
    const Lit* lits = ClauseLits(c);
    for (int k = 0; k < ClauseSize(c); ++k) {
      occur_[lits[k].var()].push_back(c);
    }
  }
}

}  // namespace ccr::sat
