#include "src/encode/instantiation.h"

#include <algorithm>
#include <span>

#include "src/common/status.h"

namespace ccr {

namespace {

// Code of a non-null constant outside its attribute's domain: it equals no
// projection code (they are >= -1), so = never holds and != always does.
constexpr int kNoCode = -2;

uint64_t HashRow(const int* row, size_t width) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < width; ++i) {
    h = (h ^ static_cast<uint32_t>(row[i])) * 0xff51afd7ed558ccdULL;
  }
  return h ^ (h >> 32);
}

// Canonical emission rank of a family-(2) ground constraint: constraint
// index major, then the projection-pair generation (max index, min index,
// direction). GroundSigma emits each constraint's pairs in exactly this
// order, in Build and ExtendWith alike, so sorting by seq reproduces a
// from-scratch emission order even when the constraints were appended
// across rounds.
uint64_t SigmaSeq(int ci, int p, int q) {
  const uint64_t n = static_cast<uint64_t>(std::max(p, q));
  const uint64_t m = static_cast<uint64_t>(std::min(p, q));
  const uint64_t dir = p > q ? 1 : 0;
  return (static_cast<uint64_t>(ci) << 44) | (n << 24) | (m << 4) | dir;
}

}  // namespace

std::string GroundConstraint::ToString(const Instantiation& inst,
                                       const Schema& schema) const {
  const VarMap& vm = inst.varmap;
  std::string out;
  if (!has_body()) {
    out += "true";
  } else {
    const std::span<const OrderAtom> atoms = inst.body(*this);
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (i > 0) out += " & ";
      out += vm.AtomToString(atoms[i], schema);
    }
  }
  out += " -> ";
  out += head_kind == GroundHead::kFalse ? "false"
                                         : vm.AtomToString(head, schema);
  return out;
}

void Instantiation::ProjTable::KeepLastIfNew() {
  const int id = size() - 1;
  if (slots.size() < 2 * static_cast<size_t>(id + 1)) {
    // Grow to keep the load at most 1/2, re-placing the earlier rows
    // (distinct, so no equality checks).
    slots.assign(std::max<size_t>(16, 2 * slots.size()), -1);
    const size_t mask = slots.size() - 1;
    for (int p = 0; p < id; ++p) {
      size_t i = HashRow(row(p), width) & mask;
      while (slots[i] >= 0) i = (i + 1) & mask;
      slots[i] = p;
    }
  }
  const size_t mask = slots.size() - 1;
  const int* last = row(id);
  for (size_t i = HashRow(last, width) & mask;; i = (i + 1) & mask) {
    if (slots[i] < 0) {
      slots[i] = id;
      return;
    }
    if (std::equal(last, last + width, row(slots[i]))) {
      rows.resize(rows.size() - width);
      return;
    }
  }
}

void Instantiation::AddProjections(const RuleSet& rules, const int* codes,
                                   int n_new, int n_attrs) {
  for (int ti = 0; ti < static_cast<int>(proj_tables_.size()); ++ti) {
    ProjTable& table = proj_tables_[ti];
    const std::vector<int>& attrs = rules.table_attrs(ti);
    for (int t = 0; t < n_new; ++t) {
      const int* row = codes + static_cast<size_t>(t) * n_attrs;
      for (int a : attrs) table.rows.push_back(row[a]);
      table.KeepLastIfNew();
    }
  }
}

void Instantiation::ResolveSigmaConstants(const RuleSet& rules, int attr,
                                          int first) {
  const std::vector<Value>& dom = varmap.domain(attr);
  for (int i = first; i < static_cast<int>(dom.size()); ++i) {
    const int id = rules.SigmaConstantId(attr, dom[i]);
    if (id >= 0) sigma_codes_[id] = i;
  }
}

const Value& Instantiation::CodeValue(int attr, int code) const {
  static const Value kNull;
  return code < 0 ? kNull : varmap.domain(attr)[code];
}

void Instantiation::GroundOrderUnit(int a, int t_less, int t_more) {
  // Null endpoints carry no value-level content: a null is ranked lowest
  // regardless (§II-A). Equal codes are equal values.
  const int li = varmap.tuple_codes(t_less)[a];
  const int mi = varmap.tuple_codes(t_more)[a];
  if (li < 0 || mi < 0 || li == mi) return;
  // The atom's variable is its dedup key: ids are stable under domain
  // growth and one per atom.
  const sat::Var v = varmap.VarOf(a, li, mi);
  const size_t word = static_cast<size_t>(v) >> 6;
  const uint64_t bit = uint64_t{1} << (v & 63);
  if (word >= unit_seen_.size()) unit_seen_.resize(word + 1, 0);
  if ((unit_seen_[word] & bit) != 0) return;
  unit_seen_[word] |= bit;
  GroundConstraint& gc = constraints.emplace_back();
  gc.source = GroundSource::kCurrencyOrder;
  gc.head = OrderAtom{a, li, mi};
}

void Instantiation::GroundSigma(const RuleSet& rules, int ci, int old_np,
                                const InstantiationOptions& options) {
  const RuleSet::SigmaPlan& plan = rules.sigma_plan(ci);
  const ProjTable& table = proj_tables_[plan.table];
  const int np = table.size();
  if (np == old_np) return;
  const CurrencyConstraint& phi = rules.sigma()[ci];

  // Each constant predicate's code, resolved once per entity: -1 for a
  // null constant, kNoCode for one outside the attribute's domain. An
  // equality with such a constant holds on no projection, so one of ϕ's
  // sides is empty and ϕ grounds nothing.
  const auto& consts = phi.constant_predicates();
  const_codes_.resize(consts.size());
  for (size_t k = 0; k < consts.size(); ++k) {
    const int id = plan.constant_id[k];
    const int code = id < 0 ? -1 : sigma_codes_[id];
    if (code == kNoCode && consts[k].op == CmpOp::kEq) return;
    const_codes_[k] = code;
  }
  // The unary part of GroundSigmaPair's checks, per side: a projection
  // failing its side's test can never produce a constraint in that role.
  // t2 may carry a null head only under strict null semantics, where the
  // pair grounds to (body -> false).
  auto side_ok = [&](const int* s, bool t1_side) {
    if ((t1_side || !options.strict_null_order) && s[plan.head] < 0) {
      return false;
    }
    for (int col : plan.order) {
      if (s[col] < 0) return false;
    }
    for (size_t k = 0; k < consts.size(); ++k) {
      const ConstComparePredicate& cp = consts[k];
      if ((cp.tuple_ref == 1) != t1_side) continue;
      const int code = s[plan.constant[k]];
      switch (cp.op) {
        case CmpOp::kEq:
          if (code != const_codes_[k]) return false;
          break;
        case CmpOp::kNe:
          if (code == const_codes_[k]) return false;
          break;
        default:
          if (!EvalCmp(cp.op, CodeValue(cp.attr, code), cp.constant)) {
            return false;
          }
      }
    }
    return true;
  };
  side1_.clear();
  side2_.clear();
  for (int p = 0; p < np; ++p) {
    const int* s = table.row(p);
    if (side_ok(s, true)) side1_.push_back(p);
    if (side_ok(s, false)) side2_.push_back(p);
  }

  if (side1_.empty() || side2_.empty()) return;

  // Pairs in `seq` order, so nothing needs sorting afterwards: the later
  // projection n ascending — only n >= old_np is new — then the earlier
  // projection m ascending, (m, n) before (n, m). side1_[0, k1) and
  // side2_[0, k2) are the side entries below n.
  size_t k1 = 0;
  size_t k2 = 0;
  for (int n = old_np; n < np; ++n) {
    while (k1 < side1_.size() && side1_[k1] < n) ++k1;
    while (k2 < side2_.size() && side2_[k2] < n) ++k2;
    const bool n_is_t2 = k2 < side2_.size() && side2_[k2] == n;
    const bool n_is_t1 = k1 < side1_.size() && side1_[k1] == n;
    const size_t end1 = n_is_t2 ? k1 : 0;  // (m, n): m from side 1
    const size_t end2 = n_is_t1 ? k2 : 0;  // (n, m): m from side 2
    size_t i = 0;
    size_t j = 0;
    while (i < end1 || j < end2) {
      if (j == end2 || (i < end1 && side1_[i] <= side2_[j])) {
        GroundSigmaPair(phi, plan, ci, side1_[i++], n, options);
      } else {
        GroundSigmaPair(phi, plan, ci, n, side2_[j++], options);
      }
    }
  }
}

// Grounds ϕ = sigma[ci] on the (ordered) projection pair (p, q) of its
// table, appending at most one constraint. Its constant predicates hold:
// GroundSigma's side lists decided them.
void Instantiation::GroundSigmaPair(const CurrencyConstraint& phi,
                                    const RuleSet::SigmaPlan& plan, int ci,
                                    int p, int q,
                                    const InstantiationOptions& options) {
  const ProjTable& table = proj_tables_[plan.table];
  const int* s1 = table.row(p);
  const int* s2 = table.row(q);
  const auto& cmps = phi.compare_predicates();
  for (size_t k = 0; k < cmps.size(); ++k) {
    const int c1 = s1[plan.compare[k]];
    const int c2 = s2[plan.compare[k]];
    switch (cmps[k].op) {
      case CmpOp::kEq:
        if (c1 != c2) return;
        break;
      case CmpOp::kNe:
        if (c1 == c2) return;
        break;
      default:
        if (!EvalCmp(cmps[k].op, CodeValue(cmps[k].attr, c1),
                     CodeValue(cmps[k].attr, c2))) {
          return;
        }
    }
  }

  // Head first: many instantiations are vacuous.
  const int ar = phi.head_attr();
  const int h1 = s1[plan.head];
  const int h2 = s2[plan.head];
  if (h1 < 0 || h1 == h2) return;  // trivially satisfied
  bool head_false = false;
  if (h2 < 0) {
    // A value would have to precede a null. Vacuous by default (the
    // null tuple contributes no job/AC/... value to order); under
    // strict null semantics it is a contradiction.
    if (!options.strict_null_order) return;
    head_false = true;
  }

  const auto& orders = phi.order_predicates();
  for (int col : plan.order) {
    // A null endpoint has no value-level order atom: the conjunct
    // cannot be instantiated (ins(ω, s1, s2) substitutes values,
    // and a null is the absence of one), so the ground rule is
    // dropped. Treating "null ≺ v" as true instead would lift the
    // tuple-level null-ranks-lowest convention into spurious
    // value-level units whenever the null tuple carries values in
    // other attributes (e.g. the user tuple t_o of §III).
    // Equal values cannot be strictly ordered either.
    if (s1[col] < 0 || s2[col] < 0 || s1[col] == s2[col]) return;
  }

  GroundConstraint& gc = constraints.emplace_back();
  gc.source = GroundSource::kCurrencyConstraint;
  gc.source_index = ci;
  gc.seq = SigmaSeq(ci, p, q);
  gc.body_begin = static_cast<uint32_t>(body_atoms_.size());
  for (size_t k = 0; k < orders.size(); ++k) {
    body_atoms_.push_back(
        OrderAtom{orders[k].attr, s1[plan.order[k]], s2[plan.order[k]]});
  }
  gc.body_end = static_cast<uint32_t>(body_atoms_.size());
  if (head_false) {
    gc.head_kind = GroundHead::kFalse;
  } else {
    gc.head_kind = GroundHead::kAtom;
    gc.head = OrderAtom{ar, h1, h2};
  }
}

// Family (3) for gamma[gi]: ωX -> b ≺^v_B tp[B] for each competing value b
// with index >= first_b. 0 grounds the full family of a new guard version
// and stores its body ωX; ExtendWith passes the pre-extension domain size
// to ground only newly competing values, which share the stored body (the
// version's LHS domains have not changed).
void Instantiation::GroundCfd(int gi, const RuleSet& rules, int first_b) {
  const ConstantCfd& cfd = rules.gamma()[gi];
  const int rb = cfd.rhs_attr();
  const int rhs_idx = varmap.ValueIndex(rb, cfd.rhs_value());
  CCR_DCHECK(rhs_idx >= 0);

  const int db = static_cast<int>(varmap.domain(rb).size());
  if (first_b >= db) return;

  if (first_b == 0) {
    // Shared body ωX: tp[Aj] dominates every other domain value of Aj.
    const uint32_t begin = static_cast<uint32_t>(body_atoms_.size());
    for (const auto& [aj, cj] : cfd.lhs()) {
      const int cj_idx = varmap.ValueIndex(aj, cj);
      CCR_DCHECK(cj_idx >= 0);
      const int d = static_cast<int>(varmap.domain(aj).size());
      for (int other = 0; other < d; ++other) {
        if (other == cj_idx) continue;
        body_atoms_.push_back(OrderAtom{aj, other, cj_idx});
      }
    }
    cfd_body_[gi] = {begin, static_cast<uint32_t>(body_atoms_.size())};
  }

  const auto [body_begin, body_end] = cfd_body_[gi];
  const sat::Var guard = guarded_ ? cfd_guard_[gi] : sat::kVarUndef;
  for (int b = first_b; b < db; ++b) {
    if (b == rhs_idx) continue;
    GroundConstraint& gc = constraints.emplace_back();
    gc.source = GroundSource::kCfd;
    gc.source_index = gi;
    gc.body_begin = body_begin;
    gc.body_end = body_end;
    gc.head_kind = GroundHead::kAtom;
    gc.head = OrderAtom{rb, b, rhs_idx};
    gc.guard = guard;
  }
}

Result<Instantiation> Instantiation::Build(
    const Specification& se, const InstantiationOptions& options) {
  Instantiation inst;
  CCR_RETURN_NOT_OK(BuildInto(se, &inst, options));
  return inst;
}

Status Instantiation::BuildInto(const Specification& se, Instantiation* out,
                                const InstantiationOptions& options) {
  Instantiation& inst = *out;
  // Clear-in-place so a recycled Instantiation refills into the buffers it
  // already grew (constraints, the body arena, projection tables and their
  // slots, the unit-dedup bits). Nothing here owns heap memory per
  // constraint, so clearing frees nothing.
  inst.constraints.clear();
  inst.body_atoms_.clear();
  inst.unit_seen_.clear();
  inst.active_guards_.clear();
  inst.guarded_ = options.guard_cfds;
  // The rule set was checked when it was made; BuildFrom checks that it
  // fits this schema before it reads any rule.
  CCR_RETURN_NOT_OK(inst.varmap.BuildFrom(se));
  inst.rules_ = se.rules;
  const RuleSet& rules = *se.rules;
  const VarMap& vm = inst.varmap;
  const EntityInstance& ie = se.instance();
  const int n_attrs = se.schema().size();
  const size_t n_gamma = rules.gamma().size();

  inst.num_tuples_ = ie.size();
  inst.cfd_applicable_.assign(n_gamma, false);
  inst.cfd_lhs_attr_.assign(n_attrs, false);
  inst.cfd_guard_.assign(n_gamma, sat::kVarUndef);
  inst.cfd_body_.resize(n_gamma);

  // (1a) Partial currency orders of It, lifted to value-level unit rules.
  for (int a = 0; a < n_attrs; ++a) {
    for (const auto& [t_less, t_more] : se.temporal.orders(a)) {
      inst.GroundOrderUnit(a, t_less, t_more);
    }
  }

  // (2) Currency constraints, joined over the rule set's projection
  // tables. Each constraint's pairs are emitted in `seq` order —
  // generation-major: for every projection n, all pairs with earlier
  // projections m < n — so that ExtendWith (which appends projections)
  // emits the same sequence.
  inst.proj_tables_.resize(rules.num_tables());
  for (int t = 0; t < rules.num_tables(); ++t) {
    ProjTable& table = inst.proj_tables_[t];
    table.width = rules.table_attrs(t).size();
    table.rows.clear();
    table.slots.clear();
  }
  inst.sigma_codes_.assign(rules.num_sigma_constants(), kNoCode);
  for (int a = 0; a < n_attrs; ++a) {
    if (rules.HasSigmaConstants(a)) inst.ResolveSigmaConstants(rules, a, 0);
  }
  inst.AddProjections(rules, vm.tuple_codes(0), ie.size(), n_attrs);
  for (int ci = 0; ci < static_cast<int>(rules.sigma().size()); ++ci) {
    inst.GroundSigma(rules, ci, /*old_np=*/0, options);
  }

  // (3) Applicable constant CFDs: ωX -> b ≺^v_B tp[B] for each competing b.
  for (int gi : vm.applicable_cfds()) {
    if (inst.guarded_) {
      inst.cfd_guard_[gi] = inst.varmap.NewAuxVar();
      inst.active_guards_.push_back(sat::Lit::Pos(inst.cfd_guard_[gi]));
    }
    inst.GroundCfd(gi, rules, /*first_b=*/0);
    inst.cfd_applicable_[gi] = true;
    for (const auto& [aj, cj] : rules.gamma()[gi].lhs()) {
      inst.cfd_lhs_attr_[aj] = true;
    }
  }

  return Status::OK();
}

Result<InstantiationDelta> Instantiation::ExtendWith(
    const Specification& extended_se, const PartialTemporalOrder& delta,
    const InstantiationOptions& options) {
  const EntityInstance& ie = extended_se.instance();
  const int n_attrs = extended_se.schema().size();
  if (extended_se.rules != rules_) {
    return Status::InvalidArgument(
        "ExtendWith: extended_se does not share the grounded "
        "specification's rule set");
  }
  if (ie.size() !=
      num_tuples_ + static_cast<int>(delta.new_tuples.size())) {
    return Status::InvalidArgument(
        "ExtendWith: extended_se does not extend the grounded "
        "specification by exactly delta's tuples");
  }
  if (ie.size() > kMaxTuples) {
    return Status::ResourceExhausted(
        "ExtendWith: the delta brings the entity past the formula size "
        "limit of " +
        std::to_string(kMaxTuples) + " tuples");
  }
  const RuleSet& rules = *rules_;

  // --- plan: which domain values would the delta introduce? --------------
  // (No mutation yet: the rebuild check below must be able to bail out.)
  struct PendingValue {
    int attr;
    Value value;
    bool active;  // from the extended active domain vs. a CFD constant
  };
  std::vector<PendingValue> pending;  // in discovery order
  // A value's domain code, or kPending - i for pending[i]; -1 if neither.
  constexpr int kPending = -2;
  auto code_of = [&](int a, const Value& v) {
    const int code = varmap.ValueIndex(a, v);
    if (code >= 0) return code;
    for (size_t i = 0; i < pending.size(); ++i) {
      if (pending[i].attr == a && pending[i].value == v) {
        return kPending - static_cast<int>(i);
      }
    }
    return -1;
  };
  // The new tuples' code rows, with pending values as kPending - i until
  // they are applied.
  const int n_new = ie.size() - num_tuples_;
  std::vector<int> new_codes(static_cast<size_t>(n_new) * n_attrs, -1);
  for (int t = 0; t < n_new; ++t) {
    for (int a = 0; a < n_attrs; ++a) {
      const Value& v = ie.tuple(num_tuples_ + t).at(a);
      if (v.is_null()) continue;
      int code = code_of(a, v);
      if (code == -1) {
        code = kPending - static_cast<int>(pending.size());
        pending.push_back({a, v, /*active=*/true});
      }
      new_codes[static_cast<size_t>(t) * n_attrs + a] = code;
    }
  }

  // CFD reachability fixpoint over the pending values: a CFD whose LHS
  // becomes reachable contributes its RHS constant (possibly cascading).
  // Only CFDs whose LHS names a pending value can become applicable.
  auto met_before = [&](int gi) {
    if (cfd_applicable_[gi]) return -1;
    int met = 0;
    for (const auto& [attr, c] : rules.gamma()[gi].lhs()) {
      met += varmap.ValueIndex(attr, c) >= 0 ? 1 : 0;
    }
    return met;
  };
  CfdReach& reach = varmap.reach_;
  reach.Start(rules, /*seed_empty_lhs=*/false);
  for (const PendingValue& p : pending) {
    reach.AddValue(p.attr, p.value, met_before);
  }
  std::vector<int> newly_applicable;
  for (int gi = reach.Next(); gi >= 0; gi = reach.Next()) {
    newly_applicable.push_back(gi);
    const ConstantCfd& cfd = rules.gamma()[gi];
    if (code_of(cfd.rhs_attr(), cfd.rhs_value()) == -1) {
      pending.push_back({cfd.rhs_attr(), cfd.rhs_value(), /*active=*/false});
      reach.AddValue(cfd.rhs_attr(), cfd.rhs_value(), met_before);
    }
  }

  // A new value in the LHS attribute of an already-grounded CFD
  // *strengthens* every emitted rule body for that CFD (the pattern must
  // now dominate the new value too), and clauses cannot be retracted.
  // Unguarded grounding must bail out and rebuild. Guarded grounding
  // instead retires the affected CFDs' guards — the encoding pass asserts
  // them off — and re-grounds those CFDs below under fresh guards, keeping
  // the whole extension append-only.
  InstantiationDelta out;
  std::vector<int> retired_cfds;
  for (const auto& p : pending) {
    if (!cfd_lhs_attr_[p.attr]) continue;
    if (!guarded_) {
      out.needs_rebuild = true;
      return out;
    }
    for (const int gi : rules.CfdsWithLhsAttr(p.attr)) {
      if (cfd_applicable_[gi]) retired_cfds.push_back(gi);
    }
  }
  std::sort(retired_cfds.begin(), retired_cfds.end());
  retired_cfds.erase(std::unique(retired_cfds.begin(), retired_cfds.end()),
                     retired_cfds.end());

  // Fail closed before anything is applied: the grown domains must stay
  // within the formula size limit (Σ d², as VarMap::BuildFrom counts it),
  // and the appended values' order atoms (two per existing value) plus
  // the fresh guards within the solver's variable range.
  int64_t added_vars =
      static_cast<int64_t>(retired_cfds.size() + newly_applicable.size());
  std::vector<int64_t> grown(n_attrs, 0);
  for (const auto& p : pending) {
    added_vars += 2 * (static_cast<int64_t>(varmap.domain(p.attr).size()) +
                       grown[p.attr]++);
  }
  int64_t order_vars = 0;
  for (int a = 0; a < n_attrs; ++a) {
    const int64_t d =
        static_cast<int64_t>(varmap.domain(a).size()) + grown[a];
    order_vars += d * d;
  }
  if (order_vars > kMaxOrderVars) {
    return Status::ResourceExhausted(
        "ExtendWith: the delta's order variables exceed the formula size "
        "limit of " +
        std::to_string(kMaxOrderVars));
  }
  if (varmap.num_vars() + added_vars > sat::kMaxVars) {
    return Status::ResourceExhausted(
        "ExtendWith: the delta's variables exceed the solver's range");
  }

  // --- apply --------------------------------------------------------------
  out.first_new_constraint = static_cast<int>(constraints.size());
  out.old_domain_sizes.resize(n_attrs);
  for (int a = 0; a < n_attrs; ++a) {
    out.old_domain_sizes[a] =
        static_cast<int>(varmap.domain(a).size());
  }

  std::vector<int> pending_codes(pending.size());
  for (size_t i = 0; i < pending.size(); ++i) {
    pending_codes[i] =
        varmap.AddDomainValue(pending[i].attr, pending[i].value,
                              pending[i].active);
  }
  for (int t = 0; t < n_new; ++t) {
    int* row = new_codes.data() + static_cast<size_t>(t) * n_attrs;
    for (int a = 0; a < n_attrs; ++a) {
      if (row[a] <= kPending) row[a] = pending_codes[kPending - row[a]];
    }
    varmap.AddTupleCodes(std::span<const int>(row, n_attrs));
  }
  for (int a = 0; a < n_attrs; ++a) {
    if (rules.HasSigmaConstants(a)) {
      ResolveSigmaConstants(rules, a, out.old_domain_sizes[a]);
    }
  }
  std::sort(newly_applicable.begin(), newly_applicable.end());
  for (int gi : newly_applicable) {
    varmap.MarkCfdApplicable(gi);
    cfd_applicable_[gi] = true;
    for (const auto& [aj, cj] : rules.gamma()[gi].lhs()) {
      cfd_lhs_attr_[aj] = true;
    }
  }

  // Guard churn (guarded grounding): retired CFD versions swap to a fresh
  // guard in place — the live-guard list keeps its stable order — and
  // newly applicable CFDs get their first guard before grounding.
  for (int gi : retired_cfds) {
    out.retired_guards.push_back(cfd_guard_[gi]);
    const sat::Var fresh = varmap.NewAuxVar();
    for (sat::Lit& l : active_guards_) {
      if (l.var() == cfd_guard_[gi]) l = sat::Lit::Pos(fresh);
    }
    cfd_guard_[gi] = fresh;
  }
  if (guarded_) {
    for (int gi : newly_applicable) {
      cfd_guard_[gi] = varmap.NewAuxVar();
      active_guards_.push_back(sat::Lit::Pos(cfd_guard_[gi]));
    }
  }

  // (1a) The delta's currency orders, lifted to value-level unit rules.
  for (const auto& [a, t_less, t_more] : delta.orders) {
    GroundOrderUnit(a, t_less, t_more);
  }

  // (2) New tuple-pair projections, paired with everything before them.
  std::vector<int> old_np(proj_tables_.size());
  for (size_t i = 0; i < proj_tables_.size(); ++i) {
    old_np[i] = proj_tables_[i].size();
  }
  AddProjections(rules, varmap.tuple_codes(num_tuples_), n_new, n_attrs);
  for (int ci = 0; ci < static_cast<int>(rules.sigma().size()); ++ci) {
    GroundSigma(rules, ci, old_np[rules.sigma_plan(ci).table], options);
  }

  // (3) CFDs: newly competing values of still-valid applicable CFDs (their
  // LHS domains did not change, so they keep their body), full re-grounds
  // of retired versions under their fresh guards, then the full families
  // of newly applicable ones.
  for (const int gi : varmap.applicable_cfds()) {
    if (std::binary_search(newly_applicable.begin(), newly_applicable.end(),
                           gi)) {
      continue;
    }
    const bool is_retired =
        std::binary_search(retired_cfds.begin(), retired_cfds.end(), gi);
    GroundCfd(gi, rules,
              is_retired
                  ? 0
                  : out.old_domain_sizes[rules.gamma()[gi].rhs_attr()]);
  }
  for (int gi : newly_applicable) {
    GroundCfd(gi, rules, /*first_b=*/0);
  }

  num_tuples_ = ie.size();
  return out;
}

}  // namespace ccr
