#include "src/encode/instantiation.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "src/common/status.h"

namespace ccr {

namespace {

// Appends the attributes a currency constraint mentions (body and head),
// sorted and deduplicated, to `out`.
void AppendMentionedAttrs(const CurrencyConstraint& phi,
                          std::vector<int>* out) {
  const size_t first = out->size();
  for (const auto& p : phi.order_predicates()) out->push_back(p.attr);
  for (const auto& p : phi.compare_predicates()) out->push_back(p.attr);
  for (const auto& p : phi.constant_predicates()) out->push_back(p.attr);
  out->push_back(phi.head_attr());
  std::sort(out->begin() + first, out->end());
  out->erase(std::unique(out->begin() + first, out->end()), out->end());
}

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

// Stable dedup key for a family-(1a) unit (independent of domain sizes, so
// it survives incremental domain growth).
uint64_t UnitKey(int attr, int less, int more) {
  return (static_cast<uint64_t>(attr) << 42) |
         (static_cast<uint64_t>(less) << 21) | static_cast<uint64_t>(more);
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

std::string GroundConstraint::ToString(const VarMap& vm,
                                       const Schema& schema) const {
  std::string out;
  if (body.empty()) {
    out += "true";
  } else {
    for (size_t i = 0; i < body.size(); ++i) {
      if (i > 0) out += " & ";
      out += vm.AtomToString(body[i], schema);
    }
  }
  out += " -> ";
  out += head_kind == GroundHead::kFalse ? "false"
                                         : vm.AtomToString(head, schema);
  return out;
}

void Instantiation::ProjTable::KeepLastIfNew() {
  const size_t width = attrs.size();
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

void Instantiation::AddProjections(const EntityInstance& ie, int first_tuple,
                                   int n_attrs) {
  // Each new tuple's code row, computed once for every table.
  const int n_new = ie.size() - first_tuple;
  codes_.resize(static_cast<size_t>(n_new) * n_attrs);
  for (int t = 0; t < n_new; ++t) {
    const Tuple& tuple = ie.tuple(first_tuple + t);
    for (int a = 0; a < n_attrs; ++a) {
      const Value& v = tuple.at(a);
      codes_[t * n_attrs + a] = v.is_null() ? -1 : varmap.ValueIndex(a, v);
    }
  }
  for (ProjTable& table : proj_tables_) {
    for (int t = 0; t < n_new; ++t) {
      const int* codes = codes_.data() + t * n_attrs;
      for (int a : table.attrs) table.rows.push_back(codes[a]);
      table.KeepLastIfNew();
    }
  }
}

const Value& Instantiation::CodeValue(int attr, int code) const {
  static const Value kNull;
  return code < 0 ? kNull : varmap.domain(attr)[code];
}

void Instantiation::GroundSigma(const CurrencyConstraint& phi, int ci,
                                int old_np,
                                const InstantiationOptions& options) {
  const SigmaPlan& plan = sigma_plans_[ci];
  const ProjTable& table = proj_tables_[plan.table];
  const int np = table.size();
  if (np == old_np) return;

  // Resolve each constant predicate once: the constant's code, -1 for a
  // null constant. An equality with a value outside the attribute's
  // domain holds on no projection, so one of ϕ's sides is empty and ϕ
  // grounds nothing.
  const auto& consts = phi.constant_predicates();
  const_codes_.resize(consts.size());
  for (size_t k = 0; k < consts.size(); ++k) {
    const ConstComparePredicate& cp = consts[k];
    int code = -1;
    if (!cp.constant.is_null()) {
      code = varmap.ValueIndex(cp.attr, cp.constant);
      if (code < 0) {
        if (cp.op == CmpOp::kEq) return;
        code = kNoCode;
      }
    }
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
        GroundSigmaPair(phi, ci, side1_[i++], n, options);
      } else {
        GroundSigmaPair(phi, ci, n, side2_[j++], options);
      }
    }
  }
}

// Grounds ϕ = sigma[ci] on the (ordered) projection pair (p, q) of its
// table, appending at most one constraint. Its constant predicates hold:
// GroundSigma's side lists decided them.
void Instantiation::GroundSigmaPair(const CurrencyConstraint& phi, int ci,
                                    int p, int q,
                                    const InstantiationOptions& options) {
  const SigmaPlan& plan = sigma_plans_[ci];
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
  gc.body.reserve(orders.size());
  for (size_t k = 0; k < orders.size(); ++k) {
    gc.body.push_back(
        OrderAtom{orders[k].attr, s1[plan.order[k]], s2[plan.order[k]]});
  }
  if (head_false) {
    gc.head_kind = GroundHead::kFalse;
  } else {
    gc.head_kind = GroundHead::kAtom;
    gc.head = OrderAtom{ar, h1, h2};
  }
}

// Family (3) for gamma[gi]: ωX -> b ≺^v_B tp[B] for each competing value b
// with index >= first_b (0 grounds the full family; ExtendWith passes the
// pre-extension domain size to ground only newly competing values).
void Instantiation::GroundCfd(int gi, const Specification& se, int first_b) {
  const ConstantCfd& cfd = se.gamma[gi];
  const int rb = cfd.rhs_attr();
  const int rhs_idx = varmap.ValueIndex(rb, cfd.rhs_value());
  CCR_DCHECK(rhs_idx >= 0);

  const int db = static_cast<int>(varmap.domain(rb).size());
  if (first_b >= db) return;

  // Shared body ωX: tp[Aj] dominates every other domain value of Aj.
  std::vector<OrderAtom> body;
  for (const auto& [aj, cj] : cfd.lhs()) {
    const int cj_idx = varmap.ValueIndex(aj, cj);
    CCR_DCHECK(cj_idx >= 0);
    const int d = static_cast<int>(varmap.domain(aj).size());
    for (int other = 0; other < d; ++other) {
      if (other == cj_idx) continue;
      body.push_back(OrderAtom{aj, other, cj_idx});
    }
  }

  for (int b = first_b; b < db; ++b) {
    if (b == rhs_idx) continue;
    GroundConstraint gc;
    gc.source = GroundSource::kCfd;
    gc.source_index = gi;
    gc.body = body;
    gc.head_kind = GroundHead::kAtom;
    gc.head = OrderAtom{rb, b, rhs_idx};
    gc.guard = guarded_ ? cfd_guard_[gi] : sat::kVarUndef;
    constraints.push_back(std::move(gc));
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
  // already grew (constraint vector, projection tables and their hash
  // buckets, the unit-dedup set).
  inst.constraints.clear();
  inst.unit_seen_.clear();
  for (ProjTable& table : inst.proj_tables_) {
    table.rows.clear();
    table.slots.clear();
  }
  inst.active_guards_.clear();
  inst.guarded_ = options.guard_cfds;
  CCR_RETURN_NOT_OK(inst.varmap.BuildFrom(se));
  const VarMap& vm = inst.varmap;
  const Schema& schema = se.schema();
  const EntityInstance& ie = se.instance();
  const int n_attrs = schema.size();

  // Bounds-check constraints up front, keeping each Σ constraint's
  // mentioned attributes: sigma_attrs[sigma_begin[ci], sigma_begin[ci+1]).
  const int n_sigma = static_cast<int>(se.sigma.size());
  std::vector<int> sigma_attrs;
  std::vector<int> sigma_begin(n_sigma + 1, 0);
  for (int ci = 0; ci < n_sigma; ++ci) {
    const CurrencyConstraint& phi = se.sigma[ci];
    if (phi.head_attr() < 0 || phi.head_attr() >= n_attrs) {
      return Status::InvalidArgument("currency constraint head attribute "
                                     "out of range");
    }
    AppendMentionedAttrs(phi, &sigma_attrs);
    sigma_begin[ci + 1] = static_cast<int>(sigma_attrs.size());
    for (int i = sigma_begin[ci]; i < sigma_begin[ci + 1]; ++i) {
      if (sigma_attrs[i] < 0 || sigma_attrs[i] >= n_attrs) {
        return Status::InvalidArgument(
            "currency constraint attribute out of range");
      }
    }
  }
  for (const auto& cfd : se.gamma) {
    if (cfd.rhs_attr() < 0 || cfd.rhs_attr() >= n_attrs) {
      return Status::InvalidArgument("CFD RHS attribute out of range");
    }
    for (const auto& [a, c] : cfd.lhs()) {
      if (a < 0 || a >= n_attrs) {
        return Status::InvalidArgument("CFD LHS attribute out of range");
      }
    }
  }

  inst.num_tuples_ = ie.size();
  inst.cfd_applicable_.assign(se.gamma.size(), false);
  inst.cfd_lhs_attr_.assign(n_attrs, false);
  inst.cfd_guard_.assign(se.gamma.size(), sat::kVarUndef);

  // (1a) Partial currency orders of It, lifted to value-level unit rules.
  for (int a = 0; a < n_attrs; ++a) {
    for (const auto& [t_less, t_more] : se.temporal.orders(a)) {
      const Value& lv = ie.tuple(t_less).at(a);
      const Value& mv = ie.tuple(t_more).at(a);
      // Null endpoints carry no value-level content: a null is ranked
      // lowest regardless (§II-A).
      if (lv.is_null() || mv.is_null() || lv == mv) continue;
      const int li = vm.ValueIndex(a, lv);
      const int mi = vm.ValueIndex(a, mv);
      CCR_DCHECK(li >= 0 && mi >= 0);
      if (!inst.unit_seen_.insert(UnitKey(a, li, mi)).second) continue;
      GroundConstraint gc;
      gc.source = GroundSource::kCurrencyOrder;
      gc.head = OrderAtom{a, li, mi};
      inst.constraints.push_back(std::move(gc));
    }
  }

  // (2) Currency constraints, joined over projection tables shared per
  // mentioned-attribute set. Each constraint's pairs are emitted in `seq`
  // order — generation-major: for every projection n, all pairs with
  // earlier projections m < n — so that ExtendWith (which appends
  // projections) emits the same sequence. Sorting the constraints by
  // attribute set puts those sharing a table next to each other.
  auto attrs_of = [&](int ci) {
    return std::span<const int>(sigma_attrs.data() + sigma_begin[ci],
                                sigma_attrs.data() + sigma_begin[ci + 1]);
  };
  std::vector<int> by_attrs(n_sigma);
  std::iota(by_attrs.begin(), by_attrs.end(), 0);
  std::sort(by_attrs.begin(), by_attrs.end(), [&](int x, int y) {
    return std::ranges::lexicographical_compare(attrs_of(x), attrs_of(y));
  });
  inst.sigma_plans_.resize(n_sigma);
  int n_tables = 0;
  for (int k = 0; k < n_sigma; ++k) {
    const int ci = by_attrs[k];
    if (k == 0 ||
        !std::ranges::equal(attrs_of(ci), attrs_of(by_attrs[k - 1]))) {
      if (n_tables == static_cast<int>(inst.proj_tables_.size())) {
        inst.proj_tables_.emplace_back();
      }
      const std::span<const int> attrs = attrs_of(ci);
      inst.proj_tables_[n_tables++].attrs.assign(attrs.begin(), attrs.end());
    }
    SigmaPlan& plan = inst.sigma_plans_[ci];
    const std::vector<int>& table_attrs =
        inst.proj_tables_[n_tables - 1].attrs;
    auto column = [&](int attr) {
      return static_cast<int>(
          std::lower_bound(table_attrs.begin(), table_attrs.end(), attr) -
          table_attrs.begin());
    };
    const CurrencyConstraint& phi = se.sigma[ci];
    plan.table = n_tables - 1;
    plan.head = column(phi.head_attr());
    plan.order.clear();
    for (const auto& p : phi.order_predicates()) {
      plan.order.push_back(column(p.attr));
    }
    plan.compare.clear();
    for (const auto& p : phi.compare_predicates()) {
      plan.compare.push_back(column(p.attr));
    }
    plan.constant.clear();
    for (const auto& p : phi.constant_predicates()) {
      plan.constant.push_back(column(p.attr));
    }
  }
  inst.proj_tables_.resize(n_tables);
  inst.AddProjections(ie, /*first_tuple=*/0, n_attrs);
  for (size_t ci = 0; ci < se.sigma.size(); ++ci) {
    inst.GroundSigma(se.sigma[ci], static_cast<int>(ci), /*old_np=*/0,
                     options);
  }

  // (3) Applicable constant CFDs: ωX -> b ≺^v_B tp[B] for each competing b.
  for (int gi : vm.applicable_cfds()) {
    if (inst.guarded_) {
      inst.cfd_guard_[gi] = inst.varmap.NewAuxVar();
      inst.active_guards_.push_back(sat::Lit::Pos(inst.cfd_guard_[gi]));
    }
    inst.GroundCfd(gi, se, /*first_b=*/0);
    inst.cfd_applicable_[gi] = true;
    for (const auto& [aj, cj] : se.gamma[gi].lhs()) {
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
  if (ie.size() !=
      num_tuples_ + static_cast<int>(delta.new_tuples.size())) {
    return Status::InvalidArgument(
        "ExtendWith: extended_se does not extend the grounded "
        "specification by exactly delta's tuples");
  }

  // --- plan: which domain values would the delta introduce? --------------
  // (No mutation yet: the rebuild check below must be able to bail out.)
  struct PendingValue {
    int attr;
    Value value;
    bool active;  // from the extended active domain vs. a CFD constant
  };
  std::vector<PendingValue> pending;  // in discovery order
  auto in_domain = [&](int a, const Value& v) {
    if (varmap.ValueIndex(a, v) >= 0) return true;
    for (const auto& p : pending) {
      if (p.attr == a && p.value == v) return true;
    }
    return false;
  };
  for (int t = num_tuples_; t < ie.size(); ++t) {
    for (int a = 0; a < n_attrs; ++a) {
      const Value& v = ie.tuple(t).at(a);
      if (!v.is_null() && !in_domain(a, v)) {
        pending.push_back({a, v, /*active=*/true});
      }
    }
  }

  // CFD reachability fixpoint over the pending values: a CFD whose LHS
  // becomes reachable contributes its RHS constant (possibly cascading).
  std::vector<int> newly_applicable;
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < extended_se.gamma.size(); ++i) {
      if (cfd_applicable_[i]) continue;
      if (std::find(newly_applicable.begin(), newly_applicable.end(),
                    static_cast<int>(i)) != newly_applicable.end()) {
        continue;
      }
      const ConstantCfd& cfd = extended_se.gamma[i];
      bool lhs_reachable = true;
      for (const auto& [attr, c] : cfd.lhs()) {
        if (!in_domain(attr, c)) {
          lhs_reachable = false;
          break;
        }
      }
      if (!lhs_reachable) continue;
      newly_applicable.push_back(static_cast<int>(i));
      changed = true;
      if (!in_domain(cfd.rhs_attr(), cfd.rhs_value())) {
        pending.push_back({cfd.rhs_attr(), cfd.rhs_value(),
                           /*active=*/false});
      }
    }
  }

  // A new value in the LHS attribute of an already-grounded CFD
  // *strengthens* every emitted rule body for that CFD (the pattern must
  // now dominate the new value too), and clauses cannot be retracted.
  // Unguarded grounding must bail out and rebuild. Guarded grounding
  // instead retires the affected CFDs' guards — ExtendCnf asserts them
  // off — and re-grounds those CFDs below under fresh guards, keeping the
  // whole extension append-only.
  InstantiationDelta out;
  std::vector<int> retired_cfds;
  for (const auto& p : pending) {
    if (!cfd_lhs_attr_[p.attr]) continue;
    if (!guarded_) {
      out.needs_rebuild = true;
      return out;
    }
    for (size_t gi = 0; gi < extended_se.gamma.size(); ++gi) {
      if (!cfd_applicable_[gi]) continue;
      for (const auto& [aj, cj] : extended_se.gamma[gi].lhs()) {
        if (aj == p.attr) {
          retired_cfds.push_back(static_cast<int>(gi));
          break;
        }
      }
    }
  }
  std::sort(retired_cfds.begin(), retired_cfds.end());
  retired_cfds.erase(std::unique(retired_cfds.begin(), retired_cfds.end()),
                     retired_cfds.end());

  // Fail closed before anything is applied: the appended values' order
  // atoms (two per existing value) and the fresh guards must stay within
  // the solver's variable range.
  int64_t added_vars =
      static_cast<int64_t>(retired_cfds.size() + newly_applicable.size());
  std::vector<int64_t> grown(n_attrs, 0);
  for (const auto& p : pending) {
    added_vars += 2 * (static_cast<int64_t>(varmap.domain(p.attr).size()) +
                       grown[p.attr]++);
  }
  if (varmap.num_vars() + added_vars > sat::kMaxVars) {
    return Status::ResourceExhausted(
        "ExtendWith: the delta's order variables exceed the solver's range");
  }

  // --- apply --------------------------------------------------------------
  out.first_new_constraint = static_cast<int>(constraints.size());
  out.old_num_vars = varmap.num_vars();
  out.old_domain_sizes.resize(n_attrs);
  for (int a = 0; a < n_attrs; ++a) {
    out.old_domain_sizes[a] =
        static_cast<int>(varmap.domain(a).size());
  }

  for (const auto& p : pending) {
    varmap.AddDomainValue(p.attr, p.value, p.active);
  }
  std::sort(newly_applicable.begin(), newly_applicable.end());
  for (int gi : newly_applicable) {
    varmap.MarkCfdApplicable(gi);
    cfd_applicable_[gi] = true;
    for (const auto& [aj, cj] : extended_se.gamma[gi].lhs()) {
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
    const Value& lv = ie.tuple(t_less).at(a);
    const Value& mv = ie.tuple(t_more).at(a);
    if (lv.is_null() || mv.is_null() || lv == mv) continue;
    const int li = varmap.ValueIndex(a, lv);
    const int mi = varmap.ValueIndex(a, mv);
    CCR_DCHECK(li >= 0 && mi >= 0);
    if (!unit_seen_.insert(UnitKey(a, li, mi)).second) continue;
    GroundConstraint gc;
    gc.source = GroundSource::kCurrencyOrder;
    gc.head = OrderAtom{a, li, mi};
    constraints.push_back(std::move(gc));
  }

  // (2) New tuple-pair projections, paired with everything before them.
  std::vector<int> old_np(proj_tables_.size());
  for (size_t i = 0; i < proj_tables_.size(); ++i) {
    old_np[i] = proj_tables_[i].size();
  }
  AddProjections(ie, num_tuples_, n_attrs);
  for (size_t ci = 0; ci < extended_se.sigma.size(); ++ci) {
    GroundSigma(extended_se.sigma[ci], static_cast<int>(ci),
                old_np[sigma_plans_[ci].table], options);
  }

  // (3) CFDs: newly competing values of still-valid applicable CFDs (their
  // LHS domains did not change, so recomputed bodies match the rules
  // already emitted), full re-grounds of retired versions under their
  // fresh guards, then the full families of newly applicable ones.
  for (size_t gi = 0; gi < extended_se.gamma.size(); ++gi) {
    if (!cfd_applicable_[gi]) continue;
    const bool is_new =
        std::binary_search(newly_applicable.begin(), newly_applicable.end(),
                           static_cast<int>(gi));
    if (is_new) continue;
    const bool is_retired =
        std::binary_search(retired_cfds.begin(), retired_cfds.end(),
                           static_cast<int>(gi));
    GroundCfd(static_cast<int>(gi), extended_se,
              is_retired
                  ? 0
                  : out.old_domain_sizes[extended_se.gamma[gi].rhs_attr()]);
  }
  for (int gi : newly_applicable) {
    GroundCfd(gi, extended_se, /*first_b=*/0);
  }

  num_tuples_ = ie.size();
  return out;
}

}  // namespace ccr
