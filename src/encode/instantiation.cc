#include "src/encode/instantiation.h"

#include <algorithm>
#include <map>

#include "src/common/status.h"

namespace ccr {

namespace {

// Attributes mentioned by a currency constraint (body and head), sorted.
std::vector<int> MentionedAttrs(const CurrencyConstraint& phi) {
  std::vector<int> attrs;
  for (const auto& p : phi.order_predicates()) attrs.push_back(p.attr);
  for (const auto& p : phi.compare_predicates()) attrs.push_back(p.attr);
  for (const auto& p : phi.constant_predicates()) attrs.push_back(p.attr);
  attrs.push_back(phi.head_attr());
  std::sort(attrs.begin(), attrs.end());
  attrs.erase(std::unique(attrs.begin(), attrs.end()), attrs.end());
  return attrs;
}

// Stable dedup key for a family-(1a) unit (independent of domain sizes, so
// it survives incremental domain growth).
uint64_t UnitKey(int attr, int less, int more) {
  return (static_cast<uint64_t>(attr) << 42) |
         (static_cast<uint64_t>(less) << 21) | static_cast<uint64_t>(more);
}

// Canonical emission rank of a family-(2) ground constraint: constraint
// index major, then the projection-pair generation (max index, min index,
// direction). Both Build and ExtendWith enumerate pairs in exactly this
// order, so sorting by seq reproduces a from-scratch emission order even
// when the constraints were appended across rounds.
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

void Instantiation::AddProjections(const EntityInstance& ie, int first_tuple,
                                   int n_attrs) {
  std::vector<Value> key;
  for (ProjTable& table : proj_tables_) {
    for (int t = first_tuple; t < ie.size(); ++t) {
      const Tuple& tuple = ie.tuple(t);
      key.clear();
      for (int a : table.attrs) key.push_back(tuple.at(a));
      if (table.proj_ids.contains(key)) continue;
      table.proj_ids.emplace(key,
                             static_cast<int>(table.projections.size()));
      std::vector<Value> wide(n_attrs);
      for (int a : table.attrs) wide[a] = tuple.at(a);
      table.projections.emplace_back(std::move(wide));
    }
  }
}

void Instantiation::GroundSigma(const CurrencyConstraint& phi, int ci,
                                int old_np,
                                const InstantiationOptions& options) {
  const ProjTable& table = proj_tables_[sigma_table_[ci]];
  const int np = static_cast<int>(table.projections.size());
  if (np == old_np) return;

  // The unary part of GroundSigmaPair's checks, per side: a projection
  // failing its side's test can never produce a constraint in that role.
  // t2 may carry a null head only under strict null semantics, where the
  // pair grounds to (body -> false).
  auto side_ok = [&](const Tuple& s, bool t1_side) {
    if ((t1_side || !options.strict_null_order) &&
        s.at(phi.head_attr()).is_null()) {
      return false;
    }
    for (const auto& op : phi.order_predicates()) {
      if (s.at(op.attr).is_null()) return false;
    }
    for (const auto& cp : phi.constant_predicates()) {
      if ((cp.tuple_ref == 1) == t1_side && !cp.Eval(s, s)) return false;
    }
    return true;
  };
  side1_.clear();
  side2_.clear();
  for (int p = 0; p < np; ++p) {
    const Tuple& s = table.projections[p];
    if (side_ok(s, true)) side1_.push_back(p);
    if (side_ok(s, false)) side2_.push_back(p);
  }

  // Only pairs touching a projection at or past old_np are new.
  const size_t first = constraints.size();
  const auto new_side2 =
      std::lower_bound(side2_.begin(), side2_.end(), old_np);
  for (int p : side1_) {
    for (auto it = p >= old_np ? side2_.begin() : new_side2;
         it != side2_.end(); ++it) {
      if (*it != p) GroundSigmaPair(phi, ci, p, *it, options);
    }
  }
  std::sort(constraints.begin() + first, constraints.end(),
            [](const GroundConstraint& a, const GroundConstraint& b) {
              return a.seq < b.seq;
            });
}

// Grounds ϕ = sigma[ci] on the (ordered) projection pair (p, q) of its
// table, appending at most one constraint.
void Instantiation::GroundSigmaPair(const CurrencyConstraint& phi, int ci,
                                    int p, int q,
                                    const InstantiationOptions& options) {
  const ProjTable& table = proj_tables_[sigma_table_[ci]];
  const Tuple& s1 = table.projections[p];
  const Tuple& s2 = table.projections[q];
  if (!phi.ComparisonsHold(s1, s2)) return;

  // Head first: many instantiations are vacuous.
  const int ar = phi.head_attr();
  const Value& h1 = s1.at(ar);
  const Value& h2 = s2.at(ar);
  if (h1.is_null() || h1 == h2) return;  // trivially satisfied
  bool head_false = false;
  if (h2.is_null()) {
    // A value would have to precede a null. Vacuous by default (the
    // null tuple contributes no job/AC/... value to order); under
    // strict null semantics it is a contradiction.
    if (!options.strict_null_order) return;
    head_false = true;
  }

  GroundConstraint gc;
  gc.source = GroundSource::kCurrencyConstraint;
  gc.source_index = ci;
  gc.seq = SigmaSeq(ci, p, q);
  for (const auto& op : phi.order_predicates()) {
    const Value& v1 = s1.at(op.attr);
    const Value& v2 = s2.at(op.attr);
    // A null endpoint has no value-level order atom: the conjunct
    // cannot be instantiated (ins(ω, s1, s2) substitutes values,
    // and a null is the absence of one), so the ground rule is
    // dropped. Treating "null ≺ v" as true instead would lift the
    // tuple-level null-ranks-lowest convention into spurious
    // value-level units whenever the null tuple carries values in
    // other attributes (e.g. the user tuple t_o of §III).
    // Equal values cannot be strictly ordered either.
    if (v1.is_null() || v2.is_null() || v1 == v2) return;
    gc.body.push_back(OrderAtom{op.attr, varmap.ValueIndex(op.attr, v1),
                                varmap.ValueIndex(op.attr, v2)});
  }

  if (head_false) {
    gc.head_kind = GroundHead::kFalse;
  } else {
    gc.head_kind = GroundHead::kAtom;
    gc.head = OrderAtom{ar, varmap.ValueIndex(ar, h1),
                        varmap.ValueIndex(ar, h2)};
  }
  constraints.push_back(std::move(gc));
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
    table.proj_ids.clear();
    table.projections.clear();
  }
  inst.active_guards_.clear();
  inst.guarded_ = options.guard_cfds;
  CCR_RETURN_NOT_OK(inst.varmap.BuildFrom(se));
  const VarMap& vm = inst.varmap;
  const Schema& schema = se.schema();
  const EntityInstance& ie = se.instance();
  const int n_attrs = schema.size();

  // Bounds-check constraints up front.
  for (const auto& phi : se.sigma) {
    if (phi.head_attr() < 0 || phi.head_attr() >= n_attrs) {
      return Status::InvalidArgument("currency constraint head attribute "
                                     "out of range");
    }
    for (int a : MentionedAttrs(phi)) {
      if (a < 0 || a >= n_attrs) {
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
  // projections) emits the same sequence.
  std::map<std::vector<int>, int> table_of;
  inst.sigma_table_.resize(se.sigma.size());
  for (size_t ci = 0; ci < se.sigma.size(); ++ci) {
    const int next = static_cast<int>(table_of.size());
    inst.sigma_table_[ci] =
        table_of.emplace(MentionedAttrs(se.sigma[ci]), next).first->second;
  }
  inst.proj_tables_.resize(table_of.size());
  for (const auto& [attrs, i] : table_of) inst.proj_tables_[i].attrs = attrs;
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
    old_np[i] = static_cast<int>(proj_tables_[i].projections.size());
  }
  AddProjections(ie, num_tuples_, n_attrs);
  for (size_t ci = 0; ci < extended_se.sigma.size(); ++ci) {
    GroundSigma(extended_se.sigma[ci], static_cast<int>(ci),
                old_np[sigma_table_[ci]], options);
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
