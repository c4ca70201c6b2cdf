// Family-(2) grounding as a join must emit exactly what the plain nested
// loop over every ordered pair of distinct projections emits: the same
// constraints, field for field, in the same order — after Build, after
// incremental extensions, and on a recycled Instantiation.
//
// The reference grounder below is that nested loop, kept here only. It
// owns a separate projection table per constraint and re-derives every
// check of a ground rule from the constraint's definition (§V-A).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/constraints/specification.h"
#include "src/encode/instantiation.h"

namespace ccr {
namespace {

constexpr int kAttrs = 4;
constexpr CmpOp kOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                          CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};

uint64_t RefSeq(int ci, int p, int q) {
  const uint64_t n = static_cast<uint64_t>(std::max(p, q));
  const uint64_t m = static_cast<uint64_t>(std::min(p, q));
  return (static_cast<uint64_t>(ci) << 44) | (n << 24) | (m << 4) |
         (p > q ? 1 : 0);
}

// A ground constraint with its body atoms held inline, so rules of an
// Instantiation (whose bodies are ranges of its arena) and the
// reference's compare field by field.
struct RefRule {
  GroundSource source = GroundSource::kCurrencyConstraint;
  int source_index = -1;
  std::vector<OrderAtom> body;
  GroundHead head_kind = GroundHead::kAtom;
  OrderAtom head;
  sat::Var guard = sat::kVarUndef;
  uint64_t seq = 0;
};

// Nested-loop family-(2) grounder with one projection table per
// constraint. Ground() covers the tuples added since the previous call.
class RefGrounder {
 public:
  std::vector<RefRule> Ground(const Specification& se, const VarMap& vm,
                              bool strict) {
    const EntityInstance& ie = se.instance();
    tables_.resize(se.sigma().size());
    std::vector<RefRule> out;
    for (size_t ci = 0; ci < se.sigma().size(); ++ci) {
      const CurrencyConstraint& phi = se.sigma()[ci];
      Table& table = tables_[ci];
      const int old_np = static_cast<int>(table.keys.size());
      const std::vector<int> attrs = Mentioned(phi);
      for (int t = grounded_; t < ie.size(); ++t) {
        std::vector<Value> key;
        for (int a : attrs) key.push_back(ie.tuple(t).at(a));
        if (std::find(table.keys.begin(), table.keys.end(), key) !=
            table.keys.end()) {
          continue;
        }
        std::vector<Value> wide(kAttrs);
        for (int a : attrs) wide[a] = ie.tuple(t).at(a);
        table.keys.push_back(std::move(key));
        table.projections.emplace_back(std::move(wide));
      }
      const int np = static_cast<int>(table.keys.size());
      for (int n = old_np; n < np; ++n) {
        for (int m = 0; m < n; ++m) {
          Pair(phi, static_cast<int>(ci), table, m, n, vm, strict, &out);
          Pair(phi, static_cast<int>(ci), table, n, m, vm, strict, &out);
        }
      }
    }
    grounded_ = ie.size();
    return out;
  }

 private:
  struct Table {
    std::vector<std::vector<Value>> keys;
    std::vector<Tuple> projections;
  };

  static std::vector<int> Mentioned(const CurrencyConstraint& phi) {
    std::set<int> attrs = {phi.head_attr()};
    for (const auto& p : phi.order_predicates()) attrs.insert(p.attr);
    for (const auto& p : phi.compare_predicates()) attrs.insert(p.attr);
    for (const auto& p : phi.constant_predicates()) attrs.insert(p.attr);
    return {attrs.begin(), attrs.end()};
  }

  static void Pair(const CurrencyConstraint& phi, int ci, const Table& table,
                   int p, int q, const VarMap& vm, bool strict,
                   std::vector<RefRule>* out) {
    const Tuple& s1 = table.projections[p];
    const Tuple& s2 = table.projections[q];
    for (const auto& c : phi.compare_predicates()) {
      if (!EvalCmp(c.op, s1.at(c.attr), s2.at(c.attr))) return;
    }
    for (const auto& c : phi.constant_predicates()) {
      const Tuple& s = c.tuple_ref == 1 ? s1 : s2;
      if (!EvalCmp(c.op, s.at(c.attr), c.constant)) return;
    }
    const int ar = phi.head_attr();
    const Value& h1 = s1.at(ar);
    const Value& h2 = s2.at(ar);
    if (h1.is_null() || h1 == h2) return;
    if (h2.is_null() && !strict) return;
    RefRule gc;
    gc.source_index = ci;
    gc.seq = RefSeq(ci, p, q);
    for (const auto& op : phi.order_predicates()) {
      const Value& v1 = s1.at(op.attr);
      const Value& v2 = s2.at(op.attr);
      if (v1.is_null() || v2.is_null() || v1 == v2) return;
      gc.body.push_back(OrderAtom{op.attr, vm.ValueIndex(op.attr, v1),
                                  vm.ValueIndex(op.attr, v2)});
    }
    if (h2.is_null()) {
      gc.head_kind = GroundHead::kFalse;
    } else {
      gc.head = OrderAtom{ar, vm.ValueIndex(ar, h1), vm.ValueIndex(ar, h2)};
    }
    out->push_back(std::move(gc));
  }

  std::vector<Table> tables_;
  int grounded_ = 0;
};

RefRule ToRefRule(const Instantiation& inst, const GroundConstraint& gc) {
  RefRule r;
  r.source = gc.source;
  r.source_index = gc.source_index;
  const std::span<const OrderAtom> body = inst.body(gc);
  r.body.assign(body.begin(), body.end());
  r.head_kind = gc.head_kind;
  r.head = gc.head;
  r.guard = gc.version >= 0 ? inst.version(gc).guard : sat::kVarUndef;
  r.seq = gc.seq;
  return r;
}

// The Σ-sourced constraints of `inst`, in emission order.
std::vector<RefRule> SigmaRules(const Instantiation& inst) {
  std::vector<RefRule> out;
  for (const GroundConstraint& gc : inst.constraints) {
    if (gc.source == GroundSource::kCurrencyConstraint) {
      out.push_back(ToRefRule(inst, gc));
    }
  }
  return out;
}

// Every constraint of `inst`, in emission order.
std::vector<RefRule> AllRules(const Instantiation& inst) {
  std::vector<RefRule> out;
  for (const GroundConstraint& gc : inst.constraints) {
    out.push_back(ToRefRule(inst, gc));
  }
  return out;
}

void ExpectSameConstraints(const std::vector<RefRule>& got,
                           const std::vector<RefRule>& want,
                           const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    const RefRule& g = got[i];
    const RefRule& w = want[i];
    EXPECT_EQ(g.source, w.source) << where << " #" << i;
    EXPECT_EQ(g.source_index, w.source_index) << where << " #" << i;
    EXPECT_EQ(g.body, w.body) << where << " #" << i;
    EXPECT_EQ(g.head_kind, w.head_kind) << where << " #" << i;
    EXPECT_EQ(g.head, w.head) << where << " #" << i;
    EXPECT_EQ(g.guard, w.guard) << where << " #" << i;
    EXPECT_EQ(g.seq, w.seq) << where << " #" << i;
  }
}

// Small pools so projections collide, with nulls, ints, reals and strings
// (whose cross-type order the comparison operators see too). The reals
// are == to pool ints — Real(1.0) to Int(1), -0.0 and 0.0 to Int(0) — so
// one domain value stands for tuples of different representations.
Value RandomValue(Rng& rng) {
  switch (rng.Below(7)) {
    case 0:
      return Value::Null();
    case 1:
    case 2:
      return Value::Int(static_cast<int64_t>(rng.Below(3)));
    case 3: {
      const int k = static_cast<int>(rng.Below(4));
      return Value::Real(k == 3 ? -0.0 : static_cast<double>(k));
    }
    default:
      return Value::Str("v" + std::to_string(rng.Below(3)));
  }
}

// A constant for a constant predicate: usually a pool value, sometimes one
// no tuple carries (outside every domain, unless a CFD constant).
Value RandomConstant(Rng& rng) {
  switch (rng.Below(6)) {
    case 0:
      return Value::Int(7);
    case 1:
      return Value::Str("v9");
    default:
      return RandomValue(rng);
  }
}

// With `rare`, values may also be the constants RandomConstant draws from
// outside the pool, so an extension can bring a constant into a domain.
Tuple RandomTuple(Rng& rng, bool rare = false) {
  std::vector<Value> values;
  for (int a = 0; a < kAttrs; ++a) {
    values.push_back(rare ? RandomConstant(rng) : RandomValue(rng));
  }
  return Tuple(std::move(values));
}

// Which predicate shapes a spec batch exercised, so the sweep can assert
// that every CmpOp appeared in each role.
struct Coverage {
  std::set<std::pair<int, int>> const_op_ref;  // (op, tuple_ref)
  std::set<int> attr_ops;
  int order_preds = 0;
  // Specs whose tuples hold an int and an == real in one attribute, and
  // -0.0 next to 0.0 or Int(0).
  int mixed_numbers = 0;
  int signed_zeros = 0;
  // Constant predicates whose non-null constant no tuple of the spec
  // carries, by operator class.
  int absent_eq_constants = 0;
  int absent_other_constants = 0;
};

CurrencyConstraint RandomConstraint(Rng& rng, Coverage* cov) {
  CurrencyConstraint phi(static_cast<int>(rng.Below(kAttrs)));
  for (int i = static_cast<int>(rng.Below(3)); i > 0; --i) {
    phi.AddOrder(static_cast<int>(rng.Below(kAttrs)));
    ++cov->order_preds;
  }
  for (int i = static_cast<int>(rng.Below(3)); i > 0; --i) {
    const CmpOp op = kOps[rng.Below(6)];
    phi.AddAttrCompare(static_cast<int>(rng.Below(kAttrs)), op);
    cov->attr_ops.insert(static_cast<int>(op));
  }
  for (int i = static_cast<int>(rng.Below(4)); i > 0; --i) {
    const int ref = 1 + static_cast<int>(rng.Below(2));
    const CmpOp op = kOps[rng.Below(6)];
    phi.AddConstCompare(ref, static_cast<int>(rng.Below(kAttrs)), op,
                        RandomConstant(rng));
    cov->const_op_ref.insert({static_cast<int>(op), ref});
  }
  return phi;
}

// Records which value-representation cases the tuples and constants of
// `se` exercise.
void NoteValueCoverage(const Specification& se, Coverage* cov) {
  auto negative_zero = [](const Value& x) {
    return x.type() == ValueType::kDouble && x.as_double() == 0.0 &&
           std::signbit(x.as_double());
  };
  const EntityInstance& ie = se.instance();
  bool mixed = false;
  bool zeros = false;
  for (int a = 0; a < kAttrs; ++a) {
    for (int t = 0; t < ie.size(); ++t) {
      const Value& v = ie.tuple(t).at(a);
      if (v.type() != ValueType::kDouble) continue;
      for (int u = 0; u < ie.size(); ++u) {
        const Value& w = ie.tuple(u).at(a);
        mixed |= w.type() == ValueType::kInt && w == v;
        zeros |= negative_zero(v) && !negative_zero(w) && w == v;
      }
    }
  }
  cov->mixed_numbers += mixed ? 1 : 0;
  cov->signed_zeros += zeros ? 1 : 0;
  for (const CurrencyConstraint& phi : se.sigma()) {
    for (const auto& cp : phi.constant_predicates()) {
      if (cp.constant.is_null()) continue;
      bool carried = false;
      for (int t = 0; t < ie.size(); ++t) {
        carried |= ie.tuple(t).at(cp.attr) == cp.constant;
      }
      if (carried) continue;
      if (cp.op == CmpOp::kEq) {
        ++cov->absent_eq_constants;
      } else {
        ++cov->absent_other_constants;
      }
    }
  }
}

Specification RandomSpec(Rng& rng, Coverage* cov) {
  auto schema = Schema::Make({"A", "B", "C", "D"});
  EXPECT_TRUE(schema.ok());
  EntityInstance ie(*schema, "random");
  const int n_tuples = 2 + static_cast<int>(rng.Below(8));
  for (int t = 0; t < n_tuples; ++t) {
    EXPECT_TRUE(ie.Add(RandomTuple(rng)).ok());
  }
  Specification se;
  se.temporal = TemporalInstance(std::move(ie));
  for (int i = static_cast<int>(rng.Below(4)); i > 0; --i) {
    EXPECT_TRUE(se.temporal
                    .AddOrder(static_cast<int>(rng.Below(kAttrs)),
                              static_cast<int>(rng.Below(n_tuples)),
                              static_cast<int>(rng.Below(n_tuples)))
                    .ok());
  }
  std::vector<CurrencyConstraint> sigma;
  for (int i = 1 + static_cast<int>(rng.Below(8)); i > 0; --i) {
    sigma.push_back(RandomConstraint(rng, cov));
  }
  EXPECT_TRUE(se.SetRules(std::move(sigma), {}).ok());
  NoteValueCoverage(se, cov);
  std::vector<ConstantCfd> gamma;
  for (int i = static_cast<int>(rng.Below(3)); i > 0; --i) {
    const int lhs = static_cast<int>(rng.Below(kAttrs));
    const int rhs = (lhs + 1 + static_cast<int>(rng.Below(kAttrs - 1))) %
                    kAttrs;
    gamma.emplace_back(
        std::vector<std::pair<int, Value>>{
            {lhs, Value::Str("v" + std::to_string(rng.Below(3)))}},
        rhs, Value::Str("v" + std::to_string(rng.Below(3))));
  }
  EXPECT_TRUE(se.SetRules(se.sigma(), std::move(gamma)).ok());
  return se;
}

PartialTemporalOrder RandomDelta(Rng& rng, int n_tuples) {
  PartialTemporalOrder ot;
  for (int i = 1 + static_cast<int>(rng.Below(2)); i > 0; --i) {
    ot.new_tuples.push_back(RandomTuple(rng, /*rare=*/true));
  }
  const int total = n_tuples + static_cast<int>(ot.new_tuples.size());
  for (int i = static_cast<int>(rng.Below(3)); i > 0; --i) {
    ot.orders.emplace_back(static_cast<int>(rng.Below(kAttrs)),
                           static_cast<int>(rng.Below(total)),
                           static_cast<int>(rng.Below(total)));
  }
  return ot;
}

// Builds `se` into `inst`, extends it `rounds` times with random deltas,
// and checks the Σ rules against the reference after every step. Returns
// how many extensions were checked (unguarded grounding stops at the
// first delta that needs a rebuild).
int CheckAgainstReference(Rng& rng, Specification se, int rounds,
                          const InstantiationOptions& options,
                          Instantiation* inst, const std::string& where) {
  RefGrounder ref;
  EXPECT_TRUE(Instantiation::BuildInto(se, inst, options).ok()) << where;
  std::vector<RefRule> want =
      ref.Ground(se, inst->varmap, options.strict_null_order);
  ExpectSameConstraints(SigmaRules(*inst), want, where + " build");
  int extended = 0;
  for (int r = 0; r < rounds; ++r) {
    const PartialTemporalOrder ot = RandomDelta(rng, se.instance().size());
    auto next = Extend(se, ot);
    EXPECT_TRUE(next.ok()) << where;
    if (!next.ok()) break;
    auto delta = inst->ExtendWith(*next, ot, options);
    EXPECT_TRUE(delta.ok()) << where;
    if (!delta.ok() || delta->needs_rebuild) break;
    se = std::move(next).value();
    const std::vector<RefRule> more =
        ref.Ground(se, inst->varmap, options.strict_null_order);
    want.insert(want.end(), more.begin(), more.end());
    ExpectSameConstraints(SigmaRules(*inst), want,
                          where + " extend " + std::to_string(r));
    ++extended;
  }
  return extended;
}

TEST(GroundingJoinTest, MatchesNestedLoopOnRandomSpecs) {
  Rng rng(20130408);
  Coverage cov;
  int extensions = 0;
  size_t rules = 0;
  for (int i = 0; i < 400; ++i) {
    InstantiationOptions options;
    options.strict_null_order = i % 2 == 1;
    options.guard_cfds = (i / 2) % 2 == 1;
    const Specification se = RandomSpec(rng, &cov);
    Instantiation inst;
    extensions += CheckAgainstReference(
        rng, se, 1 + static_cast<int>(rng.Below(3)), options, &inst,
        "spec " + std::to_string(i));
    if (HasFailure()) return;
    rules += SigmaRules(inst).size();
  }
  // Every operator in every role, and real incremental coverage.
  EXPECT_EQ(cov.const_op_ref.size(), 12u);
  EXPECT_EQ(cov.attr_ops.size(), 6u);
  EXPECT_GT(cov.order_preds, 0);
  // Equal values of different representations share one code, and
  // constants outside the domain skip (=) or pass (!=, <, ...) without a
  // code.
  EXPECT_GT(cov.mixed_numbers, 20);
  EXPECT_GT(cov.signed_zeros, 20);
  EXPECT_GT(cov.absent_eq_constants, 20);
  EXPECT_GT(cov.absent_other_constants, 20);
  EXPECT_GT(extensions, 400);
  EXPECT_GT(rules, 1000u);
}

TEST(GroundingJoinTest, NullHeadsBodiesAndOrderValues) {
  // t2 with a null head grounds only under strict semantics; null order
  // values and null constant-compared values never ground.
  auto schema = Schema::Make({"A", "B", "C", "D"});
  ASSERT_TRUE(schema.ok());
  EntityInstance ie(*schema, "nulls");
  const Value n = Value::Null();
  ASSERT_TRUE(ie.Add(Tuple({Value::Str("v0"), Value::Int(1), n, n})).ok());
  ASSERT_TRUE(ie.Add(Tuple({Value::Str("v1"), n, Value::Int(2), n})).ok());
  ASSERT_TRUE(ie.Add(Tuple({n, Value::Int(3), Value::Int(4), n})).ok());
  ASSERT_TRUE(ie.Add(Tuple({Value::Str("v2"), Value::Int(5), n, n})).ok());
  Specification se;
  se.temporal = TemporalInstance(std::move(ie));
  CurrencyConstraint head_b(1);
  head_b.AddConstCompare(1, 0, CmpOp::kNe, Value::Str("zz"));
  CurrencyConstraint ordered(1);
  ordered.AddOrder(2);
  CurrencyConstraint null_const(2);
  null_const.AddConstCompare(2, 1, CmpOp::kEq, n);
  ASSERT_TRUE(se.SetRules({head_b, ordered, null_const}, {}).ok());
  for (bool strict : {false, true}) {
    for (bool guarded : {false, true}) {
      InstantiationOptions options;
      options.strict_null_order = strict;
      options.guard_cfds = guarded;
      Rng rng(7);
      Instantiation inst;
      CheckAgainstReference(rng, se, 3, options, &inst,
                            strict ? "strict" : "lenient");
      bool false_head = false;
      for (const GroundConstraint& gc : inst.constraints) {
        false_head |= gc.head_kind == GroundHead::kFalse;
      }
      EXPECT_EQ(false_head, strict);
    }
  }
}

TEST(GroundingJoinTest, RecycledInstantiationDropsStaleTables) {
  // Spec `wide` spreads Σ over several attribute sets, spec `narrow` over
  // one. Alternating them on one Instantiation must leave no shared table
  // of the previous spec behind, in Build or in a later ExtendWith.
  Rng rng(99);
  Coverage cov;
  Specification wide = RandomSpec(rng, &cov);
  std::vector<CurrencyConstraint> sigma;
  for (int head = 0; head < kAttrs; ++head) {
    CurrencyConstraint phi(head);
    phi.AddConstCompare(1, (head + 1) % kAttrs, CmpOp::kNe, Value::Null());
    sigma.push_back(phi);
    sigma.push_back(CurrencyConstraint(head));
  }
  ASSERT_TRUE(wide.SetRules(sigma, wide.gamma()).ok());
  Specification narrow = wide;
  sigma.resize(1);
  ASSERT_TRUE(narrow.SetRules(sigma, wide.gamma()).ok());

  Instantiation recycled;
  const Specification* specs[] = {&wide, &narrow, &wide, &narrow};
  for (int i = 0; i < 4; ++i) {
    InstantiationOptions options;
    options.guard_cfds = true;
    Rng delta_rng(1000 + i);
    CheckAgainstReference(delta_rng, *specs[i], 3, options, &recycled,
                          "recycle " + std::to_string(i));
    // The whole encoding matches a fresh Instantiation fed the same
    // deltas.
    Rng again(1000 + i);
    Instantiation fresh;
    CheckAgainstReference(again, *specs[i], 3, options, &fresh,
                          "fresh " + std::to_string(i));
    ASSERT_EQ(recycled.constraints.size(), fresh.constraints.size());
    ExpectSameConstraints(AllRules(recycled), AllRules(fresh),
                          "recycled vs fresh " + std::to_string(i));
  }
}

}  // namespace
}  // namespace ccr
