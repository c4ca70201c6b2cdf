// VarMap's flat tables against reference structures.
//
// The value index is an open-addressing table per attribute, and the ids
// of atoms over values appended after BuildFrom come from a base per
// appended value. These tests hold the index to a
// std::unordered_map<Value, int, ValueHash> on random domains (mixed
// Int/Real equal values, ±0.0, NaN, long strings, CFD constants reached
// through the Γ fixpoint, values added by ExtendWith), and a VarMap or
// Instantiation recycled after a larger entity to a fresh one.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/data/nba_generator.h"
#include "src/data/person_generator.h"
#include "src/encode/instantiation.h"
#include "src/encode/varmap.h"

namespace ccr {
namespace {

using RefIndex = std::unordered_map<Value, int, ValueHash>;

// Same type and the same bits: tells NaN, 0.0 and -0.0 apart, which
// Value::operator== does not.
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull: return true;
    case ValueType::kInt: return a.as_int() == b.as_int();
    case ValueType::kDouble:
      return std::bit_cast<uint64_t>(a.as_double()) ==
             std::bit_cast<uint64_t>(b.as_double());
    case ValueType::kString: return a.as_string() == b.as_string();
  }
  return false;
}

void ExpectSameDomain(const std::vector<Value>& got,
                      const std::vector<Value>& want,
                      const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(SameValue(got[i], want[i]))
        << where << " index " << i << ": " << got[i].ToString() << " vs "
        << want[i].ToString();
  }
}

// The reference dedup: a value's index, appending it when the map has no
// equal key (try_emplace, as the node-based index did).
int RefInsert(RefIndex* index, std::vector<Value>* domain, const Value& v) {
  const auto [it, added] =
      index->try_emplace(v, static_cast<int>(domain->size()));
  if (added) domain->push_back(v);
  return it->second;
}

int RefFind(const RefIndex& index, const Value& v) {
  const auto it = index.find(v);
  return it == index.end() ? -1 : it->second;
}

// Values that collide under == or hash together: equal Int/Real pairs,
// both zeros, NaN, long strings that share a prefix, and nulls.
std::vector<Value> ValuePool() {
  std::vector<Value> pool;
  for (int k = -3; k < 12; ++k) {
    pool.push_back(Value::Int(k));
    pool.push_back(Value::Real(static_cast<double>(k)));
    pool.push_back(Value::Real(k + 0.5));
  }
  pool.push_back(Value::Real(0.0));
  pool.push_back(Value::Real(-0.0));
  pool.push_back(Value::Real(std::numeric_limits<double>::quiet_NaN()));
  pool.push_back(Value::Real(std::numeric_limits<double>::infinity()));
  const std::string prefix(200, 'x');
  for (int k = 0; k < 10; ++k) {
    pool.push_back(Value::Str(prefix + std::to_string(k)));
    pool.push_back(Value::Str("s" + std::to_string(k)));
  }
  pool.push_back(Value::Str(""));
  pool.push_back(Value::Null());
  return pool;
}

constexpr int kAttrs = 3;

// A random entity over ValuePool() with `tuples` tuples.
EntityInstance RandomEntity(Rng* rng, const std::vector<Value>& pool,
                            int tuples) {
  EntityInstance e(Schema::Make({"a", "b", "c"}).value(), "random");
  for (int t = 0; t < tuples; ++t) {
    std::vector<Value> row;
    for (int a = 0; a < kAttrs; ++a) {
      // Attribute a draws from a window of the pool, so the domains differ.
      const size_t span = pool.size() / (a + 1);
      row.push_back(pool[rng->Below(span)]);
    }
    EXPECT_TRUE(e.Add(Tuple(std::move(row))).ok());
  }
  return e;
}

// Γ over attributes a, b, c: (a = 1) -> b = "cfd-b", a chain
// (b = "cfd-b") -> c = 2.0 whose constant may already be in c's domain as
// Int(2), a long string constant, and a CFD whose LHS value never occurs.
std::vector<ConstantCfd> PoolGamma() {
  const std::string long_const = std::string(300, 'k') + "-cfd";
  return {
      ConstantCfd({{0, Value::Int(1)}}, 1, Value::Str("cfd-b")),
      ConstantCfd({{1, Value::Str("cfd-b")}}, 2, Value::Real(2.0)),
      ConstantCfd({{2, Value::Real(2.0)}}, 0, Value::Str(long_const)),
      ConstantCfd({{0, Value::Str("absent")}}, 1, Value::Str("never")),
      ConstantCfd({{1, Value::Int(3)}}, 2, Value::Real(-0.0)),
  };
}

Specification PoolSpec(EntityInstance e) {
  Specification se;
  se.temporal = TemporalInstance(std::move(e));
  EXPECT_TRUE(se.SetRules({}, PoolGamma()).ok());
  return se;
}

// Checks `vm` against the reference: each domain is the tuples' values
// in first-occurrence order deduplicated by ==, then CFD constants no
// earlier value equals; every code row and every ValueIndex agree.
void ExpectMatchesReference(const VarMap& vm, const EntityInstance& e,
                            const std::vector<Value>& pool,
                            const std::string& where) {
  for (int a = 0; a < kAttrs; ++a) {
    RefIndex ref;
    std::vector<Value> dom;
    for (int t = 0; t < e.size(); ++t) {
      const Value& v = e.tuple(t).at(a);
      const int want = v.is_null() ? -1 : RefInsert(&ref, &dom, v);
      EXPECT_EQ(vm.tuple_codes(t)[a], want)
          << where << " tuple " << t << " attr " << a;
    }
    const std::vector<Value>& got = vm.domain(a);
    ASSERT_GE(got.size(), dom.size()) << where;
    ExpectSameDomain(
        std::vector<Value>(got.begin(), got.begin() + dom.size()), dom,
        where + " active domain of " + std::to_string(a));
    // The CFD constants after the active domain are new under ==.
    for (size_t i = dom.size(); i < got.size(); ++i) {
      EXPECT_EQ(RefInsert(&ref, &dom, got[i]), static_cast<int>(i))
          << where << " constant " << got[i].ToString();
    }
    for (const Value& v : pool) {
      if (v.is_null()) continue;
      EXPECT_EQ(vm.ValueIndex(a, v), RefFind(ref, v))
          << where << " attr " << a << " value " << v.ToString();
    }
    for (const ConstantCfd& cfd : PoolGamma()) {
      if (cfd.rhs_attr() != a) continue;
      EXPECT_EQ(vm.ValueIndex(a, cfd.rhs_value()),
                RefFind(ref, cfd.rhs_value()))
          << where << " constant " << cfd.rhs_value().ToString();
    }
    const Value nan = Value::Real(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(vm.ValueIndex(a, nan), -1) << where;
  }
}

// Every atom's variable is distinct, below num_vars() and decodes back.
void ExpectAtomsRoundTrip(const VarMap& vm, const std::string& where) {
  std::vector<uint8_t> used(static_cast<size_t>(vm.num_vars()), 0);
  for (int a = 0; a < vm.num_attrs(); ++a) {
    const int d = static_cast<int>(vm.domain(a).size());
    for (int l = 0; l < d; ++l) {
      for (int m = 0; m < d; ++m) {
        if (l == m) continue;
        const sat::Var v = vm.VarOf(a, l, m);
        ASSERT_TRUE(v >= 0 && v < vm.num_vars()) << where;
        EXPECT_EQ(used[v]++, 0) << where << " var " << v;
        EXPECT_TRUE(vm.IsOrderVar(v)) << where;
        EXPECT_EQ(vm.Decode(v), (OrderAtom{a, l, m})) << where;
      }
    }
  }
}

// The same map, field by field: domains (bit for bit), code rows, the
// variable of every atom and the applicable CFDs.
void ExpectSameVarMap(const VarMap& got, const VarMap& want, int tuples,
                      const std::string& where) {
  ASSERT_EQ(got.num_attrs(), want.num_attrs()) << where;
  ASSERT_EQ(got.num_vars(), want.num_vars()) << where;
  EXPECT_EQ(got.applicable_cfds(), want.applicable_cfds()) << where;
  for (int a = 0; a < got.num_attrs(); ++a) {
    ExpectSameDomain(got.domain(a), want.domain(a),
                     where + " attr " + std::to_string(a));
    EXPECT_EQ(got.active_domain_size(a), want.active_domain_size(a)) << where;
    const int d = static_cast<int>(got.domain(a).size());
    for (int l = 0; l < d; ++l) {
      for (int m = 0; m < d; ++m) {
        if (l != m) {
          ASSERT_EQ(got.VarOf(a, l, m), want.VarOf(a, l, m))
              << where << " atom " << a << ":" << l << "<" << m;
        }
      }
    }
  }
  for (int t = 0; t < tuples; ++t) {
    EXPECT_TRUE(std::equal(got.tuple_codes(t),
                           got.tuple_codes(t) + got.num_attrs(),
                           want.tuple_codes(t)))
        << where << " tuple " << t;
  }
}

TEST(VarMapIndexTest, MatchesAHashMapReferenceOnRandomDomains) {
  Rng rng(0x7ab1e);
  const std::vector<Value> pool = ValuePool();
  for (int round = 0; round < 40; ++round) {
    // From one tuple (the smallest table) to more values than it holds.
    const int tuples = 1 + static_cast<int>(rng.Below(round < 20 ? 12 : 400));
    const Specification se = PoolSpec(RandomEntity(&rng, pool, tuples));
    Result<VarMap> vm = VarMap::Build(se);
    ASSERT_TRUE(vm.ok()) << vm.status().ToString();
    const std::string where = "round " + std::to_string(round);
    ExpectMatchesReference(*vm, se.instance(), pool, where);
    ExpectAtomsRoundTrip(*vm, where);
  }
}

TEST(VarMapIndexTest, EveryNaNIsANewValue) {
  // NaN is unequal to itself: each occurrence appends a domain value (as
  // the node-based index did), and no lookup ever finds one.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EntityInstance e(Schema::Make({"a", "b", "c"}).value(), "nan");
  for (int t = 0; t < 3; ++t) {
    ASSERT_TRUE(e.Add(Tuple({Value::Real(nan), Value::Int(t),
                             Value::Real(t == 1 ? -0.0 : 0.0)}))
                    .ok());
  }
  Specification se;
  se.temporal = TemporalInstance(std::move(e));
  const VarMap vm = VarMap::Build(se).value();
  EXPECT_EQ(vm.domain(0).size(), 3u);
  for (int t = 0; t < 3; ++t) EXPECT_EQ(vm.tuple_codes(t)[0], t);
  EXPECT_EQ(vm.ValueIndex(0, Value::Real(nan)), -1);
  // 0.0 and -0.0 are one value: the first one seen.
  ASSERT_EQ(vm.domain(2).size(), 1u);
  EXPECT_FALSE(std::signbit(vm.domain(2)[0].as_double()));
  EXPECT_EQ(vm.ValueIndex(2, Value::Real(-0.0)), 0);
  EXPECT_EQ(vm.ValueIndex(2, Value::Int(0)), 0);
}

TEST(VarMapIndexTest, ExtendWithAddsValuesTheReferenceWouldAdd) {
  // Values appended by ExtendWith: some equal to existing ones under ==
  // (Int/Real, -0.0), some new (long strings, NaN, a value whose CFD
  // reaches a new constant). The index, the code rows and every atom's
  // variable must agree with the reference.
  Rng rng(0xe77e);
  const std::vector<Value> pool = ValuePool();
  for (int round = 0; round < 20; ++round) {
    const int tuples = 1 + static_cast<int>(rng.Below(30));
    Specification se = PoolSpec(RandomEntity(&rng, pool, tuples));
    InstantiationOptions guarded;
    guarded.guard_cfds = true;
    Result<Instantiation> inst = Instantiation::Build(se, guarded);
    ASSERT_TRUE(inst.ok()) << inst.status().ToString();
    for (int step = 0; step < 3; ++step) {
      PartialTemporalOrder delta;
      const int n_new = 1 + static_cast<int>(rng.Below(4));
      for (int k = 0; k < n_new; ++k) {
        std::vector<Value> row;
        for (int a = 0; a < kAttrs; ++a) {
          row.push_back(rng.Chance(0.3)
                            ? Value::Str(std::string(150, 'n') +
                                         std::to_string(rng.Below(1000)))
                            : pool[rng.Below(pool.size())]);
        }
        delta.new_tuples.push_back(Tuple(std::move(row)));
      }
      const int first = se.instance().size();
      delta.orders.emplace_back(0, first - 1, first);
      Result<Specification> extended = Extend(se, delta);
      ASSERT_TRUE(extended.ok()) << extended.status().ToString();
      Result<InstantiationDelta> d =
          inst->ExtendWith(*extended, delta, guarded);
      ASSERT_TRUE(d.ok()) << d.status().ToString();
      ASSERT_FALSE(d->needs_rebuild);
      se = std::move(*extended);
      const std::string where =
          "round " + std::to_string(round) + " step " + std::to_string(step);
      const VarMap& vm = inst->varmap;
      // The appended values come after the built domain, so the reference
      // replays the domain in order: each entry new under ==, each
      // tuple's code the entry it equals.
      for (int a = 0; a < kAttrs; ++a) {
        RefIndex ref;
        std::vector<Value> dom;
        for (size_t i = 0; i < vm.domain(a).size(); ++i) {
          EXPECT_EQ(RefInsert(&ref, &dom, vm.domain(a)[i]),
                    static_cast<int>(i))
              << where << " attr " << a;
        }
        for (int t = 0; t < se.instance().size(); ++t) {
          const Value& v = se.instance().tuple(t).at(a);
          if (v.is_null()) continue;
          const int code = vm.tuple_codes(t)[a];
          ASSERT_GE(code, 0) << where;
          if (v == v) {
            EXPECT_EQ(code, RefFind(ref, v)) << where << " tuple " << t;
          } else {
            EXPECT_TRUE(SameValue(vm.domain(a)[code], v)) << where;
          }
        }
        for (const Value& v : pool) {
          if (v.is_null()) continue;
          EXPECT_EQ(vm.ValueIndex(a, v), RefFind(ref, v))
              << where << " value " << v.ToString();
        }
      }
      ExpectAtomsRoundTrip(vm, where);
    }
  }
}

// The largest and the median entity (by tuple count) of a corpus.
std::pair<int, int> LargestAndMedian(const Dataset& ds) {
  std::vector<std::pair<int, int>> by_size;
  for (int e = 0; e < static_cast<int>(ds.entities.size()); ++e) {
    by_size.emplace_back(ds.entities[e].instance.size(), e);
  }
  std::sort(by_size.begin(), by_size.end());
  return {by_size.back().second, by_size[by_size.size() / 2].second};
}

TEST(VarMapIndexTest, RecycledAfterALargerEntityMatchesAFreshBuild) {
  NbaOptions nba;
  nba.num_entities = 40;
  PersonOptions person;
  person.num_entities = 6;
  for (const Dataset& ds : {GenerateNba(nba), GeneratePerson(person)}) {
    const auto [largest, median] = LargestAndMedian(ds);
    const Specification big = ds.MakeSpec(largest);
    const Specification mid = ds.MakeSpec(median);
    ASSERT_GT(big.instance().size(), mid.instance().size());
    const std::string where = "entity " + std::to_string(median);

    VarMap recycled;
    ASSERT_TRUE(recycled.BuildFrom(big).ok());
    ASSERT_TRUE(recycled.BuildFrom(mid).ok());
    const VarMap fresh = VarMap::Build(mid).value();
    ExpectSameVarMap(recycled, fresh, mid.instance().size(), where);

    // The same through a recycled Instantiation, with the extension's
    // appended values and atoms: the large entity first extends by a new
    // value in every attribute, so its tables hold appended atoms too.
    InstantiationOptions guarded;
    guarded.guard_cfds = true;
    auto extend_all = [](const Specification& se, int salt) {
      PartialTemporalOrder delta;
      std::vector<Value> row;
      for (int a = 0; a < se.schema().size(); ++a) {
        row.push_back(Value::Str("new-" + std::to_string(salt) + "-" +
                                 std::to_string(a)));
      }
      delta.new_tuples.push_back(Tuple(std::move(row)));
      for (int a = 0; a < se.schema().size(); ++a) {
        delta.orders.emplace_back(a, 0, se.instance().size());
      }
      return delta;
    };
    Instantiation pooled;
    ASSERT_TRUE(Instantiation::BuildInto(big, &pooled, guarded).ok());
    const PartialTemporalOrder big_delta = extend_all(big, 0);
    ASSERT_TRUE(
        pooled.ExtendWith(*Extend(big, big_delta), big_delta, guarded).ok());
    ASSERT_TRUE(Instantiation::BuildInto(mid, &pooled, guarded).ok());
    Instantiation own = Instantiation::Build(mid, guarded).value();
    ExpectSameVarMap(pooled.varmap, own.varmap, mid.instance().size(),
                     where + " built");
    const PartialTemporalOrder delta = extend_all(mid, 1);
    const Specification extended = *Extend(mid, delta);
    ASSERT_TRUE(pooled.ExtendWith(extended, delta, guarded).ok());
    ASSERT_TRUE(own.ExtendWith(extended, delta, guarded).ok());
    ExpectSameVarMap(pooled.varmap, own.varmap, extended.instance().size(),
                     where + " extended");
    ASSERT_EQ(pooled.constraints.size(), own.constraints.size()) << where;
    for (size_t i = 0; i < own.constraints.size(); ++i) {
      EXPECT_EQ(pooled.constraints[i].head, own.constraints[i].head) << where;
      EXPECT_EQ(pooled.constraints[i].seq, own.constraints[i].seq) << where;
    }
  }
}

}  // namespace
}  // namespace ccr
