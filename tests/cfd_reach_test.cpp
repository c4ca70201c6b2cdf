// The indexed Γ fixpoint (CfdReach, driven from an entity's domain values
// through the RuleSet's Γ index) must reproduce the pass-scan fixpoint it
// replaced exactly: the same domain order, the same applicable CFDs, and
// in ExtendWith the same newly applicable and retired CFDs.
//
// The reference below is the pass scan, kept here only: repeated passes
// over all of Γ in index order, each applying every CFD whose LHS is in
// the domains at the moment the pass reaches it, until a pass applies
// nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/data/career_generator.h"
#include "src/data/nba_generator.h"
#include "src/data/person_generator.h"
#include "src/encode/instantiation.h"

namespace ccr {
namespace {

// Domains and CFD applicability as the reference computes them.
struct RefState {
  std::vector<std::vector<Value>> domains;
  std::vector<bool> applicable;
  std::vector<bool> lhs_attr;  // attribute is LHS of an applicable CFD
  int passes_with_work = 0;    // passes that applied a CFD, last fixpoint
};

bool InDomain(const std::vector<std::vector<Value>>& domains, int a,
              const Value& v) {
  return std::find(domains[a].begin(), domains[a].end(), v) !=
         domains[a].end();
}

// Runs the pass scan over the CFDs not yet applicable, appending RHS
// constants to `domains`. Returns the CFDs it applied, in order.
std::vector<int> ScanFixpoint(const std::vector<ConstantCfd>& gamma,
                              RefState* st) {
  std::vector<int> applied;
  st->passes_with_work = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < gamma.size(); ++i) {
      if (st->applicable[i]) continue;
      bool ready = true;
      for (const auto& [attr, c] : gamma[i].lhs()) {
        if (!InDomain(st->domains, attr, c)) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      if (!changed) ++st->passes_with_work;
      st->applicable[i] = true;
      changed = true;
      applied.push_back(static_cast<int>(i));
      if (!InDomain(st->domains, gamma[i].rhs_attr(), gamma[i].rhs_value())) {
        st->domains[gamma[i].rhs_attr()].push_back(gamma[i].rhs_value());
      }
    }
  }
  return applied;
}

RefState RefBuild(const Specification& se) {
  const int n_attrs = se.schema().size();
  RefState st;
  st.domains.resize(n_attrs);
  for (int a = 0; a < n_attrs; ++a) {
    for (const Tuple& t : se.instance().tuples()) {
      const Value& v = t.at(a);
      if (!v.is_null() && !InDomain(st.domains, a, v)) {
        st.domains[a].push_back(v);
      }
    }
  }
  st.applicable.assign(se.gamma().size(), false);
  st.lhs_attr.assign(n_attrs, false);
  for (int gi : ScanFixpoint(se.gamma(), &st)) {
    for (const auto& [attr, c] : se.gamma()[gi].lhs()) st.lhs_attr[attr] = true;
  }
  return st;
}

// What the reference's extension by the tuples past `old_tuples` of
// `extended` decides.
struct RefExtension {
  std::vector<int> newly_applicable;  // ascending
  std::vector<int> retired;           // ascending
  bool needs_lhs_growth = false;  // a new value lands in an LHS attribute
};

RefExtension RefExtend(const Specification& extended, int old_tuples,
                       RefState* st) {
  const std::vector<ConstantCfd>& gamma = extended.gamma();
  const int n_attrs = extended.schema().size();
  std::vector<std::pair<int, Value>> grown;
  for (int t = old_tuples; t < extended.instance().size(); ++t) {
    for (int a = 0; a < n_attrs; ++a) {
      const Value& v = extended.instance().tuple(t).at(a);
      if (!v.is_null() && !InDomain(st->domains, a, v)) {
        st->domains[a].push_back(v);
        grown.emplace_back(a, v);
      }
    }
  }
  const std::vector<bool> applicable_before = st->applicable;
  const std::vector<size_t> sizes_before = [&] {
    std::vector<size_t> s;
    for (const auto& d : st->domains) s.push_back(d.size());
    return s;
  }();
  RefExtension out;
  out.newly_applicable = ScanFixpoint(gamma, st);
  std::sort(out.newly_applicable.begin(), out.newly_applicable.end());
  for (int a = 0; a < n_attrs; ++a) {
    const bool attr_grew = st->domains[a].size() > sizes_before[a] ||
                           std::any_of(grown.begin(), grown.end(),
                                       [a](const auto& g) {
                                         return g.first == a;
                                       });
    if (!attr_grew || !st->lhs_attr[a]) continue;
    out.needs_lhs_growth = true;
    for (size_t gi = 0; gi < gamma.size(); ++gi) {
      if (!applicable_before[gi]) continue;
      for (const auto& [attr, c] : gamma[gi].lhs()) {
        if (attr == a) {
          out.retired.push_back(static_cast<int>(gi));
          break;
        }
      }
    }
  }
  std::sort(out.retired.begin(), out.retired.end());
  out.retired.erase(std::unique(out.retired.begin(), out.retired.end()),
                    out.retired.end());
  for (int gi : out.newly_applicable) {
    for (const auto& [attr, c] : gamma[gi].lhs()) st->lhs_attr[attr] = true;
  }
  return out;
}

void ExpectSameDomains(const VarMap& vm, const RefState& st,
                       const std::string& where) {
  ASSERT_EQ(vm.num_attrs(), static_cast<int>(st.domains.size())) << where;
  for (int a = 0; a < vm.num_attrs(); ++a) {
    EXPECT_EQ(vm.domain(a), st.domains[a]) << where << " attr " << a;
  }
  std::vector<int> applicable;
  for (size_t gi = 0; gi < st.applicable.size(); ++gi) {
    if (st.applicable[gi]) applicable.push_back(static_cast<int>(gi));
  }
  EXPECT_EQ(vm.applicable_cfds(), applicable) << where;
}

// Guarded grounding keeps one live guard per applicable CFD, in a stable
// order: Build's in applicable_cfds() order, then newly applicable CFDs
// appended in index order, a retired version's fresh guard in its
// predecessor's slot. GuardOwners maps each live guard to its CFD.
class GuardOwners {
 public:
  void Built(const Instantiation& inst) {
    owner_.clear();
    const auto& guards = inst.guard_assumptions();
    const auto& cfds = inst.varmap.applicable_cfds();
    EXPECT_EQ(guards.size(), cfds.size());
    for (size_t k = 0; k < guards.size() && k < cfds.size(); ++k) {
      owner_[guards[k].var()] = cfds[k];
    }
    slots_.assign(cfds.begin(), cfds.end());
  }

  // The CFDs whose guards `delta` retired; updates the map.
  std::vector<int> Extended(const Instantiation& inst,
                            const InstantiationDelta& delta,
                            const std::vector<int>& newly_applicable) {
    std::vector<int> retired;
    for (const int v : delta.retired_versions) {
      const auto it = owner_.find(inst.cfd_versions()[v].guard);
      EXPECT_NE(it, owner_.end());
      if (it != owner_.end()) retired.push_back(it->second);
    }
    std::sort(retired.begin(), retired.end());
    slots_.insert(slots_.end(), newly_applicable.begin(),
                  newly_applicable.end());
    const auto& guards = inst.guard_assumptions();
    EXPECT_EQ(guards.size(), slots_.size());
    owner_.clear();
    for (size_t k = 0; k < guards.size() && k < slots_.size(); ++k) {
      owner_[guards[k].var()] = slots_[k];
    }
    return retired;
  }

 private:
  std::map<sat::Var, int> owner_;
  std::vector<int> slots_;  // CFD per live-guard position
};

std::vector<int> NewlyApplicable(const std::vector<int>& before,
                                 const std::vector<int>& after) {
  std::vector<int> out;
  std::set_difference(after.begin(), after.end(), before.begin(),
                      before.end(), std::back_inserter(out));
  return out;
}

// How much of the fixpoint's behaviour a check exercised.
struct Exercised {
  int multi_pass = 0;  // reference fixpoints with work in a second pass
  int newly = 0;       // CFDs that became applicable in ExtendWith
  int retired = 0;     // CFD versions ExtendWith retired
};

// Builds `se` guarded and unguarded, extends both by each delta in turn,
// and checks every step against the reference.
Exercised CheckAgainstScan(const Specification& se,
                           const std::vector<PartialTemporalOrder>& deltas,
                           const std::string& where) {
  RefState st = RefBuild(se);
  Exercised ex;
  ex.multi_pass = st.passes_with_work > 1 ? 1 : 0;
  const Result<VarMap> vm = VarMap::Build(se);
  EXPECT_TRUE(vm.ok()) << where;
  if (!vm.ok()) return ex;
  ExpectSameDomains(*vm, st, where + " VarMap::Build");

  InstantiationOptions guarded;
  guarded.guard_cfds = true;
  Result<Instantiation> inst = Instantiation::Build(se, guarded);
  Result<Instantiation> plain = Instantiation::Build(se);
  EXPECT_TRUE(inst.ok() && plain.ok()) << where;
  if (!inst.ok() || !plain.ok()) return ex;
  ExpectSameDomains(inst->varmap, st, where + " Build");
  GuardOwners owners;
  owners.Built(*inst);
  RefState plain_st = st;  // unguarded grounding rebuilds on LHS growth

  Specification cur = se;
  for (size_t r = 0; r < deltas.size(); ++r) {
    const std::string at = where + " extend " + std::to_string(r);
    Result<Specification> next = Extend(cur, deltas[r]);
    EXPECT_TRUE(next.ok()) << at;
    if (!next.ok()) return ex;
    const int old_tuples = cur.instance().size();
    const RefExtension want = RefExtend(*next, old_tuples, &st);
    ex.multi_pass += st.passes_with_work > 1 ? 1 : 0;
    ex.newly += static_cast<int>(want.newly_applicable.size());
    ex.retired += static_cast<int>(want.retired.size());
    if (RefExtend(*next, old_tuples, &plain_st).needs_lhs_growth) {
      plain_st = RefBuild(*next);
    }

    // Unguarded grounding bails out exactly when an LHS domain grows.
    Result<InstantiationDelta> plain_delta =
        plain->ExtendWith(*next, deltas[r]);
    EXPECT_TRUE(plain_delta.ok()) << at;
    if (plain_delta.ok()) {
      if (plain_delta->needs_rebuild) {
        plain = Instantiation::Build(*next);
        EXPECT_TRUE(plain.ok()) << at;
        if (!plain.ok()) return ex;
      }
      ExpectSameDomains(plain->varmap, plain_st, at + " unguarded");
    }

    const std::vector<int> before = inst->varmap.applicable_cfds();
    Result<InstantiationDelta> delta =
        inst->ExtendWith(*next, deltas[r], guarded);
    EXPECT_TRUE(delta.ok()) << at;
    if (!delta.ok()) return ex;
    EXPECT_FALSE(delta->needs_rebuild) << at;
    ExpectSameDomains(inst->varmap, st, at);
    const std::vector<int> newly =
        NewlyApplicable(before, inst->varmap.applicable_cfds());
    EXPECT_EQ(newly, want.newly_applicable) << at;
    EXPECT_EQ(owners.Extended(*inst, *delta, newly), want.retired) << at;
    cur = std::move(next).value();
  }
  return ex;
}

// --- random Γ ---------------------------------------------------------------

constexpr int kAttrs = 4;

Value Pool(Rng& rng, int size) {
  return Value::Str("v" + std::to_string(rng.Below(size)));
}

Tuple RandomTuple(Rng& rng, int pool) {
  std::vector<Value> values;
  for (int a = 0; a < kAttrs; ++a) {
    values.push_back(rng.Chance(0.2) ? Value::Null() : Pool(rng, pool));
  }
  return Tuple(std::move(values));
}

// Random CFDs over a small value pool, so RHS constants feed other CFDs'
// LHS at lower and higher indices alike; LHS of 0-3 pairs, attributes and
// whole pairs may repeat.
std::vector<ConstantCfd> RandomGamma(Rng& rng) {
  std::vector<ConstantCfd> gamma;
  const int n = 4 + static_cast<int>(rng.Below(24));
  for (int i = 0; i < n; ++i) {
    std::vector<std::pair<int, Value>> lhs;
    const int width = rng.Chance(0.1) ? 0 : 1 + static_cast<int>(rng.Below(3));
    for (int k = 0; k < width; ++k) {
      if (k > 0 && rng.Chance(0.25)) {
        lhs.push_back(lhs[rng.Below(lhs.size())]);  // a repeated pair
        continue;
      }
      const int attr = static_cast<int>(rng.Below(kAttrs));
      lhs.emplace_back(attr, Pool(rng, 6));
    }
    gamma.emplace_back(std::move(lhs), static_cast<int>(rng.Below(kAttrs)),
                       Pool(rng, 6));
  }
  return gamma;
}

TEST(CfdReachTest, MatchesPassScanOnRandomGamma) {
  Rng rng(0xCFD5);
  Exercised total;
  int empty_lhs = 0;
  int repeated_attr = 0;
  for (int i = 0; i < 600; ++i) {
    auto schema = Schema::Make({"A", "B", "C", "D"});
    ASSERT_TRUE(schema.ok());
    EntityInstance ie(*schema, "random");
    const int n_tuples = 1 + static_cast<int>(rng.Below(4));
    for (int t = 0; t < n_tuples; ++t) {
      ASSERT_TRUE(ie.Add(RandomTuple(rng, 4)).ok());
    }
    Specification se;
    se.temporal = TemporalInstance(std::move(ie));
    std::vector<ConstantCfd> gamma = RandomGamma(rng);
    for (const ConstantCfd& cfd : gamma) {
      empty_lhs += cfd.lhs().empty() ? 1 : 0;
      for (size_t a = 0; a < cfd.lhs().size(); ++a) {
        for (size_t b = a + 1; b < cfd.lhs().size(); ++b) {
          repeated_attr += cfd.lhs()[a].first == cfd.lhs()[b].first ? 1 : 0;
        }
      }
    }
    ASSERT_TRUE(se.SetRules({}, std::move(gamma)).ok());
    std::vector<PartialTemporalOrder> deltas(1 + rng.Below(3));
    for (PartialTemporalOrder& ot : deltas) {
      ot.new_tuples.push_back(RandomTuple(rng, 6));
    }
    const Exercised ex =
        CheckAgainstScan(se, deltas, "spec " + std::to_string(i));
    total.multi_pass += ex.multi_pass;
    total.newly += ex.newly;
    total.retired += ex.retired;
    if (HasFailure()) return;
  }
  // The cases the index must order like the scan: a CFD made ready behind
  // the cursor waits for the next pass.
  EXPECT_GT(total.multi_pass, 50);
  EXPECT_GT(total.newly, 50);
  EXPECT_GT(total.retired, 50);
  EXPECT_GT(empty_lhs, 50);
  EXPECT_GT(repeated_attr, 50);
}

TEST(CfdReachTest, ReadyBehindCursorWaitsForNextPass) {
  // ψ0: B=b -> C=c (ready only once B=b arrives), ψ1: A=a -> B=b, ψ2:
  // B=b -> D=d. ψ1 applies in pass 1 and makes ψ0 (behind it) and ψ2
  // (ahead) ready: ψ2 applies in pass 1, ψ0 in pass 2, so D's constant
  // enters its domain before C's.
  auto schema = Schema::Make({"A", "B", "C", "D"});
  ASSERT_TRUE(schema.ok());
  EntityInstance ie(*schema, "chain");
  ASSERT_TRUE(ie.Add(Tuple({Value::Str("a"), Value::Null(), Value::Null(),
                            Value::Null()}))
                  .ok());
  Specification se;
  se.temporal = TemporalInstance(std::move(ie));
  auto cfd = [](int lhs_attr, const char* lhs, int rhs_attr,
                const char* rhs) {
    return ConstantCfd({{lhs_attr, Value::Str(lhs)}}, rhs_attr,
                       Value::Str(rhs));
  };
  ASSERT_TRUE(se.SetRules({}, {cfd(1, "b", 2, "c"), cfd(0, "a", 1, "b"),
                               cfd(1, "b", 3, "d"), cfd(3, "d", 2, "e")})
                  .ok());
  RefState st = RefBuild(se);
  EXPECT_EQ(st.passes_with_work, 2);
  // ψ3 (D=d -> C=e) is ahead of ψ2 and applies in pass 1 too.
  EXPECT_EQ(st.domains[2], (std::vector<Value>{Value::Str("e"),
                                               Value::Str("c")}));
  EXPECT_EQ(CheckAgainstScan(se, {}, "chain").multi_pass, 1);
}

// --- the corpora ------------------------------------------------------------

// Deltas that answer an attribute with the true value and another with
// the LHS constant of some CFD, so CFDs become applicable mid-session and
// LHS domains grow.
std::vector<PartialTemporalOrder> CorpusDeltas(const Dataset& ds, int e,
                                               Rng& rng) {
  const int n_attrs = ds.schema.size();
  std::vector<PartialTemporalOrder> deltas;
  for (int r = 0; r < 3; ++r) {
    std::vector<Value> to(n_attrs, Value::Null());
    const int a = static_cast<int>(rng.Below(n_attrs));
    to[a] = ds.entities[e].truth[a];
    if (!ds.gamma().empty()) {
      const ConstantCfd& cfd = ds.gamma()[rng.Below(ds.gamma().size())];
      for (const auto& [attr, c] : cfd.lhs()) to[attr] = c;
    }
    PartialTemporalOrder ot;
    ot.new_tuples.push_back(Tuple(std::move(to)));
    deltas.push_back(std::move(ot));
  }
  return deltas;
}

TEST(CfdReachTest, MatchesPassScanOnCorpora) {
  PersonOptions p;
  p.num_entities = 8;
  NbaOptions n;
  n.num_entities = 16;
  CareerOptions c;
  c.num_entities = 16;
  const Dataset corpora[] = {GeneratePerson(p), GenerateNba(n),
                             GenerateCareer(c)};
  Rng rng(21);
  for (const Dataset& ds : corpora) {
    Exercised total;
    for (int e = 0; e < static_cast<int>(ds.entities.size()); ++e) {
      const Exercised ex =
          CheckAgainstScan(ds.MakeSpec(e), CorpusDeltas(ds, e, rng),
                           ds.name + " entity " + std::to_string(e));
      if (HasFailure()) return;
      total.newly += ex.newly;
      total.retired += ex.retired;
    }
    EXPECT_GT(total.newly, 0) << ds.name;
    EXPECT_GT(total.retired, 0) << ds.name;
  }
}

}  // namespace
}  // namespace ccr
