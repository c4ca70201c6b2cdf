// Tests for src/encode: VarMap, Instantiation (Ω(Se)), CNF builder (Φ(Se)).

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "paper_fixture.h"
#include "src/core/deduce.h"
#include "src/data/career_generator.h"
#include "src/data/nba_generator.h"
#include "src/data/person_generator.h"
#include "src/encode/cnf_builder.h"
#include "src/encode/instantiation.h"
#include "src/sat/solver.h"

namespace ccr {
namespace {

using testing::EdithSpec;
using testing::GeorgeSpec;
using testing::PaperSchema;

class VarMapTest : public ::testing::Test {
 protected:
  Specification se_ = EdithSpec();
  VarMap vm_ = VarMap::Build(se_).value();
  int status_ = PaperSchema().IndexOf("status");
  int city_ = PaperSchema().IndexOf("city");
  int kids_ = PaperSchema().IndexOf("kids");
  int ac_ = PaperSchema().IndexOf("AC");
};

TEST_F(VarMapTest, DomainsMatchActiveDomains) {
  EXPECT_EQ(vm_.domain(status_).size(), 3u);  // working, retired, deceased
  EXPECT_EQ(vm_.domain(kids_).size(), 2u);    // 0, 3 (null excluded)
  EXPECT_EQ(vm_.active_domain_size(status_), 3);
}

TEST_F(VarMapTest, CfdConstantsAreIncludedWhenReachable) {
  // ψ1/ψ2 RHS cities LA and NY are already in adom(city); domain stays 3.
  EXPECT_EQ(vm_.domain(city_).size(), 3u);
  EXPECT_EQ(vm_.ValueIndex(city_, Value::Str("LA")), 2);
  // Both CFDs are applicable: 213 and 212 appear in adom(AC).
  EXPECT_EQ(vm_.applicable_cfds().size(), 2u);
}

TEST_F(VarMapTest, UnreachableCfdIsPruned) {
  Specification se = EdithSpec();
  auto extra = ParseCfd(PaperSchema(), "AC = 999 -> city = 'Nowhere'");
  ASSERT_TRUE(extra.ok());
  std::vector<ConstantCfd> gamma = se.gamma();
  gamma.push_back(std::move(extra).value());
  ASSERT_TRUE(se.SetRules(se.sigma(), std::move(gamma)).ok());
  const VarMap vm = VarMap::Build(se).value();
  // AC 999 never occurs: the CFD can never fire, its RHS constant must not
  // pollute the city domain.
  EXPECT_EQ(vm.domain(city_).size(), 3u);
  EXPECT_EQ(vm.ValueIndex(city_, Value::Str("Nowhere")), -1);
  EXPECT_EQ(vm.applicable_cfds().size(), 2u);
}

TEST_F(VarMapTest, ReachableCfdConstantExtendsDomain) {
  Specification se = EdithSpec();
  auto extra = ParseCfd(PaperSchema(), "AC = 213 -> county = 'LA County'");
  ASSERT_TRUE(extra.ok());
  std::vector<ConstantCfd> gamma = se.gamma();
  gamma.push_back(std::move(extra).value());
  ASSERT_TRUE(se.SetRules(se.sigma(), std::move(gamma)).ok());
  const VarMap vm = VarMap::Build(se).value();
  const int county = PaperSchema().IndexOf("county");
  EXPECT_EQ(vm.domain(county).size(), 4u);  // 3 adom + introduced constant
  EXPECT_GE(vm.ValueIndex(county, Value::Str("LA County")), 0);
  EXPECT_EQ(vm.active_domain_size(county), 3);
}

TEST_F(VarMapTest, CfdChainingFixpoint) {
  // A CFD whose LHS constant is only *introduced* by another CFD must
  // still be applicable (fixpoint, not single pass).
  Specification se = EdithSpec();
  auto c1 = ParseCfd(PaperSchema(), "AC = 213 -> county = 'LA County'");
  auto c2 = ParseCfd(PaperSchema(), "county = 'LA County' -> zip = '90001'");
  ASSERT_TRUE(c1.ok() && c2.ok());
  std::vector<ConstantCfd> gamma = se.gamma();
  gamma.push_back(std::move(c1).value());
  gamma.push_back(std::move(c2).value());
  ASSERT_TRUE(se.SetRules(se.sigma(), std::move(gamma)).ok());
  const VarMap vm = VarMap::Build(se).value();
  const int zip = PaperSchema().IndexOf("zip");
  EXPECT_GE(vm.ValueIndex(zip, Value::Str("90001")), 0);
  EXPECT_EQ(vm.applicable_cfds().size(), 4u);
}

TEST_F(VarMapTest, VarOfDecodeRoundTrip) {
  for (int a = 0; a < vm_.num_attrs(); ++a) {
    const int d = static_cast<int>(vm_.domain(a).size());
    for (int i = 0; i < d; ++i) {
      for (int j = 0; j < d; ++j) {
        if (i == j) continue;
        const sat::Var v = vm_.VarOf(a, i, j);
        ASSERT_GE(v, 0);
        ASSERT_LT(v, vm_.num_vars());
        const OrderAtom atom = vm_.Decode(v);
        EXPECT_EQ(atom.attr, a);
        EXPECT_EQ(atom.less, i);
        EXPECT_EQ(atom.more, j);
      }
    }
  }
}

TEST_F(VarMapTest, DistinctAtomsGetDistinctVars) {
  std::vector<sat::Var> vars;
  for (int a = 0; a < vm_.num_attrs(); ++a) {
    const int d = static_cast<int>(vm_.domain(a).size());
    for (int i = 0; i < d; ++i) {
      for (int j = 0; j < d; ++j) {
        if (i != j) vars.push_back(vm_.VarOf(a, i, j));
      }
    }
  }
  std::sort(vars.begin(), vars.end());
  EXPECT_EQ(std::adjacent_find(vars.begin(), vars.end()), vars.end());
}

// One attribute of 2,049 distinct values: its 2,049² order slots are past
// kMaxOrderVars = 2²² = 2,048². The build fails closed, before anything
// sized by d² exists: no order variable, no ground constraint.
TEST(VarMapLimitTest, DomainBeyondTheOrderVariableLimitFailsClosed) {
  constexpr int kValues = 2049;
  EntityInstance e(Schema::Make({"v"}).value(), "huge");
  for (int i = 0; i < kValues; ++i) {
    ASSERT_TRUE(e.Add(Tuple({Value::Int(i)})).ok());
  }
  Specification se;
  se.temporal = TemporalInstance(std::move(e));

  const Result<VarMap> vm = VarMap::Build(se);
  ASSERT_FALSE(vm.ok());
  EXPECT_EQ(vm.status().code(), StatusCode::kResourceExhausted);

  Instantiation inst;
  const Status built = Instantiation::BuildInto(se, &inst);
  EXPECT_EQ(built.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(inst.varmap.num_vars(), 0);
  EXPECT_TRUE(inst.constraints.empty());

  // One value fewer fits exactly: 2,048² = kMaxOrderVars.
  EntityInstance fits(Schema::Make({"v"}).value(), "large");
  for (int i = 0; i < kValues - 1; ++i) {
    ASSERT_TRUE(fits.Add(Tuple({Value::Int(i)})).ok());
  }
  se.temporal = TemporalInstance(std::move(fits));
  const Result<VarMap> large = VarMap::Build(se);
  ASSERT_TRUE(large.ok());
  EXPECT_EQ(large->num_vars(), kMaxOrderVars);
}

// ExtendWith checks the same bound before it applies a delta. 2,047
// values fill the dense block; the first appended value brings the
// domain to 2,048 values, 2,048² = kMaxOrderVars exactly, so one more
// value fits and two do not.
TEST(VarMapLimitTest, ExtensionBeyondTheOrderVariableLimitFailsClosed) {
  constexpr int kValues = 2047;
  EntityInstance e(Schema::Make({"v"}).value(), "large");
  for (int i = 0; i < kValues; ++i) {
    ASSERT_TRUE(e.Add(Tuple({Value::Int(i)})).ok());
  }
  Specification se;
  se.temporal = TemporalInstance(std::move(e));
  auto inst = Instantiation::Build(se);
  ASSERT_TRUE(inst.ok());
  const int built_vars = inst->varmap.num_vars();

  PartialTemporalOrder two;
  two.new_tuples.push_back(Tuple({Value::Int(kValues)}));
  two.new_tuples.push_back(Tuple({Value::Int(kValues + 1)}));
  auto two_more = Extend(se, two);
  ASSERT_TRUE(two_more.ok());
  const auto refused = inst->ExtendWith(*two_more, two);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(inst->varmap.num_vars(), built_vars);
  EXPECT_EQ(inst->varmap.domain(0).size(), static_cast<size_t>(kValues));

  PartialTemporalOrder one;
  one.new_tuples.push_back(Tuple({Value::Int(kValues)}));
  auto one_more = Extend(se, one);
  ASSERT_TRUE(one_more.ok());
  ASSERT_TRUE(inst->ExtendWith(*one_more, one).ok());
  EXPECT_EQ(inst->varmap.num_vars(), built_vars + 2 * kValues);
}

// Too many tuples or attributes fail closed before grounding reads them.
TEST(VarMapLimitTest, TuplesAndAttributesBeyondTheLimitsFailClosed) {
  std::vector<std::string> names;
  for (int a = 0; a <= kMaxAttrs; ++a) names.push_back("a" + std::to_string(a));
  EntityInstance wide(Schema::Make(names).value(), "wide");
  ASSERT_TRUE(wide.Add(Tuple(std::vector<Value>(names.size(), Value::Int(1))))
                  .ok());
  Specification se;
  se.temporal = TemporalInstance(std::move(wide));
  EXPECT_EQ(VarMap::Build(se).status().code(),
            StatusCode::kResourceExhausted);

  EntityInstance tall(Schema::Make({"v"}).value(), "tall");
  for (int t = 0; t < kMaxTuples; ++t) {
    ASSERT_TRUE(tall.Add(Tuple({Value::Int(t % 7)})).ok());
  }
  se.temporal = TemporalInstance(std::move(tall));
  auto inst = Instantiation::Build(se);
  ASSERT_TRUE(inst.ok());
  PartialTemporalOrder past;
  past.new_tuples.push_back(Tuple({Value::Int(0)}));
  auto grown = Extend(se, past);
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(inst->ExtendWith(*grown, past).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(VarMap::Build(*grown).status().code(),
            StatusCode::kResourceExhausted);
}

class InstantiationTest : public ::testing::Test {
 protected:
  static int CountBySource(const Instantiation& inst, GroundSource src) {
    int n = 0;
    for (const auto& gc : inst.constraints) n += (gc.source == src) ? 1 : 0;
    return n;
  }
};

TEST_F(InstantiationTest, EdithGroundsTheExampleConstraints) {
  const Specification se = EdithSpec();
  auto inst = Instantiation::Build(se);
  ASSERT_TRUE(inst.ok());
  // Example 7: ϕ1 on (r1, r2) yields (true -> working ≺ retired): an
  // unconditional currency-constraint instance.
  const VarMap& vm = inst->varmap;
  const int status = PaperSchema().IndexOf("status");
  const int working = vm.ValueIndex(status, Value::Str("working"));
  const int retired = vm.ValueIndex(status, Value::Str("retired"));
  bool found_unconditional = false;
  for (const auto& gc : inst->constraints) {
    if (gc.source == GroundSource::kCurrencyConstraint && !gc.has_body() &&
        gc.head_kind == GroundHead::kAtom && gc.head.attr == status &&
        gc.head.less == working && gc.head.more == retired) {
      found_unconditional = true;
    }
  }
  EXPECT_TRUE(found_unconditional);
}

TEST_F(InstantiationTest, Example8CfdEncoding) {
  // ψ1 for Edith: two instance constraints
  //   212 ≺ 213 & 415 ≺ 213 -> NY ≺ LA  and  ... -> SFC ≺ LA.
  const Specification se = EdithSpec();
  auto inst = Instantiation::Build(se);
  ASSERT_TRUE(inst.ok());
  const VarMap& vm = inst->varmap;
  const int city = PaperSchema().IndexOf("city");
  const int ac = PaperSchema().IndexOf("AC");
  const int la = vm.ValueIndex(city, Value::Str("LA"));
  int cfd_heads_to_la = 0;
  for (const auto& gc : inst->constraints) {
    if (gc.source != GroundSource::kCfd) continue;
    if (gc.head.attr == city && gc.head.more == la) {
      ++cfd_heads_to_la;
      // Body: both other AC values dominated by 213.
      EXPECT_EQ(inst->body(gc).size(), 2u);
      for (const auto& atom : inst->body(gc)) {
        EXPECT_EQ(atom.attr, ac);
        EXPECT_EQ(vm.domain(ac)[atom.more], Value::Int(213));
      }
    }
  }
  EXPECT_EQ(cfd_heads_to_la, 2);  // NY ≺ LA and SFC ≺ LA variants
}

TEST_F(InstantiationTest, OrderPredicateGrounding) {
  // ϕ6 on (r1, r2): working ≺ retired -> 212 ≺ 415 (Example 7).
  const Specification se = EdithSpec();
  auto inst = Instantiation::Build(se);
  ASSERT_TRUE(inst.ok());
  const VarMap& vm = inst->varmap;
  const int status = PaperSchema().IndexOf("status");
  const int ac = PaperSchema().IndexOf("AC");
  const int working = vm.ValueIndex(status, Value::Str("working"));
  const int retired = vm.ValueIndex(status, Value::Str("retired"));
  const int ac212 = vm.ValueIndex(ac, Value::Int(212));
  const int ac415 = vm.ValueIndex(ac, Value::Int(415));
  bool found = false;
  for (const auto& gc : inst->constraints) {
    if (gc.source != GroundSource::kCurrencyConstraint) continue;
    const std::span<const OrderAtom> body = inst->body(gc);
    if (body.size() == 1 && body[0].attr == status &&
        body[0].less == working && body[0].more == retired &&
        gc.head_kind == GroundHead::kAtom && gc.head.attr == ac &&
        gc.head.less == ac212 && gc.head.more == ac415) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(InstantiationTest, NullHeadsAreVacuous) {
  // ϕ4 with t1 = r3 (kids null): null < 0 and null < 3 hold, but the head
  // r3 ≺kids rX carries no value-level content (null is not in the
  // domain). No ground constraint may mention a null.
  const Specification se = EdithSpec();
  auto inst = Instantiation::Build(se);
  ASSERT_TRUE(inst.ok());
  const VarMap& vm = inst->varmap;
  for (const auto& gc : inst->constraints) {
    for (const auto& atom : inst->body(gc)) {
      EXPECT_GE(atom.less, 0);
      EXPECT_LT(atom.less, static_cast<int>(vm.domain(atom.attr).size()));
    }
    if (gc.head_kind == GroundHead::kAtom) {
      EXPECT_GE(gc.head.less, 0);
      EXPECT_NE(gc.head.less, gc.head.more);
    }
  }
}

TEST_F(InstantiationTest, TupleProjectionDeduplication) {
  // Duplicating tuples must not change the number of currency-constraint
  // instances (grounding is over distinct projections).
  Specification se = EdithSpec();
  auto base = Instantiation::Build(se);
  ASSERT_TRUE(base.ok());
  const int base_count =
      CountBySource(*base, GroundSource::kCurrencyConstraint);

  Specification dup = EdithSpec();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        dup.temporal.AddTuple(dup.instance().tuple(i)).ok());
  }
  auto dupped = Instantiation::Build(dup);
  ASSERT_TRUE(dupped.ok());
  EXPECT_EQ(CountBySource(*dupped, GroundSource::kCurrencyConstraint),
            base_count);
}

TEST_F(InstantiationTest, CurrencyOrdersBecomeUnitConstraints) {
  Specification se = EdithSpec();
  // Explicit temporal information: r1 ≺city r2.
  ASSERT_TRUE(se.temporal.AddOrder(PaperSchema().IndexOf("city"), 0, 1).ok());
  auto inst = Instantiation::Build(se);
  ASSERT_TRUE(inst.ok());
  int order_units = 0;
  for (const auto& gc : inst->constraints) {
    if (gc.source == GroundSource::kCurrencyOrder) {
      EXPECT_FALSE(gc.has_body());
      ++order_units;
    }
  }
  EXPECT_EQ(order_units, 1);
}

TEST(CnfBuilderTest, StructuralAxiomCounts) {
  const Specification se = EdithSpec();
  auto inst = Instantiation::Build(se);
  ASSERT_TRUE(inst.ok());
  const VarMap& vm = inst->varmap;

  const sat::Cnf phi = BuildCnf(*inst);

  // One clause per ground constraint, plus one defining clause per CFD
  // version with a rule. The structural axioms are no clauses: asymmetry
  // and transitivity live in one implicit order block per attribute,
  // which the materialized form spells out.
  const int64_t constraints = static_cast<int64_t>(inst->constraints.size());
  int64_t definitions = 0;
  for (const CfdVersion& ver : inst->cfd_versions()) {
    definitions += ver.first_rule >= 0 ? 1 : 0;
  }
  EXPECT_GT(definitions, 0);
  int64_t expected_asymmetry = 0;
  int64_t expected_transitivity = 0;
  for (int a = 0; a < vm.num_attrs(); ++a) {
    const int64_t d = static_cast<int64_t>(vm.domain(a).size());
    expected_asymmetry += d * (d - 1) / 2;
    expected_transitivity += d * (d - 1) * (d - 2);
  }
  EXPECT_EQ(phi.num_clauses(), constraints + definitions);
  EXPECT_EQ(phi.num_implicit_clauses(),
            expected_asymmetry + expected_transitivity);
  EXPECT_EQ(phi.Materialized().num_clauses(),
            constraints + definitions + expected_asymmetry +
                expected_transitivity);
  EXPECT_EQ(phi.num_order_blocks(), vm.num_attrs());
  EXPECT_EQ(phi.num_vars(), vm.num_vars());
}

TEST(CnfBuilderTest, NullHeadSemantics) {
  // A rule whose head orders a value before a null (the more-current
  // tuple's email is missing): vacuous by default, a contradiction under
  // strict null semantics (see InstantiationOptions::strict_null_order).
  Schema schema = Schema::Make({"status", "email"}).value();
  EntityInstance inst(schema, "e");
  ASSERT_TRUE(inst.Add(Tuple({Value::Str("working"), Value::Str("a@x")})).ok());
  ASSERT_TRUE(inst.Add(Tuple({Value::Str("retired"), Value::Null()})).ok());
  Specification se;
  se.temporal = TemporalInstance(std::move(inst));
  auto phi = ParseCurrencyConstraint(
      schema, "t1[status] = 'working' & t2[status] = 'retired' -> email");
  ASSERT_TRUE(phi.ok());
  ASSERT_TRUE(se.SetRules({std::move(phi).value()}, {}).ok());

  // Default (operational) semantics: the rule is dropped, Se stays valid.
  auto ground = Instantiation::Build(se);
  ASSERT_TRUE(ground.ok());
  for (const auto& gc : ground->constraints) {
    EXPECT_NE(gc.head_kind, GroundHead::kFalse);
  }
  {
    sat::Solver solver;
    solver.AddCnf(BuildCnf(*ground));
    EXPECT_EQ(solver.Solve(), sat::SolveResult::kSat);
  }

  // Strict semantics: (body -> false); here the body is empty after the
  // comparisons evaluate, so Φ(Se) contains the empty clause.
  InstantiationOptions strict;
  strict.strict_null_order = true;
  auto strict_ground = Instantiation::Build(se, strict);
  ASSERT_TRUE(strict_ground.ok());
  bool found_false_head = false;
  for (const auto& gc : strict_ground->constraints) {
    if (gc.head_kind == GroundHead::kFalse) found_false_head = true;
  }
  EXPECT_TRUE(found_false_head);
  sat::Solver solver;
  solver.AddCnf(BuildCnf(*strict_ground));
  EXPECT_EQ(solver.Solve(), sat::SolveResult::kUnsat);
}

// Largest number of positive literals in any clause of `cnf`, order
// blocks' transitivity axioms included (counted over the materialized
// formula).
int MaxPositiveLiterals(const sat::Cnf& phi) {
  const sat::Cnf cnf = phi.Materialized();
  int most = 0;
  for (int c = 0; c < cnf.num_clauses(); ++c) {
    int positive = 0;
    for (const sat::Lit l : cnf.clause(c)) positive += l.negated() ? 0 : 1;
    most = std::max(most, positive);
  }
  return most;
}

TEST(CnfBuilderTest, PhiIsHornOnEveryCorpus) {
  // Every clause of Phi(Se), built or appended by an extension, has at most
  // one positive literal. The extension is a user tuple with a fresh value
  // in every attribute, more current than every tuple: it grows every
  // domain and retires the guards of CFDs whose LHS domain grew.
  PersonOptions person;
  person.num_entities = 4;
  person.min_tuples = 6;
  person.max_tuples = 20;
  NbaOptions nba;
  nba.num_entities = 6;
  CareerOptions career;
  career.num_entities = 6;
  career.max_tuples = 40;
  InstantiationOptions guarded;
  guarded.guard_cfds = true;
  size_t retired_guards = 0;
  for (const Dataset& ds : {GeneratePerson(person), GenerateNba(nba),
                            GenerateCareer(career)}) {
    for (size_t i = 0; i < ds.entities.size(); ++i) {
      const Specification se = ds.MakeSpec(static_cast<int>(i));
      auto inst = Instantiation::Build(se, guarded);
      ASSERT_TRUE(inst.ok());
      sat::Cnf cnf = BuildCnf(*inst);
      EXPECT_LE(MaxPositiveLiterals(cnf), 1) << ds.name << " " << i;

      const int n_attrs = ds.schema.size();
      const int t_o = se.instance().size();
      PartialTemporalOrder ot;
      ot.new_tuples.push_back(
          Tuple(std::vector<Value>(n_attrs, Value::Str("fresh"))));
      for (int a = 0; a < n_attrs; ++a) {
        for (int t = 0; t < t_o; ++t) ot.orders.emplace_back(a, t, t_o);
      }
      auto next = Extend(se, ot);
      ASSERT_TRUE(next.ok());
      auto delta = inst->ExtendWith(*next, ot, guarded);
      ASSERT_TRUE(delta.ok());
      retired_guards += delta->retired_versions.size();
      const int built = cnf.Materialized().num_clauses();
      ExtendCnf(*inst, *delta, &cnf);
      EXPECT_GT(cnf.Materialized().num_clauses(), built);
      EXPECT_LE(MaxPositiveLiterals(cnf), 1) << ds.name << " " << i;
    }
  }
  EXPECT_GT(retired_guards, 0u);
}

// --- guarded CFD grounding ----------------------------------------------

// Two-attribute spec with CFD A=a1 -> B=b1 over two tuples.
Specification GuardSpec() {
  Schema schema = Schema::Make({"A", "B"}).value();
  EntityInstance e(schema, "guard-entity");
  EXPECT_TRUE(e.Add(Tuple({Value::Str("a1"), Value::Str("b1")})).ok());
  EXPECT_TRUE(e.Add(Tuple({Value::Str("a2"), Value::Str("b2")})).ok());
  Specification se;
  se.temporal = TemporalInstance(std::move(e));
  EXPECT_TRUE(se.SetRules({}, {ConstantCfd(std::vector<std::pair<int, Value>>{
                                               {0, Value::Str("a1")}},
                                           1, Value::Str("b1"))})
                  .ok());
  return se;
}

TEST(GuardedGroundingTest, CfdClausesCarryGuardLiterals) {
  InstantiationOptions guarded;
  guarded.guard_cfds = true;
  auto inst = Instantiation::Build(GuardSpec(), guarded);
  ASSERT_TRUE(inst.ok());
  ASSERT_EQ(inst->guard_assumptions().size(), 1u);
  const sat::Lit guard = inst->guard_assumptions()[0];
  EXPECT_FALSE(inst->varmap.IsOrderVar(guard.var()));

  int guarded_cfd_rules = 0;
  for (const GroundConstraint& gc : inst->constraints) {
    if (gc.source == GroundSource::kCfd) {
      EXPECT_EQ(inst->version(gc).guard, guard.var());
      EXPECT_EQ(inst->varmap.Kind(inst->version(gc).def),
                VarKind::kDefinitional);
      ++guarded_cfd_rules;
    } else {
      EXPECT_EQ(gc.version, -1);
    }
  }
  EXPECT_GT(guarded_cfd_rules, 0);
  EXPECT_EQ(inst->varmap.Kind(guard.var()), VarKind::kGuard);

  // The guarded CNF widens exactly each version's defining clause by one
  // literal; the rules' binaries on its atom are unguarded.
  const sat::Cnf guarded_cnf = BuildCnf(*inst);
  auto plain_inst = Instantiation::Build(GuardSpec());
  ASSERT_TRUE(plain_inst.ok());
  const sat::Cnf plain_cnf = BuildCnf(*plain_inst);
  EXPECT_EQ(inst->cfd_versions().size(), 1u);
  EXPECT_EQ(guarded_cnf.num_clauses(), plain_cnf.num_clauses());
  EXPECT_EQ(guarded_cnf.num_literals(),
            plain_cnf.num_literals() +
                static_cast<int64_t>(inst->cfd_versions().size()));
}

TEST(GuardedGroundingTest, LhsGrowthRetiresAndRegrounds) {
  InstantiationOptions guarded;
  guarded.guard_cfds = true;
  const Specification base = GuardSpec();
  auto inst = Instantiation::Build(base, guarded);
  ASSERT_TRUE(inst.ok());
  const sat::Lit old_guard = inst->guard_assumptions()[0];
  sat::Cnf cnf = BuildCnf(*inst);

  // New value in A — the CFD's LHS attribute.
  PartialTemporalOrder ot;
  ot.new_tuples.push_back(Tuple({Value::Str("a3"), Value::Null()}));
  ot.orders.emplace_back(0, 0, 2);
  ot.orders.emplace_back(0, 1, 2);
  auto next = Extend(base, ot);
  ASSERT_TRUE(next.ok());
  auto delta = inst->ExtendWith(*next, ot, guarded);
  ASSERT_TRUE(delta.ok());
  EXPECT_FALSE(delta->needs_rebuild);
  ASSERT_EQ(delta->retired_versions.size(), 1u);
  EXPECT_EQ(inst->cfd_versions()[delta->retired_versions[0]].guard,
            old_guard.var());

  // A fresh guard replaced the retired one.
  ASSERT_EQ(inst->guard_assumptions().size(), 1u);
  const sat::Lit new_guard = inst->guard_assumptions()[0];
  EXPECT_NE(new_guard.var(), old_guard.var());

  // The re-grounded rules dominate the grown domain (one more body atom)
  // and carry the fresh guard; the stale rules keep the old one.
  int stale = 0, fresh_rules = 0;
  for (const GroundConstraint& gc : inst->constraints) {
    if (gc.source != GroundSource::kCfd) continue;
    if (inst->version(gc).guard == old_guard.var()) {
      ++stale;
      EXPECT_EQ(inst->body(gc).size(), 1u);  // dominated {a2} only
    } else {
      EXPECT_EQ(inst->version(gc).guard, new_guard.var());
      ++fresh_rules;
      EXPECT_EQ(inst->body(gc).size(), 2u);  // dominates {a2, a3}
    }
  }
  EXPECT_GT(stale, 0);
  EXPECT_GE(fresh_rules, stale);

  // Extending the CNF and seeding the active guard reproduces, literally,
  // what a from-scratch unguarded grounding of the extended spec deduces.
  ExtendCnf(*inst, *delta, &cnf);
  const DeducedOrders od_guarded =
      DeduceOrder(*inst, cnf, {}, inst->guard_assumptions());
  auto fresh = Instantiation::Build(*next);
  ASSERT_TRUE(fresh.ok());
  const sat::Cnf fresh_cnf = BuildCnf(*fresh);
  const DeducedOrders od_fresh = DeduceOrder(*fresh, fresh_cnf);
  EXPECT_EQ(od_guarded.CountPairs(), od_fresh.CountPairs());

  // And satisfiability under the active guard matches the rebuilt truth.
  sat::Solver guarded_solver;
  guarded_solver.AddCnf(cnf);
  const std::vector<sat::Lit>& assume = inst->guard_assumptions();
  EXPECT_EQ(guarded_solver.SolveWithAssumptions(
                std::span<const sat::Lit>(assume.data(), assume.size())),
            sat::SolveResult::kSat);
  sat::Solver fresh_solver;
  fresh_solver.AddCnf(fresh_cnf);
  EXPECT_EQ(fresh_solver.Solve(), sat::SolveResult::kSat);
}

TEST(GuardedGroundingTest, BuildIntoRecyclesArena) {
  // BuildInto on a warm Instantiation must be observably identical to a
  // fresh Build — same constraints, same domains, same var counts.
  Instantiation arena;
  for (int round = 0; round < 3; ++round) {
    const Specification se = round % 2 == 0 ? GuardSpec() : GeorgeSpec();
    ASSERT_TRUE(Instantiation::BuildInto(se, &arena).ok());
    auto fresh = Instantiation::Build(se);
    ASSERT_TRUE(fresh.ok());
    ASSERT_EQ(arena.constraints.size(), fresh->constraints.size());
    for (size_t i = 0; i < arena.constraints.size(); ++i) {
      EXPECT_EQ(arena.constraints[i].source, fresh->constraints[i].source);
      EXPECT_TRUE(std::ranges::equal(arena.body(arena.constraints[i]),
                                     fresh->body(fresh->constraints[i])));
      EXPECT_EQ(arena.constraints[i].seq, fresh->constraints[i].seq);
    }
    EXPECT_EQ(arena.varmap.num_vars(), fresh->varmap.num_vars());
    for (int a = 0; a < arena.varmap.num_attrs(); ++a) {
      EXPECT_EQ(arena.varmap.domain(a), fresh->varmap.domain(a));
    }
    EXPECT_EQ(BuildCnf(arena).num_clauses(), BuildCnf(*fresh).num_clauses());
    EXPECT_EQ(BuildCnf(arena).num_literals(),
              BuildCnf(*fresh).num_literals());
  }
}

}  // namespace
}  // namespace ccr
