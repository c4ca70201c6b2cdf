// RuleSet: Σ and Γ are checked once, when the rule set is made, and every
// specification of a corpus shares the one rule set.
//
// A negative attribute or one past the schema fails RuleSet::Make (and so
// Specification::SetRules) with InvalidArgument; Make is the only way to
// obtain a rule set, so no specification carries a negative index to the
// grounding entry points. A valid rule set made for a wider schema can
// still be paired with a narrower one: Instantiation::Build, VarMap::Build,
// ResolutionSession::Create and Resolve must then fail with
// InvalidArgument before they index anything by a rule's attribute.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/session.h"
#include "src/data/person_generator.h"

namespace ccr {
namespace {

struct RuleCase {
  std::string what;
  std::vector<CurrencyConstraint> sigma;
  std::vector<ConstantCfd> gamma;
};

// One rule set per place an attribute index can appear, each naming
// `attr` there and only valid attributes (0 and 1) elsewhere.
std::vector<RuleCase> RulesNaming(int attr) {
  std::vector<RuleCase> cases;
  cases.push_back({"sigma head", {CurrencyConstraint(attr)}, {}});
  CurrencyConstraint order(0);
  order.AddOrder(attr);
  cases.push_back({"sigma order predicate", {order}, {}});
  CurrencyConstraint compare(0);
  compare.AddAttrCompare(attr, CmpOp::kLt);
  cases.push_back({"sigma compare predicate", {compare}, {}});
  CurrencyConstraint constant(0);
  constant.AddConstCompare(1, attr, CmpOp::kEq, Value::Str("q"));
  cases.push_back({"sigma constant predicate", {constant}, {}});
  cases.push_back({"gamma LHS",
                   {},
                   {ConstantCfd({{attr, Value::Str("q")}}, 1,
                                Value::Str("q"))}});
  cases.push_back({"gamma RHS", {}, {ConstantCfd({}, attr, Value::Str("q"))}});
  return cases;
}

// A two-attribute entity with a few values per attribute.
Specification TwoAttrSpec() {
  Schema schema = Schema::Make({"A", "B"}).value();
  EntityInstance e(schema, "narrow");
  EXPECT_TRUE(e.Add(Tuple({Value::Str("q"), Value::Str("b1")})).ok());
  EXPECT_TRUE(e.Add(Tuple({Value::Str("a2"), Value::Str("q")})).ok());
  Specification se;
  se.temporal = TemporalInstance(std::move(e));
  return se;
}

TEST(RuleSetTest, MakeRejectsOutOfRangeAttributes) {
  for (const int attr : {-1, -7, 2, 8}) {
    for (const RuleCase& c : RulesNaming(attr)) {
      const std::string where = c.what + " attr " + std::to_string(attr);
      const auto made = RuleSet::Make(2, c.sigma, c.gamma);
      ASSERT_FALSE(made.ok()) << where;
      EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument) << where;

      Specification se = TwoAttrSpec();
      const std::shared_ptr<const RuleSet> before = se.rules;
      const Status st = se.SetRules(c.sigma, c.gamma);
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << where;
      EXPECT_EQ(se.rules, before) << where << ": rules left unchanged";
    }
  }
}

TEST(RuleSetTest, NarrowSchemaFailsClosedAtEveryEntryPoint) {
  // Each rule set is valid for 9 attributes and names attribute 8; the
  // specification has 2. The Γ RHS case is ConstantCfd({}, 8, "q"): an
  // empty LHS makes it applicable, so the reachability fixpoint would
  // index attribute 8's domain if nothing checked the schema first.
  SessionScratch scratch;
  Instantiation recycled;
  for (const RuleCase& c : RulesNaming(8)) {
    auto made = RuleSet::Make(9, c.sigma, c.gamma);
    ASSERT_TRUE(made.ok()) << c.what;
    EXPECT_EQ((*made)->max_attr(), 8) << c.what;
    Specification se = TwoAttrSpec();
    se.rules = *made;
    auto invalid = [&](const Status& st, const char* entry) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
          << c.what << " via " << entry << ": " << st.ToString();
    };
    invalid(Instantiation::Build(se).status(), "Instantiation::Build");
    InstantiationOptions guarded;
    guarded.guard_cfds = true;
    invalid(Instantiation::Build(se, guarded).status(),
            "guarded Instantiation::Build");
    invalid(Instantiation::BuildInto(se, &recycled), "BuildInto");
    invalid(VarMap::Build(se).status(), "VarMap::Build");
    invalid(ResolutionSession::Create(se).status(), "Create");
    ResolveOptions pooled;
    pooled.scratch = &scratch;
    invalid(ResolutionSession::Create(se, pooled).status(),
            "Create with scratch");
    TruthOracle oracle({Value::Str("q"), Value::Str("q")});
    invalid(Resolve(se, &oracle).status(), "Resolve");
  }
  // The recycled arena still grounds a fitting specification afterwards.
  Specification ok = TwoAttrSpec();
  ASSERT_TRUE(ok.SetRules({CurrencyConstraint(1)}, {}).ok());
  EXPECT_TRUE(Instantiation::BuildInto(ok, &recycled).ok());
}

TEST(RuleSetTest, GroupsSigmaAndIndexesGamma) {
  // Σ: two constraints mention {0, 1}, one {0, 2}; Γ repeats an LHS pair
  // and an LHS attribute, and has an empty LHS.
  CurrencyConstraint a(0);
  a.AddOrder(1);
  CurrencyConstraint b(1);
  b.AddConstCompare(1, 0, CmpOp::kEq, Value::Str("x"));
  b.AddConstCompare(2, 0, CmpOp::kEq, Value::Str("y"));
  CurrencyConstraint c(2);
  c.AddConstCompare(1, 0, CmpOp::kNe, Value::Str("x"));
  c.AddConstCompare(2, 0, CmpOp::kEq, Value::Null());
  const Value x = Value::Str("x");
  const Value y = Value::Str("y");
  std::vector<ConstantCfd> gamma = {
      ConstantCfd({{0, x}, {0, x}}, 1, y),  // a repeated pair
      ConstantCfd({{0, x}, {0, y}}, 2, y),  // a repeated attribute
      ConstantCfd({}, 1, x),                // an empty LHS
      ConstantCfd({{2, y}}, 0, x),
  };
  auto made = RuleSet::Make(3, {a, b, c}, gamma);
  ASSERT_TRUE(made.ok());
  const RuleSet& rs = **made;

  ASSERT_EQ(rs.num_tables(), 2);
  EXPECT_EQ(rs.sigma_plan(0).table, rs.sigma_plan(1).table);
  EXPECT_NE(rs.sigma_plan(0).table, rs.sigma_plan(2).table);
  EXPECT_EQ(rs.table_attrs(rs.sigma_plan(0).table), (std::vector<int>{0, 1}));
  EXPECT_EQ(rs.table_attrs(rs.sigma_plan(2).table), (std::vector<int>{0, 2}));
  EXPECT_EQ(rs.sigma_plan(0).head, 0);
  const std::span<const int> order0 = rs.sigma_plan(0).order;
  EXPECT_EQ(std::vector<int>(order0.begin(), order0.end()),
            (std::vector<int>{1}));
  EXPECT_EQ(rs.sigma_plan(2).head, 1);  // attribute 2 is column 1 of {0, 2}

  // Σ constants: x and y on attribute 0, each once; null has no id.
  EXPECT_EQ(rs.num_sigma_constants(), 2);
  EXPECT_EQ(rs.sigma_plan(1).constant_id[0], rs.SigmaConstantId(0, x));
  EXPECT_EQ(rs.sigma_plan(2).constant_id[0], rs.SigmaConstantId(0, x));
  EXPECT_EQ(rs.sigma_plan(2).constant_id[1], -1);
  EXPECT_EQ(rs.SigmaConstantId(1, x), -1);
  EXPECT_TRUE(rs.HasSigmaConstants(0));
  EXPECT_FALSE(rs.HasSigmaConstants(2));

  // Γ index: one entry per LHS pair, CFDs ascending.
  auto lhs = [&](int attr, const Value& v) {
    const std::span<const int> s = rs.CfdsWithLhs(attr, v);
    return std::vector<int>(s.begin(), s.end());
  };
  EXPECT_EQ(lhs(0, x), (std::vector<int>{0, 0, 1}));
  EXPECT_EQ(lhs(0, y), (std::vector<int>{1}));
  EXPECT_EQ(lhs(2, y), (std::vector<int>{3}));
  EXPECT_TRUE(lhs(1, x).empty());
  EXPECT_EQ(rs.CfdLhsSize(0), 2);
  const std::span<const int> on0 = rs.CfdsWithLhsAttr(0);
  EXPECT_EQ(std::vector<int>(on0.begin(), on0.end()),
            (std::vector<int>{0, 1}));
  EXPECT_FALSE(rs.IsCfdLhsAttr(1));
  EXPECT_EQ(rs.empty_lhs_cfds(), (std::vector<int>{2}));
}

TEST(RuleSetTest, SpecsExtensionsAndSessionsShareOneRuleSet) {
  PersonOptions opts;
  opts.num_entities = 3;
  const Dataset ds = GeneratePerson(opts);
  const Specification se = ds.MakeSpec(1);
  EXPECT_EQ(se.rules, ds.rules);
  EXPECT_EQ(ds.MakeSpec(2).rules, ds.rules);
  EXPECT_EQ(ds.SubsetRules(1.0, 1.0, 7), ds.rules);

  PartialTemporalOrder ot;
  ot.new_tuples.push_back(
      Tuple(std::vector<Value>(ds.schema.size(), Value::Null())));
  auto extended = Extend(se, ot);
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(extended->rules, ds.rules);

  auto session = ResolutionSession::Create(se);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->spec().rules, ds.rules);
  ASSERT_TRUE(session->ExtendWith(ot).ok());
  EXPECT_EQ(session->spec().rules, ds.rules);

  // A fraction is a new rule set, the same for every entity.
  const auto half = ds.SubsetRules(0.5, 0.5, 7);
  EXPECT_NE(half, ds.rules);
  EXPECT_EQ(half->sigma().size(), ds.SubsetRules(0.5, 0.5, 7)->sigma().size());
  EXPECT_EQ(ds.MakeSpec(0, half).rules, half);
}

TEST(RuleSetTest, ExtendWithRefusesAnotherRuleSet) {
  Specification se = TwoAttrSpec();
  ASSERT_TRUE(se.SetRules({CurrencyConstraint(1)}, {}).ok());
  auto inst = Instantiation::Build(se);
  ASSERT_TRUE(inst.ok());
  PartialTemporalOrder ot;
  ot.new_tuples.push_back(Tuple({Value::Str("a3"), Value::Null()}));
  auto next = Extend(se, ot);
  ASSERT_TRUE(next.ok());
  // Equal rules, but not the rule set the instantiation was built from.
  ASSERT_TRUE(next->SetRules(se.sigma(), se.gamma()).ok());
  const auto delta = inst->ExtendWith(*next, ot);
  EXPECT_EQ(delta.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ccr
