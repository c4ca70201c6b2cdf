// Tests for TrueDer and CompGraph (§V-C.1), against Example 10 (derivation
// rules for George) and Example 11 (the compatibility graph of Fig. 6),
// and differentially: on a session's incrementally extended Ω(Se) they
// must mine exactly what they mine on a fresh grounding.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "paper_fixture.h"
#include "src/constraints/parser.h"
#include "src/core/derivation.h"
#include "src/core/resolver.h"
#include "src/core/session.h"
#include "src/data/career_generator.h"
#include "src/data/nba_generator.h"
#include "src/data/person_generator.h"
#include "src/encode/cnf_builder.h"

namespace ccr {
namespace {

using testing::GeorgeSpec;
using testing::PaperSchema;

class DerivationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    se_ = GeorgeSpec();
    auto inst = Instantiation::Build(se_);
    ASSERT_TRUE(inst.ok());
    inst_ = std::move(inst).value();
    phi_ = BuildCnf(inst_);
    od_ = DeduceOrder(inst_, phi_);
    known_ = ExtractTrueValueIndices(inst_.varmap, od_);
    candidates_ = CandidateValues(inst_.varmap, od_);
    rules_ = TrueDer(inst_, candidates_, known_);
  }

  // Finds a rule with the given premise/consequent (by value), or -1.
  int FindRule(const std::vector<std::pair<std::string, Value>>& lhs,
               const std::string& rhs_attr, const Value& rhs_value) const {
    const Schema schema = PaperSchema();
    const VarMap& vm = inst_.varmap;
    for (size_t i = 0; i < rules_.size(); ++i) {
      const DerivationRule& r = rules_[i];
      if (schema.name(r.rhs_attr) != rhs_attr) continue;
      if (!(vm.domain(r.rhs_attr)[r.rhs_value] == rhs_value)) continue;
      if (r.lhs.size() != lhs.size()) continue;
      bool all = true;
      for (const auto& [name, value] : lhs) {
        const int attr = schema.IndexOf(name);
        bool found = false;
        for (const auto& [rattr, rvalue] : r.lhs) {
          if (rattr == attr && vm.domain(rattr)[rvalue] == value) {
            found = true;
          }
        }
        all = all && found;
      }
      if (all) return static_cast<int>(i);
    }
    return -1;
  }

  Specification se_;
  Instantiation inst_;
  sat::Cnf phi_;
  DeducedOrders od_;
  std::vector<int> known_;
  std::vector<std::vector<int>> candidates_;
  std::vector<DerivationRule> rules_;
};

TEST_F(DerivationTest, Example10RulesArePresent) {
  // n1: ({status}, {retired}) -> (job, veteran)
  EXPECT_GE(FindRule({{"status", Value::Str("retired")}}, "job",
                     Value::Str("veteran")),
            0);
  // n2: ({status}, {retired}) -> (AC, 212)
  EXPECT_GE(
      FindRule({{"status", Value::Str("retired")}}, "AC", Value::Int(212)),
      0);
  // n3: ({status}, {retired}) -> (zip, 12404)
  EXPECT_GE(FindRule({{"status", Value::Str("retired")}}, "zip",
                     Value::Str("12404")),
            0);
  // n4: ({city, zip}, {NY, 12404}) -> (county, Accord)
  EXPECT_GE(FindRule({{"city", Value::Str("NY")},
                      {"zip", Value::Str("12404")}},
                     "county", Value::Str("Accord")),
            0);
  // n5: ({AC}, {212}) -> (city, NY)   [from CFD ψ2]
  EXPECT_GE(
      FindRule({{"AC", Value::Int(212)}}, "city", Value::Str("NY")), 0);
  // n6: ({status}, {unemployed}) -> (job, n/a)
  EXPECT_GE(FindRule({{"status", Value::Str("unemployed")}}, "job",
                     Value::Str("n/a")),
            0);
  // n7: ({status}, {unemployed}) -> (AC, 312)
  EXPECT_GE(FindRule({{"status", Value::Str("unemployed")}}, "AC",
                     Value::Int(312)),
            0);
  // n8: ({status}, {unemployed}) -> (zip, 60653)
  EXPECT_GE(FindRule({{"status", Value::Str("unemployed")}}, "zip",
                     Value::Str("60653")),
            0);
  // n9: ({city, zip}, {Chicago, 60653}) -> (county, Bronzeville)
  EXPECT_GE(FindRule({{"city", Value::Str("Chicago")},
                      {"zip", Value::Str("60653")}},
                     "county", Value::Str("Bronzeville")),
            0);
}

TEST_F(DerivationTest, NoRulesForKnownAttributes) {
  // name and kids are already resolved (Example 3); no rule may target
  // them.
  const Schema schema = PaperSchema();
  for (const DerivationRule& r : rules_) {
    EXPECT_NE(schema.name(r.rhs_attr), "name");
    EXPECT_NE(schema.name(r.rhs_attr), "kids");
  }
}

TEST_F(DerivationTest, PremisesAreCandidates) {
  // Rule premises must be candidate (or known) true values — never values
  // that are already dominated.
  for (const DerivationRule& r : rules_) {
    for (const auto& [attr, v] : r.lhs) {
      if (known_[attr] >= 0) {
        EXPECT_EQ(known_[attr], v);
      } else {
        const auto& cands = candidates_[attr];
        EXPECT_NE(std::find(cands.begin(), cands.end(), v), cands.end());
      }
    }
  }
}

TEST_F(DerivationTest, Example11CompatibilityEdges) {
  const graph::Graph g = CompGraph(rules_);
  const int n1 = FindRule({{"status", Value::Str("retired")}}, "job",
                          Value::Str("veteran"));
  const int n2 = FindRule({{"status", Value::Str("retired")}}, "AC",
                          Value::Int(212));
  const int n5 =
      FindRule({{"AC", Value::Int(212)}}, "city", Value::Str("NY"));
  const int n7 = FindRule({{"status", Value::Str("unemployed")}}, "AC",
                          Value::Int(312));
  ASSERT_GE(n1, 0);
  ASSERT_GE(n2, 0);
  ASSERT_GE(n5, 0);
  ASSERT_GE(n7, 0);
  // Edge (n1, n2): same status premise, different consequents.
  EXPECT_TRUE(g.HasEdge(n1, n2));
  // Edge (n2, n5): n2 concludes AC=212, n5 premises AC=212 — compatible.
  EXPECT_TRUE(g.HasEdge(n2, n5));
  // No edge (n5, n7): AC values differ (212 vs 312) — Example 11.
  EXPECT_FALSE(g.HasEdge(n5, n7));
  // No edge (n2, n7): both conclude AC.
  EXPECT_FALSE(g.HasEdge(n2, n7));
}

TEST_F(DerivationTest, RuleToStringIsReadable) {
  ASSERT_FALSE(rules_.empty());
  const std::string s =
      rules_[0].ToString(inst_.varmap, PaperSchema());
  EXPECT_NE(s.find("->"), std::string::npos);
}

TEST_F(DerivationTest, KnownTrueValuesRestrictCfdRules) {
  // Pin city = Chicago as known; the CFD rule for city = NY must vanish.
  std::vector<int> known = known_;
  const int city = PaperSchema().IndexOf("city");
  known[city] =
      inst_.varmap.ValueIndex(city, Value::Str("Chicago"));
  const auto rules = TrueDer(inst_, candidates_, known);
  for (const DerivationRule& r : rules) {
    EXPECT_NE(r.rhs_attr, city);
  }
}

// ---------------------------------------------------------------------------
// Differential: extended session vs fresh Build.

// `indices` of `attr` in `from`, re-expressed as indices of the same values
// in `to`. Domain positions depend on encoding history, values do not.
std::vector<int> MapIndices(const VarMap& from, const VarMap& to, int attr,
                            const std::vector<int>& indices) {
  std::vector<int> out;
  for (int v : indices) {
    out.push_back(to.ValueIndex(attr, from.domain(attr)[v]));
    EXPECT_GE(out.back(), 0) << "attr " << attr;
  }
  return out;
}

// TrueDer's inputs, mapped from one encoding's domain positions to
// another's.
struct DerivationInput {
  std::vector<std::vector<int>> candidates;
  std::vector<int> known_true;

  DerivationInput MapTo(const VarMap& from, const VarMap& to) const {
    DerivationInput out;
    for (int a = 0; a < static_cast<int>(candidates.size()); ++a) {
      out.candidates.push_back(MapIndices(from, to, a, candidates[a]));
      out.known_true.push_back(
          known_true[a] < 0 ? -1 : MapIndices(from, to, a, {known_true[a]})[0]);
    }
    return out;
  }
};

// The rule lists must agree in order, origin and mapped values, and so
// must the compatibility graphs built from them (edges by rule position).
void ExpectSameDerivation(const Instantiation& a, const Instantiation& b,
                          const DerivationInput& in_a,
                          const std::string& context) {
  SCOPED_TRACE(context);
  const DerivationInput in_b = in_a.MapTo(a.varmap, b.varmap);
  const std::vector<DerivationRule> ra =
      TrueDer(a, in_a.candidates, in_a.known_true);
  const std::vector<DerivationRule> rb =
      TrueDer(b, in_b.candidates, in_b.known_true);
  ASSERT_EQ(ra.size(), rb.size());
  auto value = [](const Instantiation& inst, int attr, int v) {
    return inst.varmap.domain(attr)[v];
  };
  for (size_t i = 0; i < ra.size(); ++i) {
    SCOPED_TRACE("rule " + std::to_string(i));
    EXPECT_EQ(ra[i].origin, rb[i].origin);
    EXPECT_EQ(ra[i].source_index, rb[i].source_index);
    ASSERT_EQ(ra[i].rhs_attr, rb[i].rhs_attr);
    EXPECT_EQ(value(a, ra[i].rhs_attr, ra[i].rhs_value),
              value(b, rb[i].rhs_attr, rb[i].rhs_value));
    ASSERT_EQ(ra[i].lhs.size(), rb[i].lhs.size());
    for (size_t j = 0; j < ra[i].lhs.size(); ++j) {
      ASSERT_EQ(ra[i].lhs[j].first, rb[i].lhs[j].first);
      EXPECT_EQ(value(a, ra[i].lhs[j].first, ra[i].lhs[j].second),
                value(b, rb[i].lhs[j].first, rb[i].lhs[j].second));
    }
  }
  EXPECT_EQ(CompGraph(ra).ToString(), CompGraph(rb).ToString());
}

// Every candidate assumed and nothing known: the widest input TrueDer can
// get, so the most heads are indexed and every CFD rule is tried.
DerivationInput EverythingOpen(const VarMap& vm) {
  DerivationInput in;
  in.known_true.assign(vm.num_attrs(), -1);
  for (int a = 0; a < vm.num_attrs(); ++a) {
    std::vector<int>& cands = in.candidates.emplace_back();
    for (int v = 0; v < static_cast<int>(vm.domain(a).size()); ++v) {
      cands.push_back(v);
    }
  }
  return in;
}

// Answers one attribute per round with its true value, for up to five
// rounds, and after each extension compares TrueDer and CompGraph on
// the session's Ω(Se) with a fresh Build of the extended specification —
// on the round's deduced candidates and on everything open. Returns the
// most rounds answered on one entity.
int ExpectSessionDerivationMatchesFresh(const Dataset& ds, bool naive) {
  int most_answered = 0;
  for (size_t e = 0; e < ds.entities.size(); ++e) {
    ResolveOptions options;
    options.naive_deduce = naive;
    Specification spec = ds.MakeSpec(static_cast<int>(e));
    auto session = ResolutionSession::Create(spec, options);
    EXPECT_TRUE(session.ok());
    if (!session.ok()) return most_answered;
    const std::vector<Value>& truth = ds.entities[e].truth;
    std::vector<bool> answered(truth.size(), false);
    for (int round = 0; round <= 5; ++round) {
      const std::string context = ds.name + (naive ? " naive" : " fast") +
                                  " entity " + std::to_string(e) +
                                  " round " + std::to_string(round);
      if (!session->CheckValidity().valid) break;
      const DeducedOrders od = session->Deduce();
      const Instantiation& inst = session->instantiation();
      const DerivationInput deduced{CandidateValues(inst.varmap, od),
                                    ExtractTrueValueIndices(inst.varmap, od)};
      auto fresh = Instantiation::Build(spec);
      EXPECT_TRUE(fresh.ok());
      if (!fresh.ok()) return most_answered;
      ExpectSameDerivation(inst, *fresh, deduced, context);
      ExpectSameDerivation(inst, *fresh, EverythingOpen(inst.varmap),
                           context + " (everything open)");

      // A suggested attribute first; once Suggest has nothing left to ask
      // (Career settles in two rounds), any attribute not yet answered.
      const Suggestion sug =
          session->MakeSuggestion(deduced.candidates, deduced.known_true);
      std::vector<int> order = sug.attrs;
      for (int a = 0; a < static_cast<int>(truth.size()); ++a) {
        order.push_back(a);
      }
      int pick = -1;
      for (int a : order) {
        if (!truth[a].is_null() && !answered[a]) {
          pick = a;
          break;
        }
      }
      if (pick < 0) break;
      answered[pick] = true;
      auto delta = MakeAnswerDelta(spec, {{pick, truth[pick]}});
      EXPECT_TRUE(delta.ok());
      if (!delta.ok()) break;
      EXPECT_TRUE(session->ExtendWith(*delta).ok());
      auto extended = Extend(spec, *delta);
      EXPECT_TRUE(extended.ok());
      if (!extended.ok()) break;
      spec = *std::move(extended);
      most_answered = std::max(most_answered, round + 1);
    }
  }
  return most_answered;
}

class SessionDerivationTest : public ::testing::TestWithParam<bool> {};

TEST_P(SessionDerivationTest, PersonMatchesFreshBuild) {
  PersonOptions opts;
  opts.num_entities = 4;
  opts.min_tuples = 20;
  opts.max_tuples = 60;
  EXPECT_GE(ExpectSessionDerivationMatchesFresh(GeneratePerson(opts),
                                                GetParam()),
            3);
}

TEST_P(SessionDerivationTest, NbaMatchesFreshBuild) {
  NbaOptions opts;
  opts.num_entities = 8;
  opts.max_tuples = 40;
  EXPECT_GE(ExpectSessionDerivationMatchesFresh(GenerateNba(opts), GetParam()),
            3);
}

TEST_P(SessionDerivationTest, CareerMatchesFreshBuild) {
  CareerOptions opts;
  opts.num_entities = 6;
  opts.max_tuples = 40;
  EXPECT_GE(
      ExpectSessionDerivationMatchesFresh(GenerateCareer(opts), GetParam()), 3);
}

INSTANTIATE_TEST_SUITE_P(Pipelines, SessionDerivationTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Naive" : "Fast";
                         });

TEST(TrueDerHeadOrderTest, AppendedConstraintThatRanksFirstWinsItsHead) {
  // ϕ0 and ϕ1 both conclude A, from B and from C. The first tuples ground
  // only ϕ1 (they agree on B) with head (a1 ≺ a2); the appended tuple
  // grounds ϕ0 with the same head, after it in Ω(Se) but first in `seq`
  // order. TrueDer takes the first compatible constraint of a head in seq
  // order — as on a fresh grounding — so the rule for a2 rests on B.
  Schema schema = Schema::Make({"A", "B", "C"}).value();
  EntityInstance e(schema, "resort");
  ASSERT_TRUE(e.Add(Tuple({Value::Str("a1"), Value::Str("b1"),
                           Value::Str("c1")}))
                  .ok());
  ASSERT_TRUE(e.Add(Tuple({Value::Str("a2"), Value::Str("b1"),
                           Value::Str("c2")}))
                  .ok());
  Specification se;
  se.temporal = TemporalInstance(std::move(e));
  std::vector<CurrencyConstraint> sigma;
  for (const char* text : {"prec(B) -> A", "prec(C) -> A"}) {
    auto phi = ParseCurrencyConstraint(schema, text);
    ASSERT_TRUE(phi.ok()) << text;
    sigma.push_back(*std::move(phi));
  }
  ASSERT_TRUE(se.SetRules(std::move(sigma), {}).ok());
  auto session = ResolutionSession::Create(se);
  ASSERT_TRUE(session.ok());
  PartialTemporalOrder delta;
  delta.new_tuples.push_back(
      Tuple({Value::Str("a2"), Value::Str("b2"), Value::Str("c2")}));
  ASSERT_TRUE(session->ExtendWith(delta).ok());

  const Instantiation& inst = session->instantiation();
  const VarMap& vm = inst.varmap;
  const int a1 = vm.ValueIndex(0, Value::Str("a1"));
  const int a2 = vm.ValueIndex(0, Value::Str("a2"));
  std::vector<const GroundConstraint*> bucket;  // head (a1 ≺ a2), Ω order
  for (const GroundConstraint& gc : inst.constraints) {
    if (gc.source == GroundSource::kCurrencyConstraint &&
        gc.head == OrderAtom{0, a1, a2}) {
      bucket.push_back(&gc);
    }
  }
  ASSERT_EQ(bucket.size(), 2u);
  EXPECT_EQ(bucket[0]->source_index, 1);  // ϕ1, grounded first
  EXPECT_EQ(bucket[1]->source_index, 0);  // ϕ0, appended
  EXPECT_LT(bucket[1]->seq, bucket[0]->seq);

  const DeducedOrders od = session->Deduce();
  const DerivationInput in{CandidateValues(vm, od),
                           ExtractTrueValueIndices(vm, od)};
  const std::vector<DerivationRule> rules =
      TrueDer(inst, in.candidates, in.known_true);
  const int b2 = vm.ValueIndex(1, Value::Str("b2"));
  const auto rule_for_a2 =
      std::find_if(rules.begin(), rules.end(), [&](const DerivationRule& r) {
        return r.rhs_attr == 0 && r.rhs_value == a2;
      });
  ASSERT_NE(rule_for_a2, rules.end());
  EXPECT_EQ(rule_for_a2->lhs, (std::vector<std::pair<int, int>>{{1, b2}}));

  auto extended = Extend(se, delta);
  ASSERT_TRUE(extended.ok());
  auto fresh = Instantiation::Build(*extended);
  ASSERT_TRUE(fresh.ok());
  ExpectSameDerivation(inst, *fresh, in, "re-sorted bucket");
}

}  // namespace
}  // namespace ccr
