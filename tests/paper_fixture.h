// Shared test fixture: the paper's running example (Figs. 1-3).
//
// Entity instances E1 (Edith Shain) and E2 (George Mendonça), the currency
// constraints ϕ1–ϕ8 and the constant CFDs ψ1/ψ2 of Fig. 3.

#ifndef CCR_TESTS_PAPER_FIXTURE_H_
#define CCR_TESTS_PAPER_FIXTURE_H_

#include <gtest/gtest.h>

#include "src/constraints/parser.h"
#include "src/constraints/specification.h"

namespace ccr::testing {

inline Schema PaperSchema() {
  return Schema::Make({"name", "status", "job", "kids", "city", "AC", "zip",
                       "county"})
      .value();
}

// E1: Edith Shain (r1, r2, r3 of Fig. 2).
inline EntityInstance MakeEdith() {
  EntityInstance e(PaperSchema(), "Edith Shain");
  EXPECT_TRUE(e.Add(Tuple({Value::Str("Edith Shain"), Value::Str("working"),
                           Value::Str("nurse"), Value::Int(0),
                           Value::Str("NY"), Value::Int(212),
                           Value::Str("10036"), Value::Str("Manhattan")}))
                  .ok());
  EXPECT_TRUE(e.Add(Tuple({Value::Str("Edith Shain"), Value::Str("retired"),
                           Value::Str("n/a"), Value::Int(3),
                           Value::Str("SFC"), Value::Int(415),
                           Value::Str("94924"), Value::Str("Dogtown")}))
                  .ok());
  EXPECT_TRUE(e.Add(Tuple({Value::Str("Edith Shain"),
                           Value::Str("deceased"), Value::Str("n/a"),
                           Value::Null(), Value::Str("LA"), Value::Int(213),
                           Value::Str("90058"), Value::Str("Vermont")}))
                  .ok());
  return e;
}

// E2: George Mendonça (r4, r5, r6 of Fig. 2).
inline EntityInstance MakeGeorge() {
  EntityInstance e(PaperSchema(), "George Mendonca");
  EXPECT_TRUE(e.Add(Tuple({Value::Str("George Mendonca"),
                           Value::Str("working"), Value::Str("sailor"),
                           Value::Int(0), Value::Str("Newport"),
                           Value::Int(401), Value::Str("02840"),
                           Value::Str("Rhode Island")}))
                  .ok());
  EXPECT_TRUE(e.Add(Tuple({Value::Str("George Mendonca"),
                           Value::Str("retired"), Value::Str("veteran"),
                           Value::Int(2), Value::Str("NY"), Value::Int(212),
                           Value::Str("12404"), Value::Str("Accord")}))
                  .ok());
  EXPECT_TRUE(e.Add(Tuple({Value::Str("George Mendonca"),
                           Value::Str("unemployed"), Value::Str("n/a"),
                           Value::Int(2), Value::Str("Chicago"),
                           Value::Int(312), Value::Str("60653"),
                           Value::Str("Bronzeville")}))
                  .ok());
  return e;
}

// ϕ1–ϕ8 of Fig. 3. ϕ5 in the paper maps status to job; jobs in E1/E2 also
// change from sailor to veteran (ϕ3), which we include verbatim.
inline std::vector<CurrencyConstraint> PaperSigma() {
  const Schema schema = PaperSchema();
  const char* texts[] = {
      // ϕ1, ϕ2: status transitions
      "t1[status] = 'working' & t2[status] = 'retired' -> status",
      "t1[status] = 'retired' & t2[status] = 'deceased' -> status",
      // ϕ3: job transition
      "t1[job] = 'sailor' & t2[job] = 'veteran' -> job",
      // ϕ4: monotone kids
      "t1[kids] < t2[kids] -> kids",
      // ϕ5–ϕ7: propagation from status
      "prec(status) -> job",
      "prec(status) -> AC",
      "prec(status) -> zip",
      // ϕ8: city & zip determine county currency
      "prec(city) & prec(zip) -> county",
  };
  std::vector<CurrencyConstraint> sigma;
  for (const char* t : texts) {
    auto phi = ParseCurrencyConstraint(schema, t);
    EXPECT_TRUE(phi.ok()) << t;
    sigma.push_back(std::move(phi).value());
  }
  return sigma;
}

// ψ1, ψ2 of Fig. 3.
inline std::vector<ConstantCfd> PaperGamma() {
  const Schema schema = PaperSchema();
  std::vector<ConstantCfd> gamma;
  for (const char* t :
       {"AC = 213 -> city = 'LA'", "AC = 212 -> city = 'NY'"}) {
    auto psi = ParseCfd(schema, t);
    EXPECT_TRUE(psi.ok()) << t;
    gamma.push_back(std::move(psi).value());
  }
  return gamma;
}

inline Specification EdithSpec() {
  Specification se;
  se.temporal = TemporalInstance(MakeEdith());
  CCR_CHECK(se.SetRules(PaperSigma(), PaperGamma()).ok());
  return se;
}

inline Specification GeorgeSpec() {
  Specification se;
  se.temporal = TemporalInstance(MakeGeorge());
  CCR_CHECK(se.SetRules(PaperSigma(), PaperGamma()).ok());
  return se;
}

}  // namespace ccr::testing

#endif  // CCR_TESTS_PAPER_FIXTURE_H_
