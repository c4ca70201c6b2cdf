// Quickstart: the paper's running example (Figs. 1-3).
//
// Builds the entity instances E1 (Edith Shain) and E2 (George Mendonça),
// the currency constraints ϕ1–ϕ8 and constant CFDs ψ1/ψ2 of Fig. 3, then:
//   1. resolves Edith fully automatically (Example 2);
//   2. shows George's partial resolution (Example 3), the suggestion the
//      framework computes (Example 12), and the one-round interactive
//      resolution (Examples 6/9).

#include <cstdio>

#include "src/ccr.h"

namespace {

using namespace ccr;

Schema PaperSchema() {
  return Schema::Make({"name", "status", "job", "kids", "city", "AC", "zip",
                       "county"})
      .value();
}

Specification MakeSpec(EntityInstance instance) {
  const Schema schema = PaperSchema();
  Specification se;
  se.temporal = TemporalInstance(std::move(instance));
  // Fig. 3, stated in the textual constraint DSL.
  std::vector<CurrencyConstraint> sigma;
  std::vector<ConstantCfd> gamma;
  for (const char* text : {
           "t1[status] = 'working' & t2[status] = 'retired' -> status",
           "t1[status] = 'retired' & t2[status] = 'deceased' -> status",
           "t1[job] = 'sailor' & t2[job] = 'veteran' -> job",
           "t1[kids] < t2[kids] -> kids",
           "prec(status) -> job",
           "prec(status) -> AC",
           "prec(status) -> zip",
           "prec(city) & prec(zip) -> county",
       }) {
    sigma.push_back(ParseCurrencyConstraint(schema, text).value());
  }
  for (const char* text :
       {"AC = 213 -> city = 'LA'", "AC = 212 -> city = 'NY'"}) {
    gamma.push_back(ParseCfd(schema, text).value());
  }
  CCR_CHECK(se.SetRules(std::move(sigma), std::move(gamma)).ok());
  return se;
}

EntityInstance MakeEdith() {
  EntityInstance e(PaperSchema(), "Edith Shain");
  CCR_CHECK(e.Add(Tuple({Value::Str("Edith Shain"), Value::Str("working"),
                         Value::Str("nurse"), Value::Int(0),
                         Value::Str("NY"), Value::Int(212),
                         Value::Str("10036"), Value::Str("Manhattan")}))
                .ok());
  CCR_CHECK(e.Add(Tuple({Value::Str("Edith Shain"), Value::Str("retired"),
                         Value::Str("n/a"), Value::Int(3),
                         Value::Str("SFC"), Value::Int(415),
                         Value::Str("94924"), Value::Str("Dogtown")}))
                .ok());
  CCR_CHECK(e.Add(Tuple({Value::Str("Edith Shain"), Value::Str("deceased"),
                         Value::Str("n/a"), Value::Null(), Value::Str("LA"),
                         Value::Int(213), Value::Str("90058"),
                         Value::Str("Vermont")}))
                .ok());
  return e;
}

EntityInstance MakeGeorge() {
  EntityInstance e(PaperSchema(), "George Mendonca");
  CCR_CHECK(e.Add(Tuple({Value::Str("George Mendonca"),
                         Value::Str("working"), Value::Str("sailor"),
                         Value::Int(0), Value::Str("Newport"),
                         Value::Int(401), Value::Str("02840"),
                         Value::Str("Rhode Island")}))
                .ok());
  CCR_CHECK(e.Add(Tuple({Value::Str("George Mendonca"),
                         Value::Str("retired"), Value::Str("veteran"),
                         Value::Int(2), Value::Str("NY"), Value::Int(212),
                         Value::Str("12404"), Value::Str("Accord")}))
                .ok());
  CCR_CHECK(e.Add(Tuple({Value::Str("George Mendonca"),
                         Value::Str("unemployed"), Value::Str("n/a"),
                         Value::Int(2), Value::Str("Chicago"),
                         Value::Int(312), Value::Str("60653"),
                         Value::Str("Bronzeville")}))
                .ok());
  return e;
}

void PrintResolution(const char* title, const ResolveResult& r,
                     const Schema& schema) {
  std::printf("%s\n", title);
  std::printf("  valid=%s complete=%s rounds=%d\n",
              r.valid ? "yes" : "no", r.complete ? "yes" : "no",
              r.rounds_used);
  for (int a = 0; a < schema.size(); ++a) {
    std::printf("  %-8s = %-14s%s\n", schema.name(a).c_str(),
                r.resolved[a] ? r.true_values[a].ToString().c_str() : "?",
                r.user_provided[a] ? "  (user)" : "");
  }
}

}  // namespace

int main() {
  const Schema schema = PaperSchema();

  // --- Edith: fully automatic (Example 2) -------------------------------
  auto edith = Resolve(MakeSpec(MakeEdith()), nullptr);
  CCR_CHECK(edith.ok());
  PrintResolution("Edith Shain (automatic resolution, Example 2):", *edith,
                  schema);

  // --- George: partial, then suggestion, then interactive (Ex. 3/12/9) --
  const Specification se = MakeSpec(MakeGeorge());
  auto partial = Resolve(se, nullptr);
  CCR_CHECK(partial.ok());
  PrintResolution("\nGeorge Mendonca (automatic only, Example 3):",
                  *partial, schema);

  // Show the suggestion the framework would make (Example 12).
  auto inst = Instantiation::Build(se);
  CCR_CHECK(inst.ok());
  const sat::Cnf phi = BuildCnf(*inst);
  const DeducedOrders od = DeduceOrder(*inst, phi);
  const auto known = ExtractTrueValueIndices(inst->varmap, od);
  const auto candidates = CandidateValues(inst->varmap, od);
  const Suggestion sug = Suggest(*inst, phi, candidates, known);
  std::printf("\nSuggestion (Example 12): %s\n",
              sug.ToString(inst->varmap, schema).c_str());

  // Interactive run: the oracle validates status = retired.
  std::vector<Value> truth(schema.size(), Value::Null());
  truth[schema.IndexOf("status")] = Value::Str("retired");
  TruthOracle oracle(truth);
  auto full = Resolve(se, &oracle);
  CCR_CHECK(full.ok());
  PrintResolution(
      "\nGeorge Mendonca (after validating status, Examples 6/9):", *full,
      schema);
  return 0;
}
