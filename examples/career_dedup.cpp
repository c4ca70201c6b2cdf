// CAREER publication cleanup: find each author's current affiliation and
// address from their publication records (the paper's CAREER scenario).
//
// Shows how citation-derived currency constraints order affiliations and
// how the affiliation → (city, country) CFD repairs misspelled cities.

#include <cstdio>

#include "src/ccr.h"

int main() {
  using namespace ccr;

  CareerOptions options;
  options.p_city_noise = 0.15;  // visible CFD repairs
  const Dataset ds = GenerateCareer(options);
  std::printf("CAREER-like corpus: %zu authors, |Sigma|=%zu (citation "
              "pairs), |Gamma|=%zu (affiliation patterns)\n",
              ds.entities.size(), ds.sigma().size(), ds.gamma().size());

  int automatic = 0, interactive = 0, unresolved = 0;
  for (size_t i = 0; i < ds.entities.size(); ++i) {
    auto no_user = Resolve(ds.MakeSpec(static_cast<int>(i)), nullptr);
    CCR_CHECK(no_user.ok());
    if (no_user->complete) {
      ++automatic;
      continue;
    }
    TruthOracle oracle(ds.entities[i].truth);
    auto with_user = Resolve(ds.MakeSpec(static_cast<int>(i)), &oracle);
    CCR_CHECK(with_user.ok());
    (with_user->complete ? interactive : unresolved) += 1;
  }
  std::printf("resolution: %d automatic, %d with interaction, %d "
              "unresolved of %zu authors\n",
              automatic, interactive, unresolved, ds.entities.size());

  // Walk one author in detail.
  const int idx = 0;
  const EntityCase& ec = ds.entities[idx];
  auto r = Resolve(ds.MakeSpec(idx), nullptr);
  CCR_CHECK(r.ok());
  std::printf("\n%s: %d publications\n", ec.instance.entity_id().c_str(),
              ec.instance.size());
  for (int a = 0; a < ds.schema.size(); ++a) {
    std::printf("  %-12s = %-20s (truth: %s)\n",
                ds.schema.name(a).c_str(),
                r->resolved[a] ? r->true_values[a].ToString().c_str() : "?",
                ec.truth[a].ToString().c_str());
  }
  return 0;
}
