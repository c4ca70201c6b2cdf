// Golden digest of the grounding itself.
//
// golden_result_test pins the pooled accuracy counts of an experiment,
// which a change to rules or grounding can leave byte-identical. This
// suite pins what the encoder produces: after ResolutionSession::Create
// and after each of three ExtendWith rounds it hashes, in order, every
// ground constraint of Ω(Se) (source, source index, body atoms, head,
// guard, seq), every CNF clause and order-block size, the guard
// assumptions, and the VarMap's domains and applicable CFDs. The session
// feeds its solver without a CNF, so the CNF hashed is the one the
// encoding pass writes for the same calls: BuildCnfInto on the session's
// grounding after Create, then ExtendCnf with each round's
// InstantiationDelta, taken from a second grounding of the entity that
// is extended by the same deltas. Each corpus
// runs with fresh sessions and through one recycled SessionScratch. The rounds
// are driven as Resolve drives them: deduce, suggest, and let a truth
// oracle answer two suggested attributes. A mismatch means the encoding
// moved — a rule, a variable id or an emission order changed — even if
// every verdict stayed the same. A change that only makes grounding
// faster must leave every digest as recorded.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <span>
#include <string>

#include "src/core/session.h"
#include "src/data/career_generator.h"
#include "src/data/nba_generator.h"
#include "src/data/person_generator.h"
#include "src/encode/cnf_builder.h"

namespace ccr {
namespace {

class Fnv {
 public:
  void Add(uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(const std::string& s) {
    Add(s.size());
    for (const unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(const OrderAtom& a) {
    Add(static_cast<uint64_t>(a.attr));
    Add(static_cast<uint64_t>(a.less));
    Add(static_cast<uint64_t>(a.more));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::span<const OrderAtom> Body(const Instantiation& inst,
                                const GroundConstraint& gc) {
  return inst.body(gc);
}

void HashSession(const ResolutionSession& s, const sat::Cnf& cnf, Fnv* h) {
  const Instantiation& inst = s.instantiation();
  h->Add(inst.constraints.size());
  for (const GroundConstraint& gc : inst.constraints) {
    h->Add(static_cast<uint64_t>(gc.source));
    h->Add(static_cast<uint64_t>(gc.source_index));
    const std::span<const OrderAtom> body = Body(inst, gc);
    h->Add(body.size());
    for (const OrderAtom& a : body) h->Add(a);
    h->Add(static_cast<uint64_t>(gc.head_kind));
    h->Add(gc.head);
    h->Add(static_cast<uint64_t>(gc.guard));
    h->Add(gc.seq);
  }
  h->Add(static_cast<uint64_t>(cnf.num_vars()));
  h->Add(static_cast<uint64_t>(cnf.num_clauses()));
  for (int c = 0; c < cnf.num_clauses(); ++c) {
    const std::span<const sat::Lit> clause = cnf.clause(c);
    h->Add(clause.size());
    for (const sat::Lit l : clause) h->Add(static_cast<uint64_t>(l.index()));
  }
  h->Add(static_cast<uint64_t>(cnf.num_order_blocks()));
  for (int b = 0; b < cnf.num_order_blocks(); ++b) {
    h->Add(static_cast<uint64_t>(cnf.order_block(b).size));
  }
  h->Add(inst.guard_assumptions().size());
  for (const sat::Lit l : inst.guard_assumptions()) {
    h->Add(static_cast<uint64_t>(l.index()));
  }
  const VarMap& vm = inst.varmap;
  h->Add(static_cast<uint64_t>(vm.num_vars()));
  for (int a = 0; a < vm.num_attrs(); ++a) {
    h->Add(vm.domain(a).size());
    for (const Value& v : vm.domain(a)) {
      h->Add(static_cast<uint64_t>(v.type()));
      h->Add(v.ToString());
    }
  }
  h->Add(vm.applicable_cfds().size());
  for (const int gi : vm.applicable_cfds()) h->Add(static_cast<uint64_t>(gi));
}

constexpr int kEntities = 6;
constexpr int kRounds = 3;

Dataset MakeCorpus(const std::string& name) {
  if (name == "person-batch") {  // perfbench's person-batch entity sizes
    PersonOptions o;
    o.num_entities = 3;
    o.min_tuples = 250;
    o.max_tuples = 300;
    return GeneratePerson(o);
  }
  if (name == "nba") {
    NbaOptions o;
    o.num_entities = kEntities;
    return GenerateNba(o);
  }
  if (name == "career") {
    CareerOptions o;
    o.num_entities = kEntities;
    return GenerateCareer(o);
  }
  PersonOptions o;
  o.num_entities = kEntities;
  return GeneratePerson(o);
}

// How the sessions get their solver, CNF and grounding buffers: each
// session its own, or one SessionScratch recycled across the corpus, in
// entity order or after it has held the corpus's largest entity.
enum class Lane { kFresh, kPooled, kPooledAfterLargest };

// Creates entity `e`'s session and drives its rounds as Resolve would,
// hashing the grounding after Create and after each ExtendWith into `h`
// (when not null).
bool DriveEntity(const Dataset& ds, int e, const ResolveOptions& options,
                 Fnv* h) {
  const Specification spec = ds.MakeSpec(e);
  Result<ResolutionSession> session =
      ResolutionSession::Create(spec, options);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  if (!session.ok()) return false;
  InstantiationOptions guarded;  // the session's grounding options
  guarded.guard_cfds = true;
  Result<Instantiation> twin = Instantiation::Build(spec, guarded);
  EXPECT_TRUE(twin.ok()) << twin.status().ToString();
  if (!twin.ok()) return false;
  sat::Cnf cnf;
  BuildCnfInto(session->instantiation(), &cnf);
  if (h != nullptr) HashSession(*session, cnf, h);
  TruthOracle oracle(ds.entities[e].truth, /*answers_per_round=*/2);
  for (int round = 0; round < kRounds; ++round) {
    (void)session->CheckValidity();
    const DeducedOrders od = session->Deduce();
    const VarMap& vm = session->instantiation().varmap;
    const std::vector<int> true_idx = ExtractTrueValueIndices(vm, od);
    const Suggestion sug =
        session->MakeSuggestion(CandidateValues(vm, od), true_idx);
    const std::vector<UserOracle::Answer> answers =
        oracle.Provide(session->spec(), sug, vm);
    Result<PartialTemporalOrder> delta =
        MakeAnswerDelta(session->spec(), answers);
    EXPECT_TRUE(delta.ok()) << delta.status().ToString();
    if (!delta.ok()) return false;
    const Status st = session->ExtendWith(*delta);
    EXPECT_TRUE(st.ok()) << st.ToString();
    if (!st.ok()) return false;
    Result<InstantiationDelta> grown =
        twin->ExtendWith(session->spec(), *delta, guarded);
    EXPECT_TRUE(grown.ok()) << grown.status().ToString();
    if (!grown.ok()) return false;
    ExtendCnf(session->instantiation(), *grown, &cnf);
    if (h != nullptr) HashSession(*session, cnf, h);
  }
  return true;
}

// The digest of every entity's grounding after Create and after each
// ExtendWith round.
uint64_t GroundingDigest(const std::string& corpus, bool naive, Lane lane) {
  const Dataset ds = MakeCorpus(corpus);
  const int n = static_cast<int>(ds.entities.size());
  ResolveOptions options;
  options.naive_deduce = naive;
  SessionScratch scratch;
  if (lane != Lane::kFresh) options.scratch = &scratch;
  if (lane == Lane::kPooledAfterLargest) {
    int largest = 0;
    for (int e = 1; e < n; ++e) {
      if (ds.entities[e].instance.size() >
          ds.entities[largest].instance.size()) {
        largest = e;
      }
    }
    if (!DriveEntity(ds, largest, options, nullptr)) return 0;
  }
  Fnv h;
  for (int e = 0; e < n; ++e) {
    if (!DriveEntity(ds, e, options, &h)) return 0;
  }
  return h.value();
}

struct DigestCase {
  const char* corpus;
  bool naive;
  uint64_t digest;
};

void PrintTo(const DigestCase& c, std::ostream* os) {
  *os << c.corpus << (c.naive ? "/naive" : "/fast");
}

class GroundingDigestTest : public ::testing::TestWithParam<DigestCase> {};

void ExpectDigest(const DigestCase& c, Lane lane, const char* what) {
  const uint64_t got = GroundingDigest(c.corpus, c.naive, lane);
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016" PRIx64, got);
  EXPECT_EQ(got, c.digest) << c.corpus << (c.naive ? "/naive" : "/fast")
                           << " grounding digest " << what << " is " << hex;
}

TEST_P(GroundingDigestTest, MatchesRecording) {
  ExpectDigest(GetParam(), Lane::kFresh, "with fresh sessions");
}

// A recycled scratch must ground exactly as fresh sessions do, whatever
// it held before: the recorded digests hold for both pooled lanes.
TEST_P(GroundingDigestTest, PooledScratchMatchesRecording) {
  ExpectDigest(GetParam(), Lane::kPooled, "on one scratch");
  ExpectDigest(GetParam(), Lane::kPooledAfterLargest,
               "on one scratch after the largest entity");
}

INSTANTIATE_TEST_SUITE_P(
    Corpora, GroundingDigestTest,
    ::testing::Values(DigestCase{"person", false, 0x419b266ec73591d6ULL},
                      DigestCase{"person", true, 0x419b266ec73591d6ULL},
                      DigestCase{"person-batch", false, 0x0d86ccd4bada39d3ULL},
                      DigestCase{"person-batch", true, 0x0d86ccd4bada39d3ULL},
                      DigestCase{"nba", false, 0x72475cb2d73ff912ULL},
                      DigestCase{"nba", true, 0x72475cb2d73ff912ULL},
                      DigestCase{"career", false, 0xef3fc13e9fa37d46ULL},
                      DigestCase{"career", true, 0xef3fc13e9fa37d46ULL}),
    [](const ::testing::TestParamInfo<DigestCase>& info) {
      std::string name = info.param.corpus;
      std::erase(name, '-');
      return name + (info.param.naive ? "Naive" : "Fast");
    });

}  // namespace
}  // namespace ccr
