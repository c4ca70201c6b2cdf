// Round memory (src/core/session.h): a session's rounds work in buffers
// its SessionScratch keeps (RoundScratch), so a warm scratch serves a
// round without one heap allocation, and what a buffer held for an
// earlier round or entity never reaches a later one.
//
// This binary replaces the global operator new and delete (every
// variant) with versions that count allocations while the counter is
// armed. Only RunRound is armed: grounding, extension and the oracle
// allocate as they always have.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/core/resolver.h"
#include "src/core/session.h"
#include "src/data/career_generator.h"
#include "src/data/dataset.h"
#include "src/data/nba_generator.h"
#include "src/data/person_generator.h"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<int64_t> g_allocs{0};

void* CountedAlloc(std::size_t size, std::size_t align) {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(size);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(align, (size + align - 1) / align * align);
}

void* CountedNew(std::size_t size, std::size_t align) {
  void* p = CountedAlloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

constexpr std::size_t kDefaultAlign = alignof(std::max_align_t);

}  // namespace

void* operator new(std::size_t n) { return CountedNew(n, kDefaultAlign); }
void* operator new[](std::size_t n) { return CountedNew(n, kDefaultAlign); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n, kDefaultAlign);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n, kDefaultAlign);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedNew(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedNew(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ccr {
namespace {

constexpr int kEntities = 20;
constexpr int kMaxRounds = 8;

Dataset Corpus(const std::string& kind) {
  if (kind == "nba") {
    NbaOptions o;
    o.num_entities = kEntities;
    o.seed = 7;
    return GenerateNba(o);
  }
  if (kind == "career") {
    CareerOptions o;
    o.num_entities = kEntities;
    o.seed = 7;
    return GenerateCareer(o);
  }
  PersonOptions o;  // small tuples: 4 to 40 per entity
  o.num_entities = kEntities;
  o.seed = 7;
  return GeneratePerson(o);
}

ResolveOptions Pipeline(bool naive, SessionScratch* scratch) {
  ResolveOptions options;
  options.naive_deduce = naive;
  options.scratch = scratch;
  return options;
}

// Runs entity `e` the way Resolve does — one answer per round — and hands
// every round to `visit` while it is still valid.
template <class Visit>
void DriveEntity(const Dataset& ds, int e, const ResolveOptions& options,
                 Visit visit) {
  Result<ResolutionSession> s =
      ResolutionSession::Create(ds.MakeSpec(e), options);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  TruthOracle oracle(ds.entities[e].truth, /*answers_per_round=*/1);
  for (int round = 0; round <= kMaxRounds; ++round) {
    const bool want_suggestion = round < kMaxRounds;
    g_armed.store(true, std::memory_order_relaxed);
    const SessionRound& r = s->RunRound(want_suggestion);
    g_armed.store(false, std::memory_order_relaxed);
    visit(r, round);
    if (!r.valid || r.complete || !r.suggestion.has_value()) return;
    const std::vector<UserOracle::Answer> answers =
        oracle.Provide(s->spec(), *r.suggestion, s->instantiation().varmap);
    if (answers.empty()) return;
    Result<PartialTemporalOrder> delta = MakeAnswerDelta(s->spec(), answers);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    ASSERT_TRUE(s->ExtendWith(*delta).ok());
  }
}

struct PassCount {
  int64_t allocs = 0;
  int rounds = 0;
  int suggestions = 0;
};

// Every entity of `ds` through `scratch`; the allocations RunRound made.
PassCount AllocationsInRounds(const Dataset& ds, bool naive,
                              SessionScratch* scratch) {
  PassCount count;
  const int64_t before = g_allocs.load();
  for (int e = 0; e < static_cast<int>(ds.entities.size()); ++e) {
    DriveEntity(ds, e, Pipeline(naive, scratch),
                [&](const SessionRound& r, int) {
                  ++count.rounds;
                  count.suggestions += r.suggestion.has_value();
                });
  }
  count.allocs = g_allocs.load() - before;
  return count;
}

class RoundAllocTest
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

// The first pass grows the scratch's buffers and so allocates (which also
// shows the counter is live); the second pass replays the same rounds on
// them and allocates nothing.
TEST_P(RoundAllocTest, WarmScratchRoundsAllocateNothing) {
  const auto& [kind, naive] = GetParam();
  const Dataset ds = Corpus(kind);
  SessionScratch scratch;
  const PassCount cold = AllocationsInRounds(ds, naive, &scratch);
  const PassCount warm = AllocationsInRounds(ds, naive, &scratch);
  EXPECT_GT(cold.allocs, 0);
  EXPECT_EQ(warm.allocs, 0) << warm.rounds << " rounds";
  EXPECT_EQ(cold.rounds, warm.rounds);
  EXPECT_GT(warm.suggestions, 0);
  std::printf("%s/%s: %d rounds (%d suggesting): %lld allocations cold, "
              "%lld warm\n",
              kind.c_str(), naive ? "naive" : "fast", warm.rounds,
              warm.suggestions, static_cast<long long>(cold.allocs),
              static_cast<long long>(warm.allocs));
}

INSTANTIATE_TEST_SUITE_P(
    Corpora, RoundAllocTest,
    ::testing::Combine(::testing::Values("person", "nba", "career"),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) ? "Naive" : "Fast");
    });

// Every field of a SessionRound, as plain values.
struct RoundRecord {
  bool valid = false;
  bool complete = false;
  std::vector<int> od_universes;
  std::vector<std::vector<std::pair<int, int>>> od_pairs;
  std::vector<int> true_idx;
  std::vector<std::vector<int>> candidates;
  bool has_suggestion = false;
  std::vector<int> attrs;
  std::vector<std::vector<int>> suggested_candidates;
  std::vector<int> derivable_attrs;
  // (lhs, rhs_attr, rhs_value, origin, source_index) per clique rule.
  std::vector<std::tuple<std::vector<std::pair<int, int>>, int, int, int, int>>
      clique_rules;
  int resolved_attrs = 0;

  bool operator==(const RoundRecord&) const = default;
};

RoundRecord Record(const SessionRound& r) {
  RoundRecord rec;
  rec.valid = r.valid;
  rec.complete = r.complete;
  for (const PartialOrder& po : r.od.per_attr) {
    rec.od_universes.push_back(po.num_elements());
    rec.od_pairs.push_back(po.Pairs());
  }
  rec.true_idx = r.true_idx;
  rec.candidates = r.candidates;
  rec.has_suggestion = r.suggestion.has_value();
  if (rec.has_suggestion) {
    const Suggestion& s = *r.suggestion;
    rec.attrs = s.attrs;
    rec.suggested_candidates = s.candidates;
    rec.derivable_attrs = s.derivable_attrs;
    for (const DerivationRule& rule : s.clique_rules) {
      rec.clique_rules.emplace_back(rule.lhs, rule.rhs_attr, rule.rhs_value,
                                    static_cast<int>(rule.origin),
                                    rule.source_index);
    }
  }
  rec.resolved_attrs = r.trace.resolved_attrs;
  return rec;
}

// Every round of entity `e`, recorded.
std::vector<RoundRecord> RecordEntity(const Dataset& ds, int e, bool naive,
                                      SessionScratch* scratch) {
  std::vector<RoundRecord> rounds;
  DriveEntity(ds, e, Pipeline(naive, scratch),
              [&](const SessionRound& r, int) { rounds.push_back(Record(r)); });
  return rounds;
}

class PooledRoundTest
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

// One scratch shared by every entity, forwards and then backwards (so
// entities of every size follow larger and smaller ones), reproduces every
// field of every round of a session that owns its scratch.
TEST_P(PooledRoundTest, SharedScratchRoundsMatchOwnedScratchRounds) {
  const auto& [kind, naive] = GetParam();
  const Dataset ds = Corpus(kind);
  const int n = static_cast<int>(ds.entities.size());
  std::vector<std::vector<RoundRecord>> owned(n);
  int suggestions = 0;
  for (int e = 0; e < n; ++e) {
    owned[e] = RecordEntity(ds, e, naive, /*scratch=*/nullptr);
    for (const RoundRecord& r : owned[e]) suggestions += r.has_suggestion;
  }
  EXPECT_GT(suggestions, 0);
  SessionScratch shared;
  for (int k = 0; k < 2 * n; ++k) {
    const int e = k < n ? k : 2 * n - 1 - k;
    const std::vector<RoundRecord> rounds =
        RecordEntity(ds, e, naive, &shared);
    ASSERT_EQ(rounds.size(), owned[e].size()) << "entity " << e;
    for (size_t r = 0; r < rounds.size(); ++r) {
      EXPECT_TRUE(rounds[r] == owned[e][r])
          << "entity " << e << " round " << r
          << (k < n ? " (forwards)" : " (backwards)");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpora, PooledRoundTest,
    ::testing::Combine(::testing::Values("person", "nba", "career"),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) ? "Naive" : "Fast");
    });

}  // namespace
}  // namespace ccr
