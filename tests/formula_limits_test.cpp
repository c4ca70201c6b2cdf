// The formula size limits (kMaxOrderVars, kMaxTuples, kMaxAttrs in
// src/encode/varmap.h) seen from the daemon: an OPEN whose entity is past
// them gets an error reply, the manager keeps serving, and the rejection
// allocates nothing proportional to d². This binary replaces the global
// operator new to count the bytes a request allocates, so it runs apart
// from the other service tests.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "src/data/person_generator.h"
#include "src/encode/varmap.h"
#include "src/service/session_manager.h"
#include "src/service/snapshot.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_allocated{0};

}  // namespace

// GCC reads free() on operator new's memory as a mismatch; here operator
// new is malloc.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocated.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ccr {
namespace service {
namespace {

TEST(FormulaLimitsTest, AnOverLimitOpenIsRefusedWithoutAllocatingTheFormula) {
  // One attribute of 2,049 values: 2,049² order variables, past
  // kMaxOrderVars = 2,048². Loaded, the session would hold about 205
  // bytes per order variable, some 860 MB.
  constexpr int kValues = 2049;
  ASSERT_GT(int64_t{kValues} * kValues, kMaxOrderVars);
  EntityInstance e(Schema::Make({"v"}).value(), "over");
  for (int i = 0; i < kValues; ++i) {
    ASSERT_TRUE(e.Add(Tuple({Value::Int(i)})).ok());
  }
  SessionSnapshot over;
  over.spec.temporal = TemporalInstance(std::move(e));
  const std::string payload = SnapshotToJson(over, /*indent=*/0);

  SessionManager manager(ServiceOptions{});
  g_allocated = 0;
  g_counting = true;
  const ServiceReply refused = manager.Call(
      ServiceRequest{RequestType::kOpen, "over", payload, /*deadline_ms=*/0});
  g_counting = false;
  EXPECT_NE(refused.code, ErrorCode::kOk);
  EXPECT_NE(refused.payload.find("formula size limit"), std::string::npos)
      << refused.payload;
  EXPECT_EQ(manager.known_sessions(), 0);
  // Anything sized by d² takes at least d² bytes (4 MiB, and 4 bytes per
  // entry in any table of variables); parsing and refusing 2,049 tuples
  // takes about 1 MiB.
  EXPECT_LT(g_allocated.load(), int64_t{kValues} * kValues)
      << "bytes allocated by the refused OPEN";

  // The manager goes on serving.
  PersonOptions opts;
  opts.num_entities = 1;
  opts.min_tuples = 6;
  opts.max_tuples = 10;
  opts.seed = 7;
  const Dataset ds = GeneratePerson(opts);
  SessionSnapshot ok;
  ok.spec = ds.MakeSpec(0);
  const ServiceReply opened = manager.Call(ServiceRequest{
      RequestType::kOpen, "ok", SnapshotToJson(ok, /*indent=*/0), 0});
  ASSERT_EQ(opened.code, ErrorCode::kOk) << opened.payload;
  const ServiceReply round =
      manager.Call(ServiceRequest{RequestType::kRound, "ok", "", 0});
  ASSERT_EQ(round.code, ErrorCode::kOk) << round.payload;
  EXPECT_NE(round.payload.find("\"valid\": true"), std::string::npos);
}

}  // namespace
}  // namespace service
}  // namespace ccr
