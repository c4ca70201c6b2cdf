// Tests for session snapshots (src/service/snapshot.h) and the replay
// runtime (src/service/session_runtime.h): tagged values and full
// snapshots round-trip byte-identically, malformed documents are rejected
// with positioned errors, and — the gate the serving layer stands on — a
// session evicted to JSON and rehydrated by replay produces byte-identical
// round verdicts and a byte-identical ExperimentResult compared to the
// session that never left memory.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/json.h"
#include "src/core/resolver.h"
#include "src/core/session.h"
#include "src/data/person_generator.h"
#include "src/eval/metrics.h"
#include "src/eval/result_io.h"
#include "src/service/session_runtime.h"
#include "src/service/snapshot.h"

namespace ccr {
namespace service {
namespace {

Dataset SmallPersonCorpus(int entities = 4) {
  PersonOptions opts;
  opts.num_entities = entities;
  opts.min_tuples = 6;
  opts.max_tuples = 16;
  opts.seed = 7;
  return GeneratePerson(opts);
}

std::string ValueToJson(const Value& v) {
  json::Writer w(0);
  WriteValue(v, &w);
  return std::move(w).Take();
}

Result<Value> ValueFromJson(const std::string& text) {
  json::Reader rd(text, "value");
  Value out;
  CCR_RETURN_NOT_OK(ParseValue(&rd, &out));
  return out;
}

TEST(SnapshotValueTest, TaggedValuesRoundTrip) {
  const std::vector<Value> cases = {
      Value::Null(),
      Value::Int(0),
      Value::Int(-17),
      // Beyond 2^53: must survive without a double round trip.
      Value::Int((int64_t{1} << 60) + 3),
      Value::Real(0.1),
      Value::Real(-1e300),
      Value::Str(""),
      Value::Str("plain"),
      Value::Str("quote \" backslash \\ newline \n tab \t"),
      Value::Str(std::string("nul \0 byte", 10)),
      Value::Str("high bytes \xc3\xa9\xf0\x9f\x8e\x89"),
  };
  for (const Value& v : cases) {
    const std::string text = ValueToJson(v);
    auto back = ValueFromJson(text);
    ASSERT_TRUE(back.ok()) << text << ": " << back.status().ToString();
    EXPECT_EQ(v.type(), back.value().type()) << text;
    EXPECT_EQ(v, back.value()) << text;
    // Re-serialization is byte-identical (the writer is canonical).
    EXPECT_EQ(text, ValueToJson(back.value()));
  }
}

TEST(SnapshotValueTest, RejectsMalformedValues) {
  for (const char* bad : {
           "{}",                        // no tag
           "{\"i\": 1, \"d\": 2.0}",    // two tags
           "{\"x\": 1}",                // unknown tag
           "{\"i\": 1.5}",              // fractional int
           "{\"s\": unquoted}",         // bad string
           "3",                         // untagged scalar
       }) {
    EXPECT_FALSE(ValueFromJson(bad).ok()) << bad;
  }
}

SessionSnapshot MakeSnapshot(const Dataset& ds, int entity) {
  SessionSnapshot snap;
  snap.spec = ds.MakeSpec(entity);
  return snap;
}

TEST(SnapshotJsonTest, SnapshotRoundTripsByteIdentically) {
  const Dataset ds = SmallPersonCorpus();
  SessionSnapshot snap = MakeSnapshot(ds, 0);
  // Append a representative op log: one round, one answer delta.
  snap.ops.push_back(SessionOp{SessionOp::Kind::kRound, {}});
  auto delta = MakeAnswerDelta(
      snap.spec, {{0, Value::Str("answered")}, {2, Value::Int(5)}});
  ASSERT_TRUE(delta.ok());
  snap.ops.push_back(
      SessionOp{SessionOp::Kind::kExtend, std::move(delta).value()});

  const std::string text = SnapshotToJson(snap);
  auto back = SnapshotFromJson(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(text, SnapshotToJson(back.value()));

  const Specification& got = back.value().spec;
  EXPECT_EQ(got.instance().entity_id(), snap.spec.instance().entity_id());
  EXPECT_EQ(got.schema().names(), snap.spec.schema().names());
  EXPECT_EQ(got.instance().size(), snap.spec.instance().size());
  EXPECT_EQ(got.sigma().size(), snap.spec.sigma().size());
  EXPECT_EQ(got.gamma().size(), snap.spec.gamma().size());
  ASSERT_EQ(back.value().ops.size(), 2u);
  EXPECT_EQ(back.value().ops[0].kind, SessionOp::Kind::kRound);
  EXPECT_EQ(back.value().ops[1].kind, SessionOp::Kind::kExtend);
  EXPECT_EQ(back.value().ops[1].delta.new_tuples.size(), 1u);
  EXPECT_EQ(back.value().ops[1].delta.orders.size(),
            snap.ops[1].delta.orders.size());
}

TEST(SnapshotJsonTest, CompactAndIndentedFormsParseAlike) {
  const Dataset ds = SmallPersonCorpus();
  const SessionSnapshot snap = MakeSnapshot(ds, 1);
  auto from_compact = SnapshotFromJson(SnapshotToJson(snap, /*indent=*/0));
  auto from_indented = SnapshotFromJson(SnapshotToJson(snap, /*indent=*/2));
  ASSERT_TRUE(from_compact.ok());
  ASSERT_TRUE(from_indented.ok());
  EXPECT_EQ(SnapshotToJson(from_compact.value()),
            SnapshotToJson(from_indented.value()));
}

TEST(SnapshotJsonTest, RejectsMalformedSnapshots) {
  const Dataset ds = SmallPersonCorpus();
  const std::string good = SnapshotToJson(MakeSnapshot(ds, 0));
  ASSERT_TRUE(SnapshotFromJson(good).ok());

  struct Case {
    const char* label;
    std::string find;
    std::string replace;
  };
  const std::vector<Case> cases = {
      {"wrong schema name", "ccr.session_snapshot", "ccr.other"},
      {"wrong version", "\"schema_version\": 2", "\"schema_version\": 99"},
      {"unknown top field", "\"ops\"", "\"oops\""},
      {"unknown engine field", "\"naive_deduce\"", "\"naive_reduce\""},
      {"unknown spec field", "\"tuples\"", "\"rows\""},
      {"truncated", "}\n", ""},
  };
  for (const Case& c : cases) {
    std::string bad = good;
    const size_t at = bad.find(c.find);
    ASSERT_NE(at, std::string::npos) << c.label;
    bad.replace(at, c.find.size(), c.replace);
    EXPECT_FALSE(SnapshotFromJson(bad).ok()) << c.label;
  }

  // Structural rejections that string surgery can't express.
  EXPECT_FALSE(SnapshotFromJson("").ok());
  EXPECT_FALSE(SnapshotFromJson("null").ok());
  EXPECT_FALSE(SnapshotFromJson("{\"schema\": \"ccr.session_snapshot\", "
                                "\"schema_version\": 2}")
                   .ok());  // missing spec
}

TEST(SnapshotJsonTest, RejectsOutOfRangeAttributeIndices) {
  const Dataset ds = SmallPersonCorpus();
  SessionSnapshot snap = MakeSnapshot(ds, 0);
  std::string text = SnapshotToJson(snap);
  // The spec has a fixed arity; an order triple naming attribute 999 must
  // be rejected at assembly, not crash at replay.
  const std::string find = "\"orders\": [";
  const size_t at = text.find(find);
  ASSERT_NE(at, std::string::npos);
  text.insert(at + find.size(), "[999, 0, 1]");
  const auto parsed = SnapshotFromJson(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("out of range"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(SnapshotJsonTest, SnapshotsWithTheSameRulesShareOneRuleSet) {
  const Dataset ds = SmallPersonCorpus();
  auto a = SnapshotFromJson(SnapshotToJson(MakeSnapshot(ds, 0), 0));
  auto b = SnapshotFromJson(SnapshotToJson(MakeSnapshot(ds, 1), 0));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->spec.rules, b->spec.rules);
  EXPECT_EQ(a->spec.sigma().size(), ds.sigma().size());
  EXPECT_EQ(a->spec.gamma().size(), ds.gamma().size());

  // Other rules make another rule set.
  SessionSnapshot half;
  half.spec = ds.MakeSpec(0, ds.SubsetRules(1.0, 0.5, 3));
  auto c = SnapshotFromJson(SnapshotToJson(half, 0));
  ASSERT_TRUE(c.ok());
  EXPECT_NE(c->spec.rules, a->spec.rules);
  EXPECT_EQ(c->spec.gamma().size(), half.spec.gamma().size());

  // The pool keeps no rule set alive.
  const std::weak_ptr<const RuleSet> shared = a->spec.rules;
  a = Status::Internal("released");
  b = Status::Internal("released");
  EXPECT_TRUE(shared.expired());
  auto again = SnapshotFromJson(SnapshotToJson(MakeSnapshot(ds, 2), 0));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->spec.sigma().size(), ds.sigma().size());
}

TEST(SnapshotJsonTest, SharedRulesAreCheckedAgainstEachSchema) {
  // The same rule text, valid for nine attributes, arrives with a schema
  // of two: it is rejected although a rule set parsed from that text is
  // alive.
  Schema wide_schema =
      Schema::Make({"A", "B", "C", "D", "E", "F", "G", "H", "I"}).value();
  SessionSnapshot wide;
  wide.spec.temporal = TemporalInstance(EntityInstance(wide_schema, "wide"));
  ASSERT_TRUE(wide.spec.SetRules({}, {ConstantCfd({}, 8, Value::Str("q"))})
                  .ok());
  SessionSnapshot narrow;
  narrow.spec.temporal = TemporalInstance(
      EntityInstance(Schema::Make({"A", "B"}).value(), "narrow"));
  narrow.spec.rules = wide.spec.rules;

  auto wide_back = SnapshotFromJson(SnapshotToJson(wide, 0));
  ASSERT_TRUE(wide_back.ok()) << wide_back.status().ToString();
  auto narrow_back = SnapshotFromJson(SnapshotToJson(narrow, 0));
  ASSERT_FALSE(narrow_back.ok());
  EXPECT_EQ(narrow_back.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(narrow_back.status().ToString().find("out of range"),
            std::string::npos)
      << narrow_back.status().ToString();
}

// --- replay equivalence ----------------------------------------------------

// Drives an interactive session op by op, for every entity of the corpus.
// At every prefix of the op log the session is "evicted" (serialized to
// JSON) and rehydrated by replay, and the next round's verdict bytes must
// match the live session's exactly.
TEST(SnapshotReplayTest, RehydratedSessionsMatchLiveVerdictsAtEveryPrefix) {
  const Dataset ds = SmallPersonCorpus();
  int answered_total = 0;
  for (int entity = 0; entity < static_cast<int>(ds.entities.size());
       ++entity) {
    SessionSnapshot snap = MakeSnapshot(ds, entity);
    const std::vector<Value>& truth = ds.entities[entity].truth;

    auto options = MakeResolveOptions(snap.engine, nullptr);
    ASSERT_TRUE(options.ok());
    auto live = ResolutionSession::Create(snap.spec, options.value());
    ASSERT_TRUE(live.ok()) << live.status().ToString();

    int extended = 0;
    for (int step = 0; step < 4; ++step) {
      // Evict: the only state that survives is the serialized snapshot.
      const std::string serialized = SnapshotToJson(snap);
      auto thawed = SnapshotFromJson(serialized);
      ASSERT_TRUE(thawed.ok()) << thawed.status().ToString();
      auto replayed = ReplaySnapshot(thawed.value(), nullptr);
      ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();

      const RoundOutcome out_live = RunSessionRound(&live.value());
      snap.ops.push_back(SessionOp{SessionOp::Kind::kRound, {}});
      const RoundOutcome out_replayed = RunSessionRound(&replayed.value());
      ASSERT_EQ(RoundOutcomeToJson(out_live),
                RoundOutcomeToJson(out_replayed))
          << "entity " << entity << " step " << step;
      // Every answer extended both sessions in place, once each.
      EXPECT_EQ(live.value().incremental_extensions(), extended);
      EXPECT_EQ(replayed.value().incremental_extensions(), extended);

      if (!out_live.valid || out_live.complete || !out_live.has_suggestion) {
        break;
      }
      // Answer the first suggested attribute with non-null ground truth.
      std::vector<UserOracle::Answer> answers;
      for (const int attr : out_live.suggested_attrs) {
        if (!truth[attr].is_null()) {
          answers.push_back({attr, truth[attr]});
          break;
        }
      }
      if (answers.empty()) break;
      auto delta = MakeAnswerDelta(live.value().spec(), answers);
      ASSERT_TRUE(delta.ok());
      ASSERT_TRUE(live.value().ExtendWith(delta.value()).ok());
      snap.ops.push_back(SessionOp{SessionOp::Kind::kExtend, delta.value()});
      ++extended;
    }
    answered_total += extended;
  }
  // The comparison must have covered replays of answered sessions.
  EXPECT_GE(answered_total, 2);
}

// The satellite gate in ExperimentResult terms: resolve one entity twice —
// once through the live framework loop (never evicted), once evicting and
// rehydrating before every round — score both against ground truth, and
// require byte-identical ExperimentResult JSON.
TEST(SnapshotReplayTest, EvictEveryRoundYieldsByteIdenticalExperimentResult) {
  const Dataset ds = SmallPersonCorpus();
  const int entity = 2;
  const std::vector<Value>& truth = ds.entities[entity].truth;
  const int n_attrs = ds.schema.size();
  const int max_rounds = 3;

  // Shared answer policy: every suggested attribute with non-null truth.
  auto answers_for = [&](const std::vector<int>& attrs) {
    std::vector<UserOracle::Answer> answers;
    for (const int attr : attrs) {
      if (!truth[attr].is_null()) answers.push_back({attr, truth[attr]});
    }
    return answers;
  };

  auto run = [&](bool evict_every_round) -> ExperimentResult {
    ExperimentResult result;
    result.entities = 1;
    SessionSnapshot snap = MakeSnapshot(ds, entity);
    auto options = MakeResolveOptions(snap.engine, nullptr);
    EXPECT_TRUE(options.ok());
    auto session = ResolutionSession::Create(snap.spec, options.value());
    EXPECT_TRUE(session.ok());
    std::vector<Value> values(n_attrs, Value::Null());
    std::vector<bool> resolved(n_attrs, false);
    for (int round = 0; round <= max_rounds; ++round) {
      if (evict_every_round) {
        auto thawed = SnapshotFromJson(SnapshotToJson(snap));
        EXPECT_TRUE(thawed.ok());
        auto replayed = ReplaySnapshot(thawed.value(), nullptr);
        EXPECT_TRUE(replayed.ok());
        session = std::move(replayed);
      }
      const RoundOutcome out = RunSessionRound(&session.value());
      snap.ops.push_back(SessionOp{SessionOp::Kind::kRound, {}});
      if (!out.valid) {
        result.invalid_entities = 1;
        break;
      }
      for (const auto& [attr, value] : out.resolved) {
        values[attr] = value;
        resolved[attr] = true;
      }
      result.accuracy_by_round.push_back(ScoreAssignment(
          ds.entities[entity].instance, truth, values, resolved));
      result.max_rounds_used = round;
      if (out.complete || !out.has_suggestion) break;
      const auto answers = answers_for(out.suggested_attrs);
      if (answers.empty()) break;
      auto delta = MakeAnswerDelta(session.value().spec(), answers);
      EXPECT_TRUE(delta.ok());
      EXPECT_TRUE(session.value().ExtendWith(delta.value()).ok());
      snap.ops.push_back(SessionOp{SessionOp::Kind::kExtend, delta.value()});
    }
    RecomputePctTrueByRound(&result);
    return result;
  };

  const ExperimentResult never_evicted = run(false);
  const ExperimentResult evicted = run(true);
  ResultJsonOptions json_opts;
  json_opts.include_timings = false;
  EXPECT_EQ(ExperimentResultToJson(never_evicted, json_opts),
            ExperimentResultToJson(evicted, json_opts));
  // The run must have made progress for the comparison to mean anything.
  EXPECT_FALSE(never_evicted.accuracy_by_round.empty());
}

TEST(SnapshotReplayTest, ReplayReusesScratch) {
  const Dataset ds = SmallPersonCorpus();
  const SessionSnapshot snap = MakeSnapshot(ds, 0);
  SessionScratch scratch;
  {
    auto first = ReplaySnapshot(snap, &scratch);
    ASSERT_TRUE(first.ok());
    (void)RunSessionRound(&first.value());
  }
  auto second = ReplaySnapshot(snap, &scratch);
  ASSERT_TRUE(second.ok());
  EXPECT_GE(scratch.solver_reuses(), 1);
}

}  // namespace
}  // namespace service
}  // namespace ccr
