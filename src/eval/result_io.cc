#include "src/eval/result_io.h"

#include <algorithm>
#include <set>

#include "src/common/json.h"

namespace ccr {

namespace {

// The writer/reader machinery lives in src/common/json.h (shared with the
// session-snapshot and service-reply formats); this file only states the
// ExperimentResult schema. The emitted bytes are identical to what the
// pre-extraction local writer produced.
using JsonWriter = json::Writer;

constexpr char kSchemaName[] = "ccr.experiment_result";

}  // namespace

std::string ExperimentResultToJson(const ExperimentResult& r,
                                   const ResultJsonOptions& options) {
  JsonWriter w(options.indent);
  const bool t = options.include_timings;
  w.BeginObject();
  w.Key("schema");
  w.Value(kSchemaName);
  w.Key("schema_version");
  w.Value(kExperimentResultSchemaVersion);
  w.Key("entities");
  w.Value(r.entities);
  w.Key("invalid_entities");
  w.Value(r.invalid_entities);
  w.Key("max_rounds_used");
  w.Value(r.max_rounds_used);
  w.Key("accuracy_by_round");
  w.BeginArray();
  for (size_t k = 0; k < r.accuracy_by_round.size(); ++k) {
    w.ArraySep(k == 0);
    const AccuracyCounts& c = r.accuracy_by_round[k];
    w.BeginObject();
    w.Key("deduced");
    w.Value(c.deduced);
    w.Key("correct");
    w.Value(c.correct);
    w.Key("conflicts");
    w.Value(c.conflicts);
    w.EndObject();
  }
  w.EndArray();
  w.Key("pct_true_by_round");
  w.BeginArray();
  for (size_t k = 0; k < r.pct_true_by_round.size(); ++k) {
    w.ArraySep(k == 0);
    w.Value(r.pct_true_by_round[k]);
  }
  w.EndArray();
  w.Key("timings_ms");
  w.BeginObject();
  w.Key("encode");
  w.Value(t ? r.encode_ms : 0.0);
  w.Key("validity");
  w.Value(t ? r.validity_ms : 0.0);
  w.Key("deduce");
  w.Value(t ? r.deduce_ms : 0.0);
  w.Key("suggest");
  w.Value(t ? r.suggest_ms : 0.0);
  w.EndObject();
  w.EndObject();
  std::string out = std::move(w).Take();
  out.push_back('\n');
  return out;
}

Result<ExperimentResult> ExperimentResultFromJson(std::string_view text) {
  json::Reader rd(text, "ExperimentResult JSON");
  ExperimentResult out;
  std::string schema;
  int version = -1;

  // Duplicate keys at any level are rejected uniformly: a last-one-wins
  // scalar is as much silent corruption as a doubled round array.
  std::set<std::string> seen;
  std::set<std::string> seen_timing;
  Status st = rd.ParseObject([&](const std::string& key) -> Status {
    if (!seen.insert(key).second) {
      return rd.Fail("duplicate field '" + key + "'");
    }
    if (key == "schema") return rd.ParseString(&schema);
    if (key == "schema_version") return rd.ParseInt(&version);
    if (key == "entities") return rd.ParseInt(&out.entities);
    if (key == "invalid_entities") return rd.ParseInt(&out.invalid_entities);
    if (key == "max_rounds_used") return rd.ParseInt(&out.max_rounds_used);
    if (key == "accuracy_by_round") {
      return rd.ParseArray([&]() -> Status {
        AccuracyCounts c;
        std::set<std::string> seen_count;
        CCR_RETURN_NOT_OK(rd.ParseObject([&](const std::string& f) -> Status {
          if (!seen_count.insert(f).second) {
            return rd.Fail("duplicate accuracy field '" + f + "'");
          }
          if (f == "deduced") return rd.ParseInt(&c.deduced);
          if (f == "correct") return rd.ParseInt(&c.correct);
          if (f == "conflicts") return rd.ParseInt(&c.conflicts);
          return rd.Fail("unknown accuracy field '" + f + "'");
        }));
        out.accuracy_by_round.push_back(c);
        return Status::OK();
      });
    }
    if (key == "pct_true_by_round") {
      return rd.ParseArray([&]() -> Status {
        double v = 0;
        CCR_RETURN_NOT_OK(rd.ParseDouble(&v));
        out.pct_true_by_round.push_back(v);
        return Status::OK();
      });
    }
    if (key == "timings_ms") {
      return rd.ParseObject([&](const std::string& f) -> Status {
        if (!seen_timing.insert(f).second) {
          return rd.Fail("duplicate timing field '" + f + "'");
        }
        if (f == "encode") return rd.ParseDouble(&out.encode_ms);
        if (f == "validity") return rd.ParseDouble(&out.validity_ms);
        if (f == "deduce") return rd.ParseDouble(&out.deduce_ms);
        if (f == "suggest") return rd.ParseDouble(&out.suggest_ms);
        return rd.Fail("unknown timing field '" + f + "'");
      });
    }
    return rd.Fail("unknown field '" + key + "'");
  });
  CCR_RETURN_NOT_OK(st);
  if (!rd.AtEnd()) return rd.Fail("trailing content");
  // Strictness cuts both ways: a missing field is as much schema drift as
  // an unknown one (a trimmed file would otherwise pool zeros silently).
  for (const char* required :
       {"schema", "schema_version", "entities", "invalid_entities",
        "max_rounds_used", "accuracy_by_round", "pct_true_by_round",
        "timings_ms"}) {
    if (seen.count(required) == 0) {
      return Status::InvalidArgument(
          std::string("ExperimentResult JSON: missing field '") + required +
          "'");
    }
  }
  if (schema != kSchemaName) {
    return Status::InvalidArgument("ExperimentResult JSON: schema is '" +
                                   schema + "', want '" + kSchemaName + "'");
  }
  if (version != kExperimentResultSchemaVersion) {
    return Status::InvalidArgument(
        "ExperimentResult JSON: schema_version " + std::to_string(version) +
        " unsupported (have " +
        std::to_string(kExperimentResultSchemaVersion) + ")");
  }
  return out;
}

Result<ExperimentResult> MergeExperimentResults(
    const std::vector<ExperimentResult>& parts) {
  if (parts.empty()) {
    return Status::InvalidArgument("MergeExperimentResults: no inputs");
  }
  size_t n_rounds = 0;
  for (const ExperimentResult& p : parts) {
    n_rounds = std::max(n_rounds, p.accuracy_by_round.size());
  }
  ExperimentResult out;
  out.accuracy_by_round.assign(n_rounds, AccuracyCounts{});
  for (const ExperimentResult& p : parts) {
    out.entities += p.entities;
    out.invalid_entities += p.invalid_entities;
    out.max_rounds_used = std::max(out.max_rounds_used, p.max_rounds_used);
    if (out.error.ok()) out.error = p.error;
    out.encode_ms += p.encode_ms;
    out.validity_ms += p.validity_ms;
    out.deduce_ms += p.deduce_ms;
    out.suggest_ms += p.suggest_ms;
    if (p.accuracy_by_round.empty()) continue;
    const size_t last = p.accuracy_by_round.size() - 1;
    for (size_t k = 0; k < n_rounds; ++k) {
      // Round-length alignment: past a part's last round its final state
      // carries forward, exactly as RunExperiment carries a finished
      // entity's state through the remaining rounds.
      out.accuracy_by_round[k].Add(p.accuracy_by_round[std::min(k, last)]);
    }
  }
  // Derived ratios come from the pooled counts — the single definition
  // RunExperiment also uses — never from averaging the parts' ratios.
  RecomputePctTrueByRound(&out);
  return out;
}

}  // namespace ccr
