#include "src/service/session_runtime.h"

#include <utility>

#include "src/common/json.h"

namespace ccr {
namespace service {

Result<ResolveOptions> MakeResolveOptions(const EngineConfig& engine,
                                          SessionScratch* scratch) {
  ResolveOptions options;
  options.naive_deduce = engine.naive_deduce;
  options.scratch = scratch;
  return options;
}

RoundOutcome RunSessionRound(ResolutionSession* session) {
  const SessionRound round = session->RunRound(/*want_suggestion=*/true);
  RoundOutcome outcome;
  outcome.valid = round.valid;
  outcome.complete = round.complete;
  const VarMap& vm = session->instantiation().varmap;
  for (int a = 0; a < static_cast<int>(round.true_idx.size()); ++a) {
    if (round.true_idx[a] >= 0) {
      outcome.resolved.emplace_back(a, vm.domain(a)[round.true_idx[a]]);
    }
  }
  if (!round.suggestion.has_value()) return outcome;

  const Suggestion& suggestion = *round.suggestion;
  outcome.has_suggestion = true;
  outcome.suggested_attrs = suggestion.attrs;
  outcome.derivable_attrs = suggestion.derivable_attrs;
  outcome.suggested_values.reserve(suggestion.attrs.size());
  for (size_t i = 0; i < suggestion.attrs.size(); ++i) {
    std::vector<Value> values;
    values.reserve(suggestion.candidates[i].size());
    for (const int idx : suggestion.candidates[i]) {
      values.push_back(vm.domain(suggestion.attrs[i])[idx]);
    }
    outcome.suggested_values.push_back(std::move(values));
  }
  return outcome;
}

std::string RoundOutcomeToJson(const RoundOutcome& outcome) {
  json::Writer w(0);
  w.BeginObject();
  w.Key("valid");
  w.Value(outcome.valid);
  w.Key("complete");
  w.Value(outcome.complete);
  w.Key("resolved");
  w.BeginArray();
  for (size_t i = 0; i < outcome.resolved.size(); ++i) {
    w.ArraySep(i == 0);
    w.BeginArray();
    w.Value(outcome.resolved[i].first);
    w.ArraySep(false);
    WriteValue(outcome.resolved[i].second, &w);
    w.EndArray();
  }
  w.EndArray();
  w.Key("suggest");
  if (!outcome.has_suggestion) {
    w.NullValue();
  } else {
    w.BeginObject();
    w.Key("attrs");
    w.BeginArray();
    for (size_t i = 0; i < outcome.suggested_attrs.size(); ++i) {
      w.ArraySep(i == 0);
      w.Value(outcome.suggested_attrs[i]);
    }
    w.EndArray();
    w.Key("candidates");
    w.BeginArray();
    for (size_t i = 0; i < outcome.suggested_values.size(); ++i) {
      w.ArraySep(i == 0);
      w.BeginArray();
      for (size_t k = 0; k < outcome.suggested_values[i].size(); ++k) {
        w.ArraySep(k == 0);
        WriteValue(outcome.suggested_values[i][k], &w);
      }
      w.EndArray();
    }
    w.EndArray();
    w.Key("derivable");
    w.BeginArray();
    for (size_t i = 0; i < outcome.derivable_attrs.size(); ++i) {
      w.ArraySep(i == 0);
      w.Value(outcome.derivable_attrs[i]);
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
  return std::move(w).Take();
}

Result<ResolutionSession> ReplaySnapshot(const SessionSnapshot& snapshot,
                                         SessionScratch* scratch) {
  CCR_ASSIGN_OR_RETURN(const ResolveOptions options,
                       MakeResolveOptions(snapshot.engine, scratch));
  CCR_ASSIGN_OR_RETURN(ResolutionSession session,
                       ResolutionSession::Create(snapshot.spec, options));
  for (const SessionOp& op : snapshot.ops) {
    if (op.kind == SessionOp::Kind::kRound) {
      // Replies are discarded; the calls themselves recreate the solver's
      // counters, phases and learnt state.
      (void)RunSessionRound(&session);
    } else {
      CCR_RETURN_NOT_OK(session.ExtendWith(op.delta));
    }
  }
  return session;
}

}  // namespace service
}  // namespace ccr
