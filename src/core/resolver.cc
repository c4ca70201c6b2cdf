#include "src/core/resolver.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "src/common/timer.h"
#include "src/core/session.h"

namespace ccr {

Status ResolveOptions::Validate() const {
  if (max_rounds < 0) {
    return Status::InvalidArgument("ResolveOptions: max_rounds must be >= 0");
  }
  // Written so that NaN fails too.
  if (!(solver.gc_frac >= 0.0 && solver.gc_frac <= 1.0)) {
    return Status::InvalidArgument(
        "ResolveOptions: solver.gc_frac must be in [0, 1]");
  }
  return Status::OK();
}

int CountResolvableAttrs(const VarMap& vm) {
  int n = 0;
  for (int a = 0; a < vm.num_attrs(); ++a) {
    if (!vm.domain(a).empty()) ++n;
  }
  return n;
}

Result<PartialTemporalOrder> MakeAnswerDelta(
    const Specification& se, const std::vector<UserOracle::Answer>& answers) {
  const int n_attrs = se.schema().size();
  PartialTemporalOrder ot;
  Tuple to(std::vector<Value>(n_attrs, Value::Null()));
  for (const UserOracle::Answer& ans : answers) {
    if (ans.attr < 0 || ans.attr >= n_attrs) {
      return Status::InvalidArgument(
          "answer names an invalid attribute index");
    }
    to[ans.attr] = ans.value;
  }
  const int to_index = se.instance().size();
  ot.new_tuples.push_back(std::move(to));
  for (const UserOracle::Answer& ans : answers) {
    for (int t = 0; t < to_index; ++t) {
      ot.orders.emplace_back(ans.attr, t, to_index);
    }
  }
  return ot;
}

namespace {

// The per-round encode/solve strategy behind the framework loop. Both
// engines run the identical pipeline (validity → deduce → suggest →
// extend) and produce identical results; they differ only in what they
// keep alive between rounds.
class Engine {
 public:
  virtual ~Engine() = default;

  /// Makes the encoding current for this round; reports the grounding +
  /// CNF time attributable to it.
  virtual Status Encode(double* encode_ms) = 0;
  virtual const Specification& spec() const = 0;
  virtual const Instantiation& inst() const = 0;
  virtual ValidityResult CheckValidity() = 0;
  virtual DeducedOrders Deduce() = 0;
  virtual Suggestion MakeSuggestion(
      const std::vector<std::vector<int>>& candidates,
      const std::vector<int>& known_true) = 0;
  virtual Status Extend(const PartialTemporalOrder& ot) = 0;

  /// Cumulative counters for the RoundTrace (Resolve reports per-round
  /// deltas): full re-encodes performed and assumption-carrying solves
  /// answered so far.
  virtual int64_t Rebuilds() const = 0;
  virtual int64_t AssumptionSolves() const = 0;

  /// Cumulative statistics of the engine's persistent solver; Resolve
  /// diffs these around each phase call to attribute solver work
  /// (conflicts, binary propagations, inprocessing counters) per phase.
  /// The legacy engine's throwaway solvers are not traced: all zeros.
  virtual sat::SolverStats SolverStatsNow() const = 0;
};

// Legacy engine: re-grounds Ω(Se), rebuilds Φ(Se) and constructs fresh
// solver state every round. Kept as the regression baseline and the
// bench_throughput comparison point.
class RebuildEngine : public Engine {
 public:
  RebuildEngine(const Specification& se, const ResolveOptions& options)
      : options_(options), spec_(se) {}

  Status Encode(double* encode_ms) override {
    Timer timer;
    CCR_ASSIGN_OR_RETURN(inst_, Instantiation::Build(spec_));
    cnf_ = BuildCnf(inst_);
    *encode_ms = timer.ElapsedMs();
    ++rebuilds_;
    return Status::OK();
  }

  const Specification& spec() const override { return spec_; }
  const Instantiation& inst() const override { return inst_; }

  ValidityResult CheckValidity() override {
    return IsValidCnf(cnf_, options_.solver);
  }

  DeducedOrders Deduce() override {
    return options_.naive_deduce
               ? NaiveDeduce(inst_, cnf_, options_.solver)
               : DeduceOrder(inst_, cnf_, options_.deduce);
  }

  Suggestion MakeSuggestion(const std::vector<std::vector<int>>& candidates,
                            const std::vector<int>& known_true) override {
    return Suggest(inst_, cnf_, candidates, known_true, options_.suggest);
  }

  Status Extend(const PartialTemporalOrder& ot) override {
    CCR_ASSIGN_OR_RETURN(spec_, ::ccr::Extend(spec_, ot));
    return Status::OK();
  }

  int64_t Rebuilds() const override { return rebuilds_; }
  int64_t AssumptionSolves() const override { return 0; }
  sat::SolverStats SolverStatsNow() const override { return {}; }

 private:
  ResolveOptions options_;
  Specification spec_;
  Instantiation inst_;
  sat::Cnf cnf_;
  int64_t rebuilds_ = 0;
};

// Session engine: one ResolutionSession across all rounds.
class SessionEngine : public Engine {
 public:
  // `se` must outlive the engine; the session keeps the one copy.
  SessionEngine(const Specification& se, const ResolveOptions& options)
      : options_(options), se_(se) {}

  Status Encode(double* encode_ms) override {
    if (!session_.has_value()) {
      auto s = ResolutionSession::Create(se_, options_);
      if (!s.ok()) return s.status();
      session_.emplace(std::move(s).value());
    }
    // Round r > 0 was encoded by the ExtendWith that ended round r-1;
    // attribute that cost to the round it produced.
    *encode_ms = session_->last_encode_ms();
    return Status::OK();
  }

  const Specification& spec() const override { return session_->spec(); }
  const Instantiation& inst() const override {
    return session_->instantiation();
  }

  ValidityResult CheckValidity() override {
    return session_->CheckValidity();
  }

  DeducedOrders Deduce() override { return session_->Deduce(); }

  Suggestion MakeSuggestion(const std::vector<std::vector<int>>& candidates,
                            const std::vector<int>& known_true) override {
    return session_->MakeSuggestion(candidates, known_true);
  }

  Status Extend(const PartialTemporalOrder& ot) override {
    return session_->ExtendWith(ot);
  }

  int64_t Rebuilds() const override {
    return session_.has_value() ? session_->rebuilds() : 0;
  }
  int64_t AssumptionSolves() const override {
    return session_.has_value() ? session_->assumption_solves() : 0;
  }
  sat::SolverStats SolverStatsNow() const override {
    return session_.has_value() ? session_->solver_stats()
                                : sat::SolverStats{};
  }

 private:
  ResolveOptions options_;
  const Specification& se_;
  std::optional<ResolutionSession> session_;
};

}  // namespace

Result<ResolveResult> Resolve(const Specification& se, UserOracle* oracle,
                              const ResolveOptions& options) {
  CCR_RETURN_NOT_OK(options.Validate());
  const int n_attrs = se.schema().size();
  ResolveResult result;
  result.true_values.assign(n_attrs, Value::Null());
  result.resolved.assign(n_attrs, false);
  result.user_provided.assign(n_attrs, false);

  std::unique_ptr<Engine> engine;
  if (options.use_session) {
    engine = std::make_unique<SessionEngine>(se, options);
  } else {
    engine = std::make_unique<RebuildEngine>(se, options);
  }

  // Per-round deltas of the engine's cumulative rebuild/assumption
  // counters, stamped into each RoundTrace right before it is recorded.
  int64_t prev_rebuilds = 0;
  int64_t prev_assumption_solves = 0;
  auto stamp_counters = [&](RoundTrace* t) {
    const int64_t rebuilds = engine->Rebuilds();
    const int64_t assumption_solves = engine->AssumptionSolves();
    t->num_rebuilds = rebuilds - prev_rebuilds;
    t->num_assumption_solves = assumption_solves - prev_assumption_solves;
    prev_rebuilds = rebuilds;
    prev_assumption_solves = assumption_solves;
  };

  // Solver work of the ExtendWith that *produced* a round (clause feed +
  // between-round Simplify, where inprocessing runs) is captured when the
  // extension happens and stamped into the next round's trace — the same
  // attribution rule encode_ms follows.
  sat::SolverStats pending_extend_stats;

  for (int round = 0; round <= options.max_rounds; ++round) {
    RoundTrace trace;
    trace.round = round;
    CCR_RETURN_NOT_OK(engine->Encode(&trace.encode_ms));
    trace.encode_solver = pending_extend_stats;
    pending_extend_stats = {};
    const Instantiation& inst = engine->inst();
    Timer timer;

    // Step (1): validity.
    sat::SolverStats phase_start = engine->SolverStatsNow();
    const ValidityResult validity = engine->CheckValidity();
    trace.validity_solver = engine->SolverStatsNow() - phase_start;
    trace.validity_ms = timer.ElapsedMs();
    if (!validity.valid) {
      // Initial specification invalid (or a user's answer clashed with the
      // constraints): report and stop. The framework's "No" branch sends
      // users back to revise; a programmatic oracle cannot, so we stop.
      if (round == 0) result.valid = false;
      stamp_counters(&trace);
      result.trace.push_back(trace);
      break;
    }

    // Step (2): deduce true values.
    timer.Restart();
    phase_start = engine->SolverStatsNow();
    const DeducedOrders od = engine->Deduce();
    trace.deduce_solver = engine->SolverStatsNow() - phase_start;
    const std::vector<int> true_idx =
        ExtractTrueValueIndices(inst.varmap, od);
    trace.deduce_ms = timer.ElapsedMs();

    int resolved_count = 0;
    for (int a = 0; a < n_attrs; ++a) {
      if (true_idx[a] >= 0) {
        result.true_values[a] = inst.varmap.domain(a)[true_idx[a]];
        result.resolved[a] = true;
        ++resolved_count;
      }
    }
    trace.resolved_attrs = resolved_count;
    result.rounds_used = round;
    result.round_values.push_back(result.true_values);
    result.round_resolved.push_back(result.resolved);

    // Step (3): done when every resolvable attribute has a true value.
    if (resolved_count >= CountResolvableAttrs(inst.varmap)) {
      result.complete = true;
      stamp_counters(&trace);
      result.trace.push_back(trace);
      break;
    }
    if (oracle == nullptr || round == options.max_rounds) {
      stamp_counters(&trace);
      result.trace.push_back(trace);
      break;
    }

    // Step (4): suggestion + user input.
    timer.Restart();
    phase_start = engine->SolverStatsNow();
    const std::vector<std::vector<int>> candidates =
        CandidateValues(inst.varmap, od);
    const Suggestion suggestion =
        engine->MakeSuggestion(candidates, true_idx);
    trace.suggest_solver = engine->SolverStatsNow() - phase_start;
    trace.suggest_ms = timer.ElapsedMs();
    stamp_counters(&trace);
    result.trace.push_back(trace);

    const std::vector<UserOracle::Answer> answers =
        oracle->Provide(engine->spec(), suggestion, inst.varmap);
    if (answers.empty()) break;  // user settles

    // Materialize the answers as a new tuple t_o that dominates every
    // existing tuple on the answered attributes (§III Remark (1)).
    CCR_ASSIGN_OR_RETURN(const PartialTemporalOrder ot,
                         MakeAnswerDelta(engine->spec(), answers));
    for (const auto& ans : answers) {
      result.user_provided[ans.attr] = true;
    }
    phase_start = engine->SolverStatsNow();
    CCR_RETURN_NOT_OK(engine->Extend(ot));
    pending_extend_stats = engine->SolverStatsNow() - phase_start;
  }

  return result;
}

}  // namespace ccr
