#include "perfbench/batch.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "perfbench/service.h"

namespace perfbench {

namespace {

constexpr uint64_t kOracleSeed = 0xACE;  // RunExperiment's default

// TruthOracle that also counts the answers it gives (user effort).
class CountingOracle : public ccr::UserOracle {
 public:
  CountingOracle(const std::vector<ccr::Value>& truth, int entity)
      : inner_(truth, kAnswersPerRound, 1.0,
               kOracleSeed + static_cast<uint64_t>(entity)) {}

  std::vector<Answer> Provide(const ccr::Specification& se,
                              const ccr::Suggestion& suggestion,
                              const ccr::VarMap& vm) override {
    std::vector<Answer> answers = inner_.Provide(se, suggestion, vm);
    answers_ += static_cast<int64_t>(answers.size());
    return answers;
  }
  int64_t answers() const { return answers_; }

 private:
  ccr::TruthOracle inner_;
  int64_t answers_ = 0;
};

// Digest of everything a resolve decides: validity, completeness, the
// values after every round and which attributes the user supplied.
uint64_t ResolveDigest(const ccr::ResolveResult& rr) {
  std::string bytes;
  bytes.push_back(rr.valid ? 'V' : 'v');
  bytes.push_back(rr.complete ? 'C' : 'c');
  bytes += std::to_string(rr.rounds_used) + ';';
  for (size_t k = 0; k < rr.round_values.size(); ++k) {
    for (size_t a = 0; a < rr.round_values[k].size(); ++a) {
      if (rr.round_resolved[k][a]) {
        AppendValue(rr.round_values[k][a], &bytes);
      } else {
        bytes.push_back('-');
      }
    }
    bytes.push_back('|');
  }
  for (const bool u : rr.user_provided) bytes.push_back(u ? 'U' : '.');
  return Fnv1a(bytes);
}

// Wrong values over every round of one resolve.
int WrongInResolve(const ccr::ResolveResult& rr,
                   const std::vector<ccr::Value>& truth) {
  int wrong = 0;
  for (size_t k = 0; k < rr.round_values.size(); ++k) {
    wrong += WrongValues(rr.round_values[k], rr.round_resolved[k], truth);
  }
  return wrong;
}

// The fast or the naive (Lemma-6) pipeline with the default solver.
ccr::ResolveOptions PipelineOptions(bool naive_deduce,
                                    ccr::SessionScratch* scratch) {
  ccr::ResolveOptions options;
  options.max_rounds = kMaxRounds;
  options.naive_deduce = naive_deduce;
  options.scratch = scratch;
  return options;
}

// Resolve() rebuilt on TracedSession: the same rounds, phase calls and
// oracle calls, in resolver.cc's order.
ccr::Result<ccr::ResolveResult> TracedResolve(const ccr::Specification& se,
                                              ccr::UserOracle* oracle,
                                              const ccr::ResolveOptions& options,
                                              Tracer* tracer,
                                              const std::string& owner,
                                              LayerCounts* counts) {
  ScopedSpan root(tracer, "core.resolve", owner);
  const int n_attrs = se.schema().size();
  ccr::ResolveResult result;
  result.true_values.assign(n_attrs, ccr::Value::Null());
  result.resolved.assign(n_attrs, false);
  result.user_provided.assign(n_attrs, false);
  CCR_ASSIGN_OR_RETURN(
      TracedSession session,
      TracedSession::Create(se, options, options.scratch, tracer, owner,
                            counts));
  for (int round = 0; round <= options.max_rounds; ++round) {
    if (!session.CheckValidity().valid) {
      if (round == 0) result.valid = false;
      break;
    }
    const TracedDeduction d = session.Deduce();
    const ccr::VarMap& vm = session.varmap();
    int resolved_count = 0;
    for (int a = 0; a < n_attrs; ++a) {
      if (d.true_idx[a] >= 0) {
        result.true_values[a] = vm.domain(a)[d.true_idx[a]];
        result.resolved[a] = true;
        ++resolved_count;
      }
    }
    result.rounds_used = round;
    result.round_values.push_back(result.true_values);
    result.round_resolved.push_back(result.resolved);
    if (resolved_count >= ccr::CountResolvableAttrs(vm)) {
      result.complete = true;
      break;
    }
    if (round == options.max_rounds) break;
    const ccr::Suggestion suggestion = session.MakeSuggestion(d);
    const std::vector<ccr::UserOracle::Answer> answers =
        oracle->Provide(session.spec(), suggestion, vm);
    if (answers.empty()) break;
    CCR_ASSIGN_OR_RETURN(const ccr::PartialTemporalOrder ot,
                         ccr::MakeAnswerDelta(session.spec(), answers));
    for (const auto& ans : answers) result.user_provided[ans.attr] = true;
    CCR_RETURN_NOT_OK(session.ExtendWith(ot));
  }
  session.Finish();
  return result;
}

}  // namespace

Corpus MakeCorpus(const CorpusOptions& options, uint64_t seed,
                  Tracer* tracer) {
  ScopedSpan span(tracer, "data.generate", "corpus");
  Corpus c;
  if (options.kind == CorpusKind::kPerson) {
    ccr::PersonOptions p;
    p.num_entities = options.entities;
    p.min_tuples = options.min_tuples;
    p.max_tuples = options.max_tuples;
    p.seed = seed;
    c.ds = ccr::GeneratePerson(p);
  } else {
    ccr::NbaOptions n;
    n.num_entities = options.entities;
    n.min_tuples = options.min_tuples;
    n.max_tuples = options.max_tuples;
    n.seed = seed;
    c.ds = ccr::GenerateNba(n);
  }
  c.specs.reserve(c.ds.entities.size());
  for (size_t i = 0; i < c.ds.entities.size(); ++i) {
    c.specs.push_back(c.ds.MakeSpec(static_cast<int>(i)));
  }
  return c;
}

void AddEngineLayerMetrics(const std::vector<Span>& spans,
                           const LayerCounts& counts, Metrics* m) {
  const std::map<std::string, SelfTime> self = SelfTimes(spans);
  const double n = static_cast<double>(std::max<int64_t>(counts.sessions, 1));
  auto per_session_ms = [&](const char* span) {
    auto it = self.find(span);
    return it == self.end() ? 0.0 : it->second.ms / n;
  };
  for (const char* layer :
       {"encode.ground", "encode.cnf", "encode.extend", "sat.feed", "sat.seed",
        "sat.simplify", "core.create", "core.validity", "core.deduce",
        "core.suggest", "core.extend"}) {
    m->Set(std::string(layer) + "_ms", per_session_ms(layer), "ms");
  }
  m->Set("core.unattributed_ms", per_session_ms("core.resolve"), "ms");
  double resolve_ms = 0;
  for (const Span& s : spans) {
    if (s.parent < 0 && std::string_view(s.name) == "core.resolve") {
      resolve_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  m->Set("core.unattributed_frac",
         resolve_ms > 0 ? per_session_ms("core.resolve") * n / resolve_ms : 0,
         "ratio");
  m->Set("encode.ground_constraints", counts.ground_constraints / n, "count");
  m->Set("encode.clauses", counts.clauses / n, "count");
  m->Set("encode.axiom_clause_frac",
         counts.clauses > 0
             ? 1.0 - static_cast<double>(counts.ground_constraints) /
                         static_cast<double>(counts.clauses)
             : 0,
         "ratio");
  m->Set("sat.conflicts", counts.solver.conflicts / n, "count");
  m->Set("sat.propagations", counts.solver.propagations / n, "count");
  m->Set("sat.assumption_solves", counts.solver.assumption_solves / n,
         "count");
  m->Set("sat.arena_peak_words", static_cast<double>(counts.arena_peak_words),
         "count");
  m->Set("core.validity_calls", counts.validity_calls / n, "count");
  m->Set("core.deduce_calls", counts.deduce_calls / n, "count");
  m->Set("core.deduced_pairs", counts.deduced_pairs / n, "count");
  m->Set("core.suggested_attrs", counts.suggested_attrs / n, "count");
}

void AddSetupSpans(const Tracer& setup, Outcome* out) {
  const SelfTime gen = SelfTimes(setup.spans()).at("data.generate");
  out->metrics.Set("data.generate_ms", gen.ms / gen.count, "ms");
  out->spans.Append(setup);
}

void SetEndToEndMetrics(const EndToEnd& e, Outcome* out) {
  Metrics& m = out->metrics;
  bool ok = true;
  auto pct = [&](const Samples& s, double p) {
    bool enough = true;
    const double v = s.Percentile(p, 10, &enough);
    ok = ok && enough;
    return v;
  };
  m.Set("entities_per_s", static_cast<double>(e.done) / e.seconds, "1/s");
  m.Set("sessions_per_s", static_cast<double>(e.done) / e.seconds, "1/s");
  m.Set("entity_p50_ms", pct(e.entity, 0.5), "ms");
  m.Set("entity_p90_ms", pct(e.entity, 0.9), "ms");
  m.Set("round_p50_ms", pct(e.round, 0.5), "ms");
  m.Set("round_p90_ms", pct(e.round, 0.9), "ms");
  m.Set("answer_p50_ms", pct(e.answer, 0.5), "ms");
  m.Set("open_p50_ms", pct(e.open, 0.5), "ms");
  m.Set("auto_resolved_frac",
        e.auto0.conflicts > 0
            ? static_cast<double>(e.auto0.deduced) / e.auto0.conflicts
            : 0,
        "ratio");
  m.Set("questions_per_entity", e.questions, "count");
  if (!ok) {
    std::fprintf(stderr,
                 "perfbench: too few samples for a percentile; raise "
                 "--seconds\n");
    ++out->failed;
  }
}

namespace {

// The timed (untraced) run: whole passes over the corpus until `seconds`
// have passed, at least kMinPasses of them, each pass on the next CPU.
// Every entity keeps its best resolve time, and every round its best phase
// times, over the passes.
// Quality metrics come from the first pass; every later pass must
// reproduce its per-entity digests.
void TimedBatch(const Corpus& corpus, bool naive, int seconds,
                ccr::SessionScratch* scratch, Outcome* out) {
  constexpr double kNone = std::numeric_limits<double>::infinity();
  const int n = static_cast<int>(corpus.specs.size());
  const ccr::ResolveOptions options = PipelineOptions(naive, scratch);
  std::vector<uint64_t> first(n);
  std::vector<double> best(n, kNone);
  // Per entity, per round: validity + deduce + suggest, and the encoding
  // (creation in round 0, the extension after an answer later).
  std::vector<std::vector<double>> best_round(n), best_encode(n);
  EndToEnd e;
  int64_t answers = 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::seconds(seconds);
  CpuRotation cpus;
  for (int pass = 0; pass < kMinPasses || Clock::now() < deadline; ++pass) {
    cpus.PinNext();
    for (int i = 0; i < n; ++i) {
      const ccr::EntityCase& ec = corpus.ds.entities[i];
      CountingOracle oracle(ec.truth, i);
      const Clock::time_point t0 = Clock::now();
      auto rr = ccr::Resolve(corpus.specs[i], &oracle, options);
      const double ms = MsSince(t0);
      ++out->attempted;
      if (!rr.ok()) {
        ++out->failed;
        continue;
      }
      const uint64_t h = ResolveDigest(*rr);
      if (pass == 0) {
        first[i] = h;
        if (WrongInResolve(*rr, ec.truth) > 0) ++out->failed;
        if (!rr->round_values.empty()) {
          e.auto0.Add(ccr::ScoreAssignment(ec.instance, ec.truth,
                                           rr->round_values[0],
                                           rr->round_resolved[0]));
        }
        answers += oracle.answers();
        best_round[i].assign(rr->trace.size(), kNone);
        best_encode[i].assign(rr->trace.size(), kNone);
      } else if (h != first[i] ||
                 rr->trace.size() != best_round[i].size()) {
        ++out->failed;
        continue;
      }
      KeepBest(&best[i], ms);
      for (size_t k = 0; k < rr->trace.size(); ++k) {
        const ccr::RoundTrace& t = rr->trace[k];
        KeepBest(&best_round[i][k], t.validity_ms + t.deduce_ms + t.suggest_ms);
        KeepBest(&best_encode[i][k], t.encode_ms);
      }
    }
  }
  for (int i = 0; i < n; ++i) {
    if (best[i] == kNone) continue;
    ++e.done;
    e.seconds += best[i] / 1000.0;
    e.entity.Add(best[i]);
    for (size_t k = 0; k < best_round[i].size(); ++k) {
      e.round.Add(best_round[i][k]);
      (k == 0 ? e.open : e.answer).Add(best_encode[i][k]);
    }
  }
  e.questions = static_cast<double>(answers) / n;
  out->digest = Hex64(ChainDigests(first));
  SetEndToEndMetrics(e, out);
}

// The traced run: one untraced pass (Resolve) and one traced pass
// (TracedResolve) over the first `traced_entities` entities, whose digests
// must agree, then the service legs on the first `probe_sessions`.
void TracedBatch(const Corpus& corpus, bool naive, int traced_entities,
                 int probe_sessions, ccr::SessionScratch* scratch,
                 Outcome* out) {
  const int n =
      std::min(traced_entities, static_cast<int>(corpus.specs.size()));
  const ccr::ResolveOptions options = PipelineOptions(naive, scratch);
  std::vector<uint64_t> untraced(n), traced(n);

  Clock::time_point start = Clock::now();
  for (int i = 0; i < n; ++i) {
    CountingOracle oracle(corpus.ds.entities[i].truth, i);
    auto rr = ccr::Resolve(corpus.specs[i], &oracle, options);
    ++out->attempted;
    if (!rr.ok()) {
      ++out->failed;
      continue;
    }
    untraced[i] = ResolveDigest(*rr);
  }
  const double untraced_ms = MsSince(start);

  Tracer tracer;
  LayerCounts counts;
  start = Clock::now();
  for (int i = 0; i < n; ++i) {
    const ccr::EntityCase& ec = corpus.ds.entities[i];
    CountingOracle oracle(ec.truth, i);
    auto rr = TracedResolve(corpus.specs[i], &oracle, options, &tracer,
                            "entity-" + std::to_string(i), &counts);
    ++out->attempted;
    if (!rr.ok()) {
      ++out->failed;
      continue;
    }
    traced[i] = ResolveDigest(*rr);
    if (WrongInResolve(*rr, ec.truth) > 0) ++out->failed;
  }
  const double traced_ms = MsSince(start);
  for (int i = 0; i < n; ++i) {
    if (traced[i] != untraced[i]) {
      std::fprintf(stderr,
                   "perfbench: traced drive diverged from Resolve on "
                   "entity %d\n",
                   i);
      ++out->failed;
    }
  }
  out->digest = Hex64(ChainDigests(untraced));
  AddEngineLayerMetrics(tracer.spans(), counts, &out->metrics);
  out->metrics.Set("trace.overhead", traced_ms / untraced_ms, "ratio");
  out->spans.Append(tracer);

  // The service layers, measured on this corpus's first entities.
  std::vector<int> entities(std::min(n, probe_sessions));
  for (size_t i = 0; i < entities.size(); ++i) {
    entities[i] = static_cast<int>(i);
  }
  const std::vector<Script> scripts =
      BuildScripts(corpus, entities, naive, &out->failed);
  TraceServiceLegs(scripts, out);
}

}  // namespace

Outcome RunBatch(const Workload& w, uint64_t seed, int seconds, bool trace) {
  Outcome out;
  Tracer setup_tracer;
  std::vector<double> setup_s;
  Corpus corpus;
  ccr::SessionScratch scratch;
  for (int r = 0; r < kSetupRepeats; ++r) {
    corpus = Corpus{};  // every repeat starts from the same state
    const Clock::time_point t0 = Clock::now();
    corpus = MakeCorpus(w.corpus, seed, trace ? &setup_tracer : nullptr);
    // Warm-up: one resolve fills the scratch's pools before timing.
    CountingOracle oracle(corpus.ds.entities[0].truth, 0);
    if (!ccr::Resolve(corpus.specs[0], &oracle,
                      PipelineOptions(w.naive_deduce, &scratch))
             .ok()) {
      ++out.failed;
    }
    setup_s.push_back(MsSince(t0) / 1000.0);
  }
  out.metrics.Set("setup_s", Median(setup_s), "s");
  if (trace) {
    AddSetupSpans(setup_tracer, &out);
    TracedBatch(corpus, w.naive_deduce, w.traced_entities, w.service_probe,
                &scratch, &out);
  } else {
    TimedBatch(corpus, w.naive_deduce, seconds, &scratch, &out);
  }
  out.metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
  return out;
}

}  // namespace perfbench
