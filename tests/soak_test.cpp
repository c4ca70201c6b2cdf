// Long-lived session soak (the PR-6 memory-lifecycle contract): hundreds
// of oracle-answer rounds against ONE persistent session must
//   * keep the solver arena bounded — compacting GC holds the high-water
//     mark within 2x of the live clause words,
//   * change no result whatsoever — every validity verdict, every deduced
//     order, every suggestion, and the serialized ExperimentResult bytes
//     are identical with arena GC on, off, or maximally eager,
//   * keep the solver's model cache effective across relocations, and
//   * never fall back to a session rebuild.
//
// The churn mimics what a real resolution service produces (§III Remark
// (1)): each round appends a tuple carrying the ground-truth value of one
// attribute, dominating every prior tuple on that attribute. Truth
// answers stay consistent forever, while the unit cascades they trigger
// keep satisfying old clauses and retiring guards — dead arena words.
// The answered attribute rotates, as a service's rounds would. Every
// pipeline phase decides the Horn Φ(Se) by propagation and makes no
// solve, so the model-cache check runs a second churn that answers one
// attribute every round and, each round, drives the per-pair Lemma-6 loop
// (Lemma6DeduceShared) on the session's solver: its assumption solves
// cache models while the collector relocates clauses.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/deduce.h"
#include "src/core/session.h"
#include "src/data/dataset.h"
#include "src/data/person_generator.h"
#include "src/eval/experiment.h"
#include "src/eval/result_io.h"

namespace ccr {
namespace {

constexpr int kSoakRounds = 240;
// The one-attribute churn then answers the next attribute for this many
// more rounds. Its first attribute's answers soon stop satisfying long
// clauses: CFD rules are binaries on their version's atom, outside the
// arena, so the arena holds too few dead words to relocate. The second
// attribute's answers satisfy a new batch, and the collector runs.
constexpr int kOneAttrTailRounds = 60;

// Generous additive slack on the 2x bound: a single round's worth of
// fresh clauses can land between the collector's trigger points.
constexpr size_t kArenaSlackWords = 4096;

Dataset SoakCorpus() {
  PersonOptions opts;
  opts.num_entities = 1;
  opts.min_tuples = 60;
  opts.max_tuples = 72;
  opts.seed = 90210;
  // Rich histories: plenty of attributes with genuine currency gaps, so
  // answer rounds keep doing real solver work.
  opts.p_status_gap = 0.55;
  opts.p_move_only = 0.70;
  return GeneratePerson(opts);
}

struct SoakOutcome {
  bool ok = false;
  bool arena_bound_held = true;   // per-round: arena <= 2*live + slack
  size_t peak_words = 0;          // solver high-water mark
  size_t final_arena_words = 0;   // footprint when the soak ended
  size_t max_live_words = 0;      // largest live snapshot we observed
  int64_t gc_runs = 0;
  int64_t reclaimed_words = 0;
  int64_t model_cache_hits = 0;
  int extensions = 0;  // incremental_extensions() at the end
  std::vector<bool> valid_by_round;
  // Closure of every Deduce() call, flattened as (call, attr, u, v).
  std::vector<std::tuple<int, int, int, int>> deduced;
  // Attributes of every suggestion, one list per Deduce() call.
  std::vector<std::vector<int>> suggested;
};

// `one_attr`: every round answers one attribute with a truth value
// instead of rotating across all of them: the first attribute for
// kSoakRounds rounds, then the next for kOneAttrTailRounds.
SoakOutcome RunSoak(const Specification& spec,
                    const std::vector<Value>& truth, bool lifecycle_on,
                    bool eager, bool one_attr = false) {
  SoakOutcome out;
  ResolveOptions opts;
  opts.naive_deduce = true;  // Lemma-6 probes on the persistent solver
  // The answer-round dead fraction plateaus near ~20% of the arena, so
  // the production trigger (0.25) would coast at this scale; 0.10 makes
  // the collector genuinely run. `eager` compacts at every opportunity,
  // and off (1) never does.
  opts.solver.gc_frac = eager ? 0.0 : 0.10;
  if (!lifecycle_on) opts.solver.gc_frac = 1.0;
  auto session = ResolutionSession::Create(spec, opts);
  if (!session.ok()) return out;

  const int n_attrs = static_cast<int>(spec.schema().size());
  int to_index = static_cast<int>(spec.instance().size());
  int deduce_calls = 0;
  const int rounds = kSoakRounds + (one_attr ? kOneAttrTailRounds : 0);
  for (int r = 0; r < rounds; ++r) {
    int a = one_attr ? (r < kSoakRounds ? 0 : 1) : r % n_attrs;
    for (int probe = 0; probe < n_attrs && truth[a].is_null(); ++probe) {
      a = (a + 1) % n_attrs;
    }
    if (truth[a].is_null()) return out;

    PartialTemporalOrder ot;
    Tuple to(std::vector<Value>(n_attrs, Value::Null()));
    to[a] = truth[a];
    ot.new_tuples.push_back(std::move(to));
    for (int t = 0; t < to_index; ++t) ot.orders.emplace_back(a, t, to_index);
    if (!session->ExtendWith(ot).ok()) return out;
    ++to_index;
    if (one_attr) {
      const Instantiation& inst = session->instantiation();
      (void)Lemma6DeduceShared(inst, session->mutable_solver(),
                               inst.guard_assumptions());
    }

    out.valid_by_round.push_back(session->CheckValidity().valid);
    if (r % 4 == 3 || r == rounds - 1) {
      const DeducedOrders d = session->Deduce();
      for (size_t at = 0; at < d.per_attr.size(); ++at) {
        const PartialOrder& po = d.per_attr[at];
        for (int u = 0; u < po.num_elements(); ++u) {
          for (int v = 0; v < po.num_elements(); ++v) {
            if (po.Less(u, v)) {
              out.deduced.emplace_back(deduce_calls, static_cast<int>(at),
                                       u, v);
            }
          }
        }
      }
      ++deduce_calls;
      if (out.valid_by_round.back()) {
        const VarMap& vm = session->instantiation().varmap;
        out.suggested.push_back(
            session->MakeSuggestion(CandidateValues(vm, d),
                                    ExtractTrueValueIndices(vm, d))
                .attrs);
      }
    }

    const sat::Solver& solver = session->solver();
    const size_t live = solver.arena_live_words();
    out.max_live_words = std::max(out.max_live_words, live);
    if (lifecycle_on &&
        solver.arena_words() > 2 * live + kArenaSlackWords) {
      out.arena_bound_held = false;
    }
  }

  const sat::Solver& solver = session->solver();
  out.peak_words = solver.arena_peak_words();
  out.final_arena_words = solver.arena_words();
  out.gc_runs = solver.stats().gc_runs;
  out.reclaimed_words = solver.stats().gc_reclaimed_words;
  out.model_cache_hits = solver.stats().model_cache_hits;
  out.extensions = session->incremental_extensions();
  out.ok = true;
  return out;
}

// The soak is deterministic, so run each configuration once and share the
// outcome across the assertions below.
const SoakOutcome& Soak(bool lifecycle_on, bool eager = false) {
  static const Dataset ds = SoakCorpus();
  static const SoakOutcome on =
      RunSoak(ds.MakeSpec(0), ds.entities[0].truth, true, false);
  static const SoakOutcome off =
      RunSoak(ds.MakeSpec(0), ds.entities[0].truth, false, false);
  static const SoakOutcome eager_on =
      RunSoak(ds.MakeSpec(0), ds.entities[0].truth, true, true);
  return lifecycle_on ? (eager ? eager_on : on) : off;
}

// The one-attribute churn, for the model-cache check.
const SoakOutcome& OneAttrSoak(bool lifecycle_on) {
  static const Dataset ds = SoakCorpus();
  static const SoakOutcome on = RunSoak(ds.MakeSpec(0), ds.entities[0].truth,
                                        true, false, /*one_attr=*/true);
  static const SoakOutcome off = RunSoak(ds.MakeSpec(0), ds.entities[0].truth,
                                         false, false, /*one_attr=*/true);
  return lifecycle_on ? on : off;
}

TEST(SessionSoakTest, ArenaStaysBoundedOverHundredsOfRounds) {
  const SoakOutcome& on = Soak(true);
  ASSERT_TRUE(on.ok);
  EXPECT_GE(on.gc_runs, 1);
  EXPECT_GT(on.reclaimed_words, 0);
  EXPECT_TRUE(on.arena_bound_held);
  EXPECT_LE(on.peak_words, 2 * on.max_live_words + kArenaSlackWords);
  EXPECT_EQ(on.extensions, kSoakRounds);
}

TEST(SessionSoakTest, LifecycleOffGrowsButStillNeverRebuilds) {
  const SoakOutcome& off = Soak(false);
  ASSERT_TRUE(off.ok);
  EXPECT_EQ(off.gc_runs, 0);
  EXPECT_EQ(off.reclaimed_words, 0);
  EXPECT_EQ(off.extensions, kSoakRounds);
  // The control run demonstrates the leak the collector exists to stop:
  // without GC the arena never shrinks (the footprint IS the high-water
  // mark), while the collected run ends strictly smaller.
  EXPECT_EQ(off.final_arena_words, off.peak_words);
  const SoakOutcome& on = Soak(true);
  EXPECT_GE(off.peak_words, on.peak_words);
  EXPECT_LT(on.final_arena_words, off.final_arena_words);
}

TEST(SessionSoakTest, LifecycleFeaturesAreResultNeutral) {
  const SoakOutcome& on = Soak(true);
  const SoakOutcome& off = Soak(false);
  const SoakOutcome& eager = Soak(true, /*eager=*/true);
  ASSERT_TRUE(on.ok);
  ASSERT_TRUE(off.ok);
  ASSERT_TRUE(eager.ok);
  EXPECT_EQ(on.valid_by_round, off.valid_by_round);
  EXPECT_EQ(on.deduced, off.deduced);
  EXPECT_EQ(on.suggested, off.suggested);
  EXPECT_EQ(eager.valid_by_round, off.valid_by_round);
  EXPECT_EQ(eager.deduced, off.deduced);
  EXPECT_EQ(eager.suggested, off.suggested);
  EXPECT_GE(eager.gc_runs, on.gc_runs);
}

TEST(SessionSoakTest, ModelCacheKeepsHittingAcrossRelocations) {
  // Relocation rewrites every clause address the cached models were
  // built against; the cache must keep producing hits afterwards.
  const SoakOutcome& on = OneAttrSoak(true);
  ASSERT_TRUE(on.ok);
  ASSERT_GE(on.gc_runs, 1);
  EXPECT_GT(on.model_cache_hits, 0);
  const SoakOutcome& off = OneAttrSoak(false);
  ASSERT_TRUE(off.ok);
  EXPECT_EQ(on.model_cache_hits, off.model_cache_hits);
  EXPECT_EQ(on.suggested, off.suggested);
}

TEST(SessionSoakTest, ExperimentBytesAreIdenticalAcrossLifecycleConfigs) {
  // The end-to-end form of result neutrality: the serialized
  // ExperimentResult (timings excluded) may not move by a byte whether
  // the memory lifecycle is off, default, or maximally eager.
  PersonOptions popts;
  popts.num_entities = 6;
  popts.min_tuples = 12;
  popts.max_tuples = 40;
  popts.seed = 4242;
  const Dataset ds = GeneratePerson(popts);

  ResultJsonOptions json_opts;
  json_opts.include_timings = false;

  auto run = [&](double gc_frac) {
    ExperimentOptions eopts;
    eopts.max_rounds = 3;
    eopts.answers_per_round = 1;
    eopts.resolve.solver.gc_frac = gc_frac;
    return ExperimentResultToJson(RunExperiment(ds, eopts), json_opts);
  };

  const std::string off = run(1.0);
  const std::string defaults = run(0.25);
  const std::string eager = run(0.0);
  EXPECT_EQ(defaults, off);
  EXPECT_EQ(eager, off);
}

}  // namespace
}  // namespace ccr
