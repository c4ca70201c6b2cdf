// Tests for the CDCL core: the ablation-equivalence suite (seeding plus
// inprocessing, and eager arena GC, must resolve every entity to the
// default options' bytes — the pipeline consumes only SAT verdicts, so
// the whole-formula passes cannot change results), a DIMACS-level
// regression that learnt clauses survive
// minimization still implied (checked by re-solve), and unit tests for
// implicit binary watches, inprocessing, the
// cached-model witness pool, arena GC and MaybeSimplify's sweep schedule.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/ccr.h"
#include "src/common/rng.h"
#include "src/eval/result_io.h"

namespace ccr {
namespace {

using sat::Lit;
using sat::SolveResult;
using sat::Solver;
using sat::SolverOptions;
using sat::Var;

// ~60 generated entities across all three corpora, small enough that a
// full resolve sweep per option combination stays fast.
Dataset AblationCorpus(const std::string& kind) {
  if (kind == "nba") {
    NbaOptions o;
    o.num_entities = 20;
    o.min_tuples = 3;
    o.max_tuples = 10;
    o.seed = 0xAB1;
    return GenerateNba(o);
  }
  if (kind == "career") {
    CareerOptions o;
    o.num_entities = 20;
    o.min_tuples = 3;
    o.max_tuples = 10;
    o.seed = 0xAB2;
    return GenerateCareer(o);
  }
  PersonOptions o;
  o.num_entities = 20;
  o.min_tuples = 4;
  o.max_tuples = 12;
  o.seed = 0xAB3;
  return GeneratePerson(o);
}

std::string ResolveCorpusToJson(const Dataset& ds,
                                const SolverOptions& solver,
                                bool naive_deduce = false) {
  ExperimentOptions eopts;
  eopts.max_rounds = 3;
  eopts.answers_per_round = 1;
  eopts.resolve.solver = solver;
  eopts.resolve.naive_deduce = naive_deduce;
  const ExperimentResult r = RunExperiment(ds, eopts);
  ResultJsonOptions jopts;
  jopts.include_timings = false;
  return ExperimentResultToJson(r, jopts);
}

// Seeding and inprocessing on together, and eager arena GC, on both
// deduce pipelines, resolve all three corpora to the default
// configuration's bytes.
TEST(SolverAblationEquivalenceTest, EveryOptionComboResolvesIdentically) {
  SolverOptions sls;
  sls.use_sls_seeding = true;
  sls.use_inprocessing = true;
  for (const std::string kind : {"person", "nba", "career"}) {
    const Dataset ds = AblationCorpus(kind);
    for (const bool naive : {false, true}) {
      const std::string baseline =
          ResolveCorpusToJson(ds, SolverOptions{}, naive);
      EXPECT_EQ(ResolveCorpusToJson(ds, sls, naive), baseline)
          << kind << " naive " << naive << " sls";
      // Collector pressure extreme: compact at every opportunity
      // (gc_frac = 0 fires on the first dead word) — the arena lifecycle
      // may never move a result.
      SolverOptions eager_gc;
      eager_gc.gc_frac = 0.0;
      EXPECT_EQ(ResolveCorpusToJson(ds, eager_gc, naive), baseline)
          << kind << " naive " << naive << " eager gc";
    }
  }
}

// DIMACS-level regression: every clause the solver learns — after
// minimization, possibly migrated into the binary watch lists —
// must still be implied by the original formula: F ∧ ¬C re-solved by an
// independent solver must be UNSAT.
TEST(DeepMinimizationTest, LearntClausesStayImplied) {
  Rng rng(0xD1CE);
  int checked = 0;
  // Random near-threshold 3-SAT plus pigeonhole instances — the latter
  // guarantee a conflict-heavy search with a meaty learnt DB. The last,
  // 8 pigeons in 7 holes, is the smallest that passes 1000 learnt
  // clauses, so its search also runs learnt-DB reductions.
  int64_t reductions = 0;
  for (int round = 0; round < 45; ++round) {
    sat::Cnf cnf;
    if (round < 40) {
      const int n_vars = 8 + static_cast<int>(rng.Below(8));
      const int n_clauses = 4 * n_vars + static_cast<int>(rng.Below(20));
      cnf.EnsureVars(n_vars);
      for (int c = 0; c < n_clauses; ++c) {
        const int len = 2 + static_cast<int>(rng.Below(2));
        std::vector<Lit> clause;
        for (int k = 0; k < len; ++k) {
          clause.push_back(
              Lit(static_cast<Var>(rng.Below(n_vars)), rng.Chance(0.5)));
        }
        cnf.AddClause(std::span<const Lit>(clause.data(), clause.size()));
      }
    } else {
      const int holes = 3 + (round - 40);  // 3..7
      const int pigeons = holes + 1;
      auto var = [&](int p, int h) { return p * holes + h; };
      for (int p = 0; p < pigeons; ++p) {
        std::vector<Lit> clause;
        for (int h = 0; h < holes; ++h) {
          clause.push_back(Lit::Pos(var(p, h)));
        }
        cnf.AddClause(std::span<const Lit>(clause.data(), clause.size()));
      }
      for (int h = 0; h < holes; ++h) {
        for (int p1 = 0; p1 < pigeons; ++p1) {
          for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
            cnf.AddBinary(Lit::Neg(var(p1, h)), Lit::Neg(var(p2, h)));
          }
        }
      }
    }
    Solver s;
    s.AddCnf(cnf);
    (void)s.Solve();
    reductions += s.stats().reductions;
    for (const std::vector<Lit>& learnt : s.LearntClauses()) {
      ASSERT_FALSE(learnt.empty());
      Solver check;
      check.AddCnf(cnf);
      for (Lit l : learnt) {
        if (!check.AddClause({~l})) break;  // already contradictory: fine
      }
      EXPECT_EQ(check.Solve(), SolveResult::kUnsat)
          << "round " << round << ": learnt clause not implied";
      ++checked;
    }
  }
  EXPECT_GT(checked, 50);  // the family must actually produce learnts
  EXPECT_GE(reductions, 1);  // and checks them across a learnt-DB reduction
}

TEST(BinaryWatchTest, BinaryChainsPropagateAndCount) {
  Solver s;
  const int n = 40;
  std::vector<Var> v(n);
  for (int i = 0; i < n; ++i) v[i] = s.NewVar();
  for (int i = 0; i + 1 < n; ++i) {
    ASSERT_TRUE(s.AddClause({Lit::Neg(v[i]), Lit::Pos(v[i + 1])}));
  }
  ASSERT_TRUE(s.AddClause({Lit::Pos(v[0])}));
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  for (int i = 0; i < n; ++i) EXPECT_TRUE(s.ModelValue(v[i]));
  // The whole chain ran through the implicit binary implication lists.
  EXPECT_GE(s.stats().binary_propagations, n - 1);
}

TEST(BinaryWatchTest, BinaryConflictAnalyzesCorrectly) {
  // x -> a, x -> ~a forces ~x through a binary conflict at level 1.
  Solver s;
  const Var x = s.NewVar(), a = s.NewVar(), y = s.NewVar();
  ASSERT_TRUE(s.AddClause({Lit::Neg(x), Lit::Pos(a)}));
  ASSERT_TRUE(s.AddClause({Lit::Neg(x), Lit::Neg(a)}));
  ASSERT_TRUE(s.AddClause({Lit::Pos(x), Lit::Pos(y)}));
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  EXPECT_FALSE(s.ModelValue(x));
  EXPECT_TRUE(s.ModelValue(y));
  EXPECT_EQ(s.SolveWithAssumptions({Lit::Pos(x)}), SolveResult::kUnsat);
}

TEST(InprocessingTest, SubsumptionAndVivificationCounters) {
  SolverOptions opts;
  opts.use_inprocessing = true;  // off by default
  Solver s(opts);
  const Var a = s.NewVar(), b = s.NewVar(), c = s.NewVar(), d = s.NewVar();
  // Baseline DB with a redundant (subsumable) and a vivifiable clause.
  ASSERT_TRUE(s.AddClause(
      {Lit::Pos(a), Lit::Pos(b), Lit::Pos(c), Lit::Pos(d)}));  // target
  ASSERT_TRUE(s.AddClause({Lit::Neg(a), Lit::Pos(b), Lit::Pos(c)}));
  ASSERT_TRUE(s.Simplify());  // primes implicitly: baseline stamped
  // The delta: (a ∨ b) subsumes the 4-ary clause's a∨b∨c∨d? No — it
  // subsumes nothing yet, but self-subsumes (¬a ∨ b ∨ c) into (b ∨ c).
  ASSERT_TRUE(s.AddClause({Lit::Pos(a), Lit::Pos(b), Lit::Pos(c)}));
  ASSERT_TRUE(s.Simplify());
  EXPECT_GT(s.stats().subsumed, 0)
      << "(a∨b∨c) must subsume/strengthen the baseline clauses";
  // Equivalence is preserved: (a∨b∨c) ∧ (¬a∨b∨c) ⊨ (b∨c), so ¬b∧¬c is
  // contradictory while ¬b alone is not.
  ASSERT_EQ(s.SolveWithAssumptions({Lit::Neg(b)}), SolveResult::kSat);
  EXPECT_TRUE(s.ModelValue(c));
  EXPECT_EQ(s.SolveWithAssumptions({Lit::Neg(b), Lit::Neg(c)}),
            SolveResult::kUnsat);
}

TEST(InprocessingTest, VivificationShortensImpliedClause) {
  SolverOptions opts;
  opts.use_inprocessing = true;  // off by default
  Solver s(opts);
  const Var a = s.NewVar(), b = s.NewVar(), c = s.NewVar(), x = s.NewVar();
  ASSERT_TRUE(s.AddClause({Lit::Pos(a), Lit::Pos(b)}));
  ASSERT_TRUE(s.Simplify());  // prime: baseline in
  // Delta clause (a ∨ b ∨ x): vivification assumes ¬a, ¬b — the baseline
  // then conflicts, so x is provably redundant and is distilled away.
  ASSERT_TRUE(s.AddClause({Lit::Pos(a), Lit::Pos(b), Lit::Pos(x)}));
  ASSERT_TRUE(s.AddClause({Lit::Pos(c), Lit::Pos(x), Lit::Pos(b)}));
  ASSERT_TRUE(s.Simplify());
  EXPECT_GT(s.stats().vivified + s.stats().subsumed, 0);
  // Still equivalent.
  EXPECT_EQ(s.SolveWithAssumptions({Lit::Neg(a)}), SolveResult::kSat);
  EXPECT_TRUE(s.ModelValue(b));
}

TEST(ModelCacheTest, WitnessReuseAnswersWithoutSearch) {
  Solver s;
  const Var a = s.NewVar(), b = s.NewVar();
  ASSERT_TRUE(s.AddClause({Lit::Pos(a), Lit::Pos(b)}));
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  const bool ma = s.ModelValue(a), mb = s.ModelValue(b);
  // Re-asking something the model already witnesses burns no decisions.
  const int64_t decisions_before = s.stats().decisions;
  ASSERT_EQ(s.SolveWithAssumptions({Lit(a, !ma)}), SolveResult::kSat);
  EXPECT_GT(s.stats().model_cache_hits, 0);
  EXPECT_EQ(s.stats().decisions, decisions_before);
  EXPECT_EQ(s.ModelValue(a), ma);
  EXPECT_EQ(s.ModelValue(b), mb);
  // Adding a clause invalidates: the next solve searches again.
  const int64_t hits = s.stats().model_cache_hits;
  ASSERT_TRUE(s.AddClause({Lit(a, ma)}));  // force a to flip
  ASSERT_EQ(s.SolveWithAssumptions({Lit::Pos(b), Lit::Neg(b)}),
            SolveResult::kUnsat);  // contradictory assumptions: no hit
  EXPECT_EQ(s.stats().model_cache_hits, hits);
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  EXPECT_EQ(s.ModelValue(a), !ma);
}

TEST(ArenaGcTest, CompactionReclaimsDeadWordsAndKeepsAnswers) {
  SolverOptions gc_opts;
  gc_opts.gc_frac = 1.0;  // hold the trigger; collect by hand below
  Solver s(gc_opts);
  const int n = 64;
  std::vector<Var> v(n);
  for (int i = 0; i < n; ++i) v[i] = s.NewVar();
  const Var hub = s.NewVar();
  // A pile of wide clauses all satisfied once `hub` is forced true: the
  // top-level sweep marks every one dead but the words stay in the arena
  // until the collector runs.
  for (int i = 0; i + 3 < n; ++i) {
    ASSERT_TRUE(s.AddClause({Lit::Pos(hub), Lit::Pos(v[i]),
                             Lit::Pos(v[i + 1]), Lit::Pos(v[i + 2]),
                             Lit::Pos(v[i + 3])}));
  }
  // Keep one clause alive so the compacted arena is not trivially empty.
  ASSERT_TRUE(s.AddClause({Lit::Pos(v[0]), Lit::Pos(v[1]), Lit::Pos(v[2])}));
  ASSERT_TRUE(s.AddClause({Lit::Pos(hub)}));
  ASSERT_TRUE(s.Simplify());  // sweeps the satisfied pile
  ASSERT_GT(s.arena_words(), s.arena_live_words());
  const size_t dead = s.arena_words() - s.arena_live_words();
  s.GarbageCollect();
  EXPECT_EQ(s.arena_words(), s.arena_live_words());
  EXPECT_GE(s.stats().gc_runs, 1);
  EXPECT_GE(static_cast<size_t>(s.stats().gc_reclaimed_words), dead);
  // The survivor still constrains the relocated world.
  EXPECT_EQ(s.SolveWithAssumptions(
                {Lit::Neg(v[0]), Lit::Neg(v[1]), Lit::Neg(v[2])}),
            SolveResult::kUnsat);
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  EXPECT_TRUE(s.ModelValue(hub));
}

TEST(ArenaGcTest, ModelCacheSurvivesRelocation) {
  Solver s;
  const Var a = s.NewVar(), b = s.NewVar(), c = s.NewVar();
  ASSERT_TRUE(s.AddClause({Lit::Pos(a), Lit::Pos(b), Lit::Pos(c)}));
  ASSERT_TRUE(s.AddClause({Lit::Neg(a), Lit::Pos(b), Lit::Pos(c)}));
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  const bool mb = s.ModelValue(b), mc = s.ModelValue(c);
  // Relocating clauses must not invalidate cached witnesses: the formula
  // is unchanged, so the stored models still satisfy it.
  s.GarbageCollect();
  const int64_t decisions_before = s.stats().decisions;
  ASSERT_EQ(s.SolveWithAssumptions({Lit(b, !mb)}), SolveResult::kSat);
  EXPECT_GT(s.stats().model_cache_hits, 0);
  EXPECT_EQ(s.stats().decisions, decisions_before);
  EXPECT_EQ(s.ModelValue(b), mb);
  EXPECT_EQ(s.ModelValue(c), mc);
}

// MaybeSimplify's schedule. The fixture: a pile of wide clauses that
// `hub` satisfies once it is forced, one clause that stays alive, and a
// binary chain v0 -> v1 -> ... whose probes generate propagation work
// without asserting anything at level 0.
struct SweepPile {
  std::vector<Var> v;
  Var hub = 0;
};

SweepPile LoadSweepPile(Solver* s) {
  SweepPile pile;
  const int n = 64;
  for (int i = 0; i < n; ++i) pile.v.push_back(s->NewVar());
  pile.hub = s->NewVar();
  const std::vector<Var>& v = pile.v;
  for (int i = 0; i + 3 < n; ++i) {
    EXPECT_TRUE(s->AddClause({Lit::Pos(pile.hub), Lit::Pos(v[i]),
                              Lit::Pos(v[i + 1]), Lit::Pos(v[i + 2]),
                              Lit::Pos(v[i + 3])}));
  }
  EXPECT_TRUE(s->AddClause({Lit::Pos(v[0]), Lit::Pos(v[1]), Lit::Pos(v[2])}));
  for (int i = 0; i + 1 < n; ++i) {
    EXPECT_TRUE(s->AddClause({Lit::Neg(v[i]), Lit::Pos(v[i + 1])}));
  }
  return pile;
}

int64_t SweepWork(const Solver& s) {
  return s.stats().propagations + s.stats().binary_propagations;
}

// Probes the chain head until the long plus binary propagations counted
// since the call began reach `work`.
void ProbeChain(Solver* s, const SweepPile& pile, int64_t work) {
  const int64_t start = SweepWork(*s);
  const Lit head = Lit::Pos(pile.v[0]);
  while (SweepWork(*s) - start < work) {
    ASSERT_TRUE(s->BeginProbe(std::span<const Lit>(&head, 1)));
    s->EndProbe();
  }
}

TEST(SweepScheduleTest, NoNewLevelZeroFactMeansNoSweep) {
  Solver s;
  const SweepPile pile = LoadSweepPile(&s);
  ProbeChain(&s, pile, 4 * static_cast<int64_t>(s.arena_words()));
  // Plenty of propagation work, but the level-0 trail never grew.
  ASSERT_TRUE(s.MaybeSimplify());
  EXPECT_EQ(s.stats().sweeps, 0);
  ASSERT_TRUE(s.AddClause({Lit::Pos(pile.hub)}));
  ASSERT_TRUE(s.MaybeSimplify());
  EXPECT_EQ(s.stats().sweeps, 1);
  // Work again, but nothing new at level 0 since that sweep.
  ProbeChain(&s, pile, 4 * static_cast<int64_t>(s.arena_words()));
  ASSERT_TRUE(s.MaybeSimplify());
  EXPECT_EQ(s.stats().sweeps, 1);
  // Simplify() stays an unconditional pass, and counts as a sweep.
  ASSERT_TRUE(s.Simplify());
  EXPECT_EQ(s.stats().sweeps, 2);
}

TEST(SweepScheduleTest, SweepWaitsForPropagationsThenCollectsAsBefore) {
  Solver scheduled;
  Solver always;
  const SweepPile pile = LoadSweepPile(&scheduled);
  (void)LoadSweepPile(&always);
  ASSERT_TRUE(scheduled.AddClause({Lit::Pos(pile.hub)}));
  ASSERT_TRUE(always.AddClause({Lit::Pos(pile.hub)}));
  ASSERT_TRUE(always.Simplify());
  ASSERT_GE(always.stats().gc_runs, 1);

  // The fresh fact is propagated at once, but the sweep waits: a single
  // propagation does not pay for a pass over the arena, and the satisfied
  // pile, one clause short of the database, has been held for one round.
  ASSERT_TRUE(scheduled.MaybeSimplify());
  EXPECT_EQ(scheduled.ProbeValue(pile.hub), sat::Lbool::kTrue);
  EXPECT_EQ(scheduled.stats().sweeps, 0);
  EXPECT_EQ(scheduled.arena_words(), scheduled.arena_live_words());
  EXPECT_GT(scheduled.arena_words(), always.arena_words());

  // Once propagations reach the arena's size, the sweep detaches the
  // satisfied pile and the collector compacts exactly as Simplify did.
  ProbeChain(&scheduled, pile, static_cast<int64_t>(scheduled.arena_words()));
  ASSERT_TRUE(scheduled.MaybeSimplify());
  EXPECT_EQ(scheduled.stats().sweeps, 1);
  EXPECT_EQ(scheduled.stats().gc_runs, always.stats().gc_runs);
  EXPECT_EQ(scheduled.stats().gc_reclaimed_words,
            always.stats().gc_reclaimed_words);
  EXPECT_EQ(scheduled.arena_words(), always.arena_words());
  EXPECT_EQ(scheduled.arena_live_words(), always.arena_live_words());
  // The survivor still constrains the relocated world.
  EXPECT_EQ(scheduled.SolveWithAssumptions({Lit::Neg(pile.v[0]),
                                            Lit::Neg(pile.v[1]),
                                            Lit::Neg(pile.v[2])}),
            SolveResult::kUnsat);
}

TEST(SweepScheduleTest, HeldSatisfiedClausesPayForTheSweep) {
  // Ten independent ternary clauses and no search at all: a fact that
  // satisfies one of them is held one round per MaybeSimplify call, and
  // once the rounds held reach the database's ten clauses the sweep runs.
  // Run twice on one solver: Reset must clear the count as well.
  Solver s;
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass);
    if (pass == 1) s.Reset();
    std::vector<Var> v;
    for (int i = 0; i < 30; ++i) v.push_back(s.NewVar());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(s.AddClause({Lit::Pos(v[3 * i]), Lit::Pos(v[3 * i + 1]),
                               Lit::Pos(v[3 * i + 2])}));
    }
    ASSERT_TRUE(s.AddClause({Lit::Pos(v[0])}));
    const int64_t props = SweepWork(s);
    for (int call = 1; call < 10; ++call) {
      ASSERT_TRUE(s.MaybeSimplify());
      EXPECT_EQ(s.stats().sweeps, 0) << "call " << call;
    }
    ASSERT_LT(SweepWork(s) - props, static_cast<int64_t>(s.arena_words()));
    ASSERT_TRUE(s.MaybeSimplify());
    EXPECT_EQ(s.stats().sweeps, 1);
    // Nothing new since: no rounds are held, and no sweep follows.
    for (int call = 0; call < 20; ++call) ASSERT_TRUE(s.MaybeSimplify());
    EXPECT_EQ(s.stats().sweeps, 1);
    // Facts satisfying five of the nine left are held for two rounds.
    const Var x = s.NewVar();
    for (int i = 1; i < 6; ++i) {
      ASSERT_TRUE(s.AddClause({Lit::Neg(x), Lit::Pos(v[3 * i])}));
    }
    ASSERT_TRUE(s.AddClause({Lit::Pos(x)}));
    ASSERT_TRUE(s.MaybeSimplify());
    EXPECT_EQ(s.stats().sweeps, 1);
    ASSERT_TRUE(s.MaybeSimplify());
    EXPECT_EQ(s.stats().sweeps, 2);
  }
}

TEST(SweepScheduleTest, ResetClearsTheSchedule) {
  // A long-lived solver swept at a large propagation count; after Reset
  // its schedule must start from zero, as a fresh solver's does.
  Solver recycled;
  const SweepPile pile = LoadSweepPile(&recycled);
  ASSERT_TRUE(recycled.AddClause({Lit::Pos(pile.hub)}));
  ProbeChain(&recycled, pile, 8 * static_cast<int64_t>(recycled.arena_words()));
  ASSERT_TRUE(recycled.MaybeSimplify());
  ASSERT_EQ(recycled.stats().sweeps, 1);
  recycled.Reset();

  // A small formula whose one unit propagates down a binary chain: more
  // propagations than the single long clause's arena words.
  auto load = [](Solver* s) {
    std::vector<Var> v;
    for (int i = 0; i < 10; ++i) v.push_back(s->NewVar());
    EXPECT_TRUE(s->AddClause({Lit::Neg(v[0]), Lit::Pos(v[1]),
                              Lit::Pos(v[2])}));
    for (int i = 0; i + 1 < 10; ++i) {
      EXPECT_TRUE(s->AddClause({Lit::Neg(v[i]), Lit::Pos(v[i + 1])}));
    }
    EXPECT_TRUE(s->AddClause({Lit::Pos(v[0])}));
  };
  Solver fresh;
  load(&recycled);
  load(&fresh);
  ASSERT_TRUE(recycled.MaybeSimplify());
  ASSERT_TRUE(fresh.MaybeSimplify());
  EXPECT_EQ(fresh.stats().sweeps, 1);
  EXPECT_EQ(recycled.stats().sweeps, fresh.stats().sweeps);
  EXPECT_EQ(recycled.arena_words(), fresh.arena_words());
}

// Release-build sanity for the std::bit_cast activity accessors: a
// conflict-heavy search bumps/decays float activities stored inside the
// uint32_t arena on every learnt clause, then deletes by activity. The
// whole suite compiles with -fstrict-aliasing, so a type-punning
// regression in ClauseActivity/SetClauseActivity is UB the optimizer is
// entitled to exploit — this test gives it a dense workload to exploit
// it on. 8 pigeons in 7 holes is the smallest pigeonhole instance whose
// search passes 1000 learnt clauses and so deletes by activity.
TEST(ClauseActivityTest, ActivityDrivenDeletionSurvivesStrictAliasing) {
  Solver s;
  sat::Cnf cnf;
  const int holes = 7, pigeons = 8;
  auto var = [&](int p, int h) { return p * holes + h; };
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(Lit::Pos(var(p, h)));
    cnf.AddClause(std::span<const Lit>(clause.data(), clause.size()));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        cnf.AddBinary(Lit::Neg(var(p1, h)), Lit::Neg(var(p2, h)));
      }
    }
  }
  s.AddCnf(cnf);
  ASSERT_EQ(s.Solve(), SolveResult::kUnsat);
  EXPECT_GT(s.stats().conflicts, 100);  // real bump/decay/delete traffic
  EXPECT_GE(s.stats().reductions, 1);   // deletion by activity happened
}

// Resolve stamps the session solver's per-phase deltas into the
// RoundTrace.
TEST(RoundTraceSolverStatsTest, SessionPhasesAreAttributed) {
  PersonOptions popts;
  popts.num_entities = 1;
  popts.min_tuples = 6;
  popts.max_tuples = 10;
  popts.seed = 0x5A7;
  const Dataset ds = GeneratePerson(popts);
  TruthOracle oracle(ds.entities[0].truth, 1);

  ResolveOptions session_opts;
  session_opts.max_rounds = 2;
  auto rs = Resolve(ds.MakeSpec(0), &oracle, session_opts);
  ASSERT_TRUE(rs.ok());
  int64_t total_props = 0;
  for (const RoundTrace& t : rs->trace) {
    total_props += t.validity_solver.propagations +
                   t.suggest_solver.propagations +
                   t.encode_solver.propagations;
  }
  EXPECT_GT(total_props, 0) << "session phases must attribute solver work";
}

}  // namespace
}  // namespace ccr
