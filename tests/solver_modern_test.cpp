// Tests for the CDCL core: the ablation-equivalence suite (the `sls`
// preset and eager arena GC must resolve every entity to the default
// options' bytes — the pipeline consumes only SAT verdicts, so the
// whole-formula passes cannot change results), a DIMACS-level regression that learnt clauses survive
// minimization still implied (checked by re-solve), and unit tests for
// implicit binary watches, batched ScopedVars release, inprocessing, the
// cached-model witness pool and arena GC.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/ccr.h"
#include "src/common/rng.h"
#include "src/eval/result_io.h"

namespace ccr {
namespace {

using sat::Lit;
using sat::ScopedVars;
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

// The `sls` preset (seeding and inprocessing on) and eager arena GC, on
// both deduce pipelines, resolve all three corpora to the default
// configuration's bytes.
TEST(SolverAblationEquivalenceTest, EveryOptionComboResolvesIdentically) {
  const SolverOptions sls = service::SolverOptionsForPreset("sls").value();
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
  // guarantee a conflict-heavy search with a meaty learnt DB.
  for (int round = 0; round < 46; ++round) {
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
      const int holes = 3 + (round - 40);  // 3..8
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

TEST(ScopedVarsTest, BatchedReleaseFreezesEveryVar) {
  Solver s;
  const Var keep = s.NewVar();
  std::vector<Var> scope_vars;
  {
    ScopedVars scope(&s);
    for (int i = 0; i < 32; ++i) {
      const Var v = scope.NewVar();
      scope_vars.push_back(v);
      scope.AddClause({Lit::Pos(v), Lit::Pos(keep)});
    }
    ASSERT_EQ(s.SolveWithAssumptions({scope.activation()}),
              SolveResult::kSat);
  }  // one batched FreezeScope call releases all 32 vars + the activation
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  for (Var v : scope_vars) {
    EXPECT_FALSE(s.ModelValue(v));  // frozen false
    EXPECT_EQ(s.SolveWithAssumptions({Lit::Pos(v)}), SolveResult::kUnsat)
        << "frozen scope var " << v << " resurfaced";
  }
  // The base variable is untouched by the release.
  EXPECT_EQ(s.SolveWithAssumptions({Lit::Pos(keep)}), SolveResult::kSat);
  EXPECT_EQ(s.SolveWithAssumptions({Lit::Neg(keep)}), SolveResult::kSat);
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
  gc_opts.use_arena_gc = false;  // hold the trigger; collect by hand below
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

// Release-build sanity for the std::bit_cast activity accessors: a
// conflict-heavy search bumps/decays float activities stored inside the
// uint32_t arena on every learnt clause, then deletes by activity. The
// whole suite compiles with -fstrict-aliasing, so a type-punning
// regression in ClauseActivity/SetClauseActivity is UB the optimizer is
// entitled to exploit — this test gives it a dense workload to exploit
// it on.
TEST(ClauseActivityTest, ActivityDrivenDeletionSurvivesStrictAliasing) {
  Solver s;
  sat::Cnf cnf;
  const int holes = 9, pigeons = 10;
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
}

// The session engine stamps per-phase solver deltas into the RoundTrace;
// the legacy engine (throwaway solvers) reports zeros.
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

  TruthOracle oracle2(ds.entities[0].truth, 1);
  ResolveOptions legacy_opts;
  legacy_opts.max_rounds = 2;
  legacy_opts.use_session = false;
  auto rl = Resolve(ds.MakeSpec(0), &oracle2, legacy_opts);
  ASSERT_TRUE(rl.ok());
  for (const RoundTrace& t : rl->trace) {
    EXPECT_EQ(t.validity_solver.propagations, 0);
    EXPECT_EQ(t.suggest_solver.propagations, 0);
    EXPECT_EQ(t.encode_solver.propagations, 0);
  }
}

}  // namespace
}  // namespace ccr
