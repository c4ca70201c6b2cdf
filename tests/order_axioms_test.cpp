// Implicit transitivity axioms (order blocks) against their materialized
// clauses:
//   (a) the solver's closure propagator vs the same formula with every
//       ternary written out — equal verdicts, probe values and failed
//       literals on random block + clause formulas (Horn and non-Horn,
//       with assumptions and grown blocks), and every
//       model transitively closed; vivification and inprocessed sessions
//       whose probes materialize axioms; a block grown one value at a
//       time; a probe extended by ProbeExtend against one opened on the
//       joint base, and an extension's conflict path;
//   (b) DeduceOrder's native block propagation vs the counter-based pass
//       over the materialized formula, paper and strict mode, across
//       session rounds that add domain values;
//   (c) local search (the `--solver sls` flags) never reports an
//       assignment that is not a strict order (transitively closed and
//       asymmetric) as feasible;
//   (d) Cnf copy, move and Clear carry the blocks, and DIMACS output
//       round-trips to the materialized formula;
// plus the independent oracle for (b): strict-mode DeduceOrder equals the
// pair set of the per-pair Lemma-6 loop (Lemma6DeduceShared, one solve per
// pair) on a solver fed the materialized formula, so neither side runs the
// other's closure code or the propagation Deduce.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/deduce.h"
#include "src/core/session.h"
#include "src/data/career_generator.h"
#include "src/data/dataset.h"
#include "src/data/nba_generator.h"
#include "src/data/person_generator.h"
#include "src/encode/cnf_builder.h"
#include "src/sat/dimacs.h"
#include "src/sat/solver.h"

namespace ccr {
namespace {

using sat::Cnf;
using sat::Lbool;
using sat::Lit;
using sat::OrderBlock;
using sat::SolveResult;
using sat::Solver;
using sat::SolverOptions;
using sat::Var;

// True iff `value` is transitively closed on every block of `cnf`.
bool Closed(const Cnf& cnf, const std::function<bool(Var)>& value) {
  for (int b = 0; b < cnf.num_order_blocks(); ++b) {
    if (cnf.order_block(b).CountOpenAxioms(value, 1) > 0) return false;
  }
  return true;
}

bool ModelClosed(const Cnf& cnf, const Solver& s) {
  return Closed(cnf, [&](Var v) { return s.ModelValue(v); });
}

// Adds block `b` of `size` values over fresh variables of `cnf`, or grows
// it to `size` with fresh variables for the new entries.
void GrowBlock(Cnf* cnf, int b, int size) {
  cnf->GrowOrderBlock(b, size, [&](int, int) { return cnf->NewVar(); });
}

// A random formula: 1–3 order blocks of 3–6 values plus a few auxiliary
// variables, and clauses of 1–3 literals over all of them. `horn` keeps
// at most one positive literal per clause; otherwise some blocks also
// get asymmetry and totality clauses (x_ab ∨ x_ba), which make the
// solver search for a total order and conflict through the block.
Cnf RandomBlockCnf(Rng* rng, bool horn) {
  Cnf cnf;
  const int blocks = 1 + static_cast<int>(rng->Below(3));
  for (int b = 0; b < blocks; ++b) {
    cnf.AddOrderBlock();
    GrowBlock(&cnf, b, 3 + static_cast<int>(rng->Below(4)));
    const OrderBlock& block = cnf.order_block(b);
    if (horn || rng->Chance(0.5)) continue;
    for (int i = 0; i < block.size; ++i) {
      for (int j = i + 1; j < block.size; ++j) {
        cnf.AddBinary(Lit::Neg(block.at(i, j)), Lit::Neg(block.at(j, i)));
        cnf.AddBinary(Lit::Pos(block.at(i, j)), Lit::Pos(block.at(j, i)));
      }
    }
  }
  const int aux = static_cast<int>(rng->Below(4));
  for (int k = 0; k < aux; ++k) cnf.NewVar();
  const int n_vars = cnf.num_vars();
  const int n_clauses = 2 + static_cast<int>(rng->Below(12));
  std::vector<Lit> clause;
  for (int c = 0; c < n_clauses; ++c) {
    clause.clear();
    const int len = 1 + static_cast<int>(rng->Below(3));
    bool positive = false;
    for (int k = 0; k < len; ++k) {
      bool neg = rng->Chance(0.6);
      if (horn && !neg) {
        neg = positive;
        positive = true;
      }
      clause.push_back(Lit(static_cast<Var>(rng->Below(n_vars)), neg));
    }
    cnf.AddClause(clause);
  }
  return cnf;
}

std::vector<Lit> RandomAssumptions(Rng* rng, int n_vars) {
  std::vector<Lit> out;
  const int n = static_cast<int>(rng->Below(4));
  for (int k = 0; k < n; ++k) {
    out.push_back(Lit(static_cast<Var>(rng->Below(n_vars)), rng->Chance(0.5)));
  }
  return out;
}

// Opens a propagation probe on `assume` in both solvers and compares
// its outcome and every propagated value; then every failed-literal test:
// a probe on `assume` plus one more literal.
void ExpectSameProbe(Solver* implicit, Solver* explicit_, int n_vars,
                     std::span<const Lit> assume, const std::string& where) {
  const bool pi = implicit->BeginProbe(assume);
  const bool pe = explicit_->BeginProbe(assume);
  ASSERT_EQ(pi, pe) << where;
  if (!pi) return;
  for (Var v = 0; v < n_vars; ++v) {
    ASSERT_EQ(implicit->ProbeValue(v), explicit_->ProbeValue(v))
        << where << " var " << v;
  }
  implicit->EndProbe();
  explicit_->EndProbe();
  std::vector<Lit> extended(assume.begin(), assume.end());
  for (Var v = 0; v < n_vars; ++v) {
    for (const bool neg : {false, true}) {
      extended.push_back(Lit(v, neg));
      const bool li = implicit->BeginProbe(extended);
      const bool le = explicit_->BeginProbe(extended);
      ASSERT_EQ(li, le) << where << " lit " << Lit(v, neg).ToString();
      if (li) {
        implicit->EndProbe();
        explicit_->EndProbe();
      }
      extended.pop_back();
    }
  }
}

// Compares both solvers under `assume`: a propagation probe while
// neither has learnt anything (learnt clauses strengthen propagation
// differently on each side), then the verdicts; models must be closed.
// Returns whether the probe was compared.
bool ExpectSameBehaviour(const Cnf& cnf, Solver* implicit, Solver* explicit_,
                         std::span<const Lit> assume,
                         const std::string& where) {
  const bool probed =
      implicit->stats().conflicts == 0 && explicit_->stats().conflicts == 0;
  if (probed) {
    ExpectSameProbe(implicit, explicit_, cnf.num_vars(), assume, where);
  }
  const SolveResult ri = implicit->SolveWithAssumptions(assume);
  const SolveResult re = explicit_->SolveWithAssumptions(assume);
  EXPECT_EQ(ri, re) << where;
  if (ri == SolveResult::kSat) {
    EXPECT_TRUE(ModelClosed(cnf, *implicit)) << where;
  }
  return probed;
}

// --- (a) solver: closure propagator vs materialized ternaries ------------

TEST(OrderAxiomsTest, SolverMatchesMaterializedFormula) {
  Rng rng(0x0b10c);
  int sat = 0, unsat = 0, materialized = 0, probes = 0, conflicted = 0;
  for (int round = 0; round < 300; ++round) {
    const bool horn = round % 2 == 0;
    Cnf cnf = RandomBlockCnf(&rng, horn);
    Solver implicit, explicit_;
    implicit.AddCnf(cnf);
    explicit_.AddCnf(cnf.Materialized());
    const std::string where = "round " + std::to_string(round);
    for (int q = 0; q < 3; ++q) {
      const std::vector<Lit> assume = RandomAssumptions(&rng, cnf.num_vars());
      // Fresh solvers: propagation alone must agree literal for literal.
      Solver fresh_implicit, fresh_explicit;
      fresh_implicit.AddCnf(cnf);
      fresh_explicit.AddCnf(cnf.Materialized());
      ExpectSameProbe(&fresh_implicit, &fresh_explicit, cnf.num_vars(), assume,
                      where + " fresh");
      probes += ExpectSameBehaviour(cnf, &implicit, &explicit_, assume, where);
    }
    // Grow a block and append a clause over its new variables, as a
    // session extension does; the explicit side gets the new ternaries.
    const int fed = cnf.num_clauses();
    GrowBlock(&cnf, 0, cnf.order_block(0).size + 1);
    const OrderBlock& b0 = cnf.order_block(0);
    const int last = b0.size - 1;
    cnf.AddClause({Lit::Neg(b0.at(0, last)), Lit::Pos(b0.at(last, 1))});
    implicit.AddCnfFrom(cnf, fed);
    // Re-adding the clauses the explicit side already holds is harmless.
    explicit_.AddCnf(cnf.Materialized());
    // A Suggest-style query: order atoms of the grown block assumed as a
    // kept rule asserts them.
    {
      const std::vector<Lit> assume = {Lit::Pos(b0.at(1, 0)),
                                       Lit::Pos(b0.at(last, 1))};
      probes += ExpectSameBehaviour(cnf, &implicit, &explicit_, assume,
                                    where + " atoms");
    }
    for (int q = 0; q < 2; ++q) {
      const std::vector<Lit> assume = RandomAssumptions(&rng, cnf.num_vars());
      probes += ExpectSameBehaviour(cnf, &implicit, &explicit_, assume,
                                    where + " grown");
    }
    implicit.Simplify();
    explicit_.Simplify();
    const SolveResult r = implicit.Solve();
    ASSERT_EQ(r, explicit_.Solve()) << where;
    if (r == SolveResult::kSat) {
      EXPECT_TRUE(ModelClosed(cnf, implicit)) << where;
      ++sat;
    } else {
      ++unsat;
    }
    materialized += implicit.materialized_axioms() > 0 ? 1 : 0;
    // Clauses learnt from conflicts on materialized reasons are implied
    // by the explicit formula.
    if (implicit.stats().conflicts > 0) ++conflicted;
    for (const std::vector<Lit>& learnt : implicit.LearntClauses()) {
      std::vector<Lit> negation;
      for (const Lit l : learnt) negation.push_back(~l);
      Solver check;
      check.AddCnf(cnf.Materialized());
      EXPECT_EQ(check.SolveWithAssumptions(negation), SolveResult::kUnsat)
          << where;
    }
  }
  // Both verdicts occur, and reasons really get materialized.
  EXPECT_GT(sat, 30);
  EXPECT_GT(unsat, 10);
  EXPECT_GT(materialized, 30);
  EXPECT_GT(probes, 300);
  EXPECT_GT(conflicted, 10);
}

TEST(OrderAxiomsTest, CycleIsRefutedThroughTheBlock) {
  // A 4-value block with the cycle 0 < 1 < 2 < 3 < 0 forbidden only by
  // transitivity and asymmetry: every search has to derive it.
  Cnf cnf;
  cnf.AddOrderBlock();
  GrowBlock(&cnf, 0, 4);
  const OrderBlock& b = cnf.order_block(0);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      cnf.AddBinary(Lit::Neg(b.at(i, j)), Lit::Neg(b.at(j, i)));
    }
  }
  // (x01 ∨ x12) ∧ (x12 ∨ x23) ∧ x30 ∧ (x01 ∨ x23): non-Horn, so the
  // solver must branch and hit conflicts through the block.
  cnf.AddClause({Lit::Pos(b.at(0, 1)), Lit::Pos(b.at(1, 2))});
  cnf.AddClause({Lit::Pos(b.at(1, 2)), Lit::Pos(b.at(2, 3))});
  cnf.AddClause({Lit::Pos(b.at(0, 1)), Lit::Pos(b.at(2, 3))});
  cnf.AddUnit(Lit::Pos(b.at(3, 0)));
  Solver implicit, explicit_;
  implicit.AddCnf(cnf);
  explicit_.AddCnf(cnf.Materialized());
  const SolveResult r = implicit.Solve();
  EXPECT_EQ(r, explicit_.Solve());
  if (r == SolveResult::kSat) {
    EXPECT_TRUE(ModelClosed(cnf, implicit));
  }
  // With 3 < 0 and 0 < 1 < 2 < 3 all forced the formula is UNSAT.
  const std::vector<Lit> cycle = {Lit::Pos(b.at(0, 1)), Lit::Pos(b.at(1, 2)),
                                  Lit::Pos(b.at(2, 3))};
  EXPECT_EQ(implicit.SolveWithAssumptions(cycle), SolveResult::kUnsat);
  EXPECT_EQ(explicit_.SolveWithAssumptions(cycle), SolveResult::kUnsat);
  // The refutation ran through ternaries materialized as reasons.
  EXPECT_GT(implicit.materialized_axioms(), 0);
}

// The open probe's trail is exactly its assignment: every trail literal
// true, one per assigned variable.
void ExpectTrailIsAssignment(const Solver& s, int n_vars,
                             const std::string& where) {
  int assigned = 0;
  for (Var v = 0; v < n_vars; ++v) {
    assigned += s.ProbeValue(v) != Lbool::kUndef ? 1 : 0;
  }
  const std::span<const Lit> trail = s.ProbeTrail();
  EXPECT_EQ(static_cast<int>(trail.size()), assigned) << where;
  for (const Lit l : trail) {
    EXPECT_EQ(s.ProbeValue(l.var()),
              l.negated() ? Lbool::kFalse : Lbool::kTrue)
        << where << " " << l.ToString();
  }
}

// ProbeExtend: BeginProbe(base) then ProbeExtend(extra) reaches the
// fixpoint of BeginProbe(base ∪ extra), on random block + clause
// formulas; a refuted extension leaves the solver at level 0 with no
// probe open; and later probes and solves answer as on a solver that
// never probed.
TEST(OrderAxiomsTest, ProbeExtendReachesTheJointFixpoint) {
  Rng rng(0xe7e4d);
  int extended = 0, refuted = 0;
  for (int round = 0; round < 400; ++round) {
    const Cnf cnf = RandomBlockCnf(&rng, round % 2 == 0);
    const int n_vars = cnf.num_vars();
    const std::vector<Lit> base = RandomAssumptions(&rng, n_vars);
    const std::vector<Lit> extra = RandomAssumptions(&rng, n_vars);
    std::vector<Lit> both = base;
    both.insert(both.end(), extra.begin(), extra.end());
    const std::string where = "round " + std::to_string(round);
    Solver joint, split, never;
    joint.AddCnf(cnf);
    split.AddCnf(cnf);
    never.AddCnf(cnf);

    const bool joint_ok = joint.BeginProbe(both);
    if (!split.BeginProbe(base)) {
      EXPECT_FALSE(joint_ok) << where;
      continue;
    }
    const bool split_ok = split.ProbeExtend(extra);
    ASSERT_EQ(split_ok, joint_ok) << where;
    if (split_ok) {
      ++extended;
      for (Var v = 0; v < n_vars; ++v) {
        ASSERT_EQ(split.ProbeValue(v), joint.ProbeValue(v))
            << where << " var " << v;
      }
      ExpectTrailIsAssignment(split, n_vars, where);
      split.EndProbe();
      joint.EndProbe();
    } else {
      ++refuted;
      // Closed at level 0: the trail holds just the level-0 facts, which
      // an empty probe opened now reproduces.
      const std::vector<Lit> level0(split.ProbeTrail().begin(),
                                    split.ProbeTrail().end());
      ASSERT_TRUE(split.BeginProbe({})) << where;
      EXPECT_TRUE(std::ranges::equal(split.ProbeTrail(), level0)) << where;
      split.EndProbe();
    }

    // Later queries do not move: probes first (a solve's learnt clauses
    // would strengthen propagation differently on each side), then solves.
    for (const std::vector<Lit>& assume : {base, both}) {
      const bool ps = split.BeginProbe(assume);
      ASSERT_EQ(ps, never.BeginProbe(assume)) << where;
      if (!ps) continue;
      for (Var v = 0; v < n_vars; ++v) {
        ASSERT_EQ(split.ProbeValue(v), never.ProbeValue(v))
            << where << " var " << v;
      }
      split.EndProbe();
      never.EndProbe();
    }
    for (const std::vector<Lit>& assume : {base, both}) {
      EXPECT_EQ(split.SolveWithAssumptions(assume),
                never.SolveWithAssumptions(assume))
          << where;
    }
    EXPECT_EQ(split.Solve(), never.Solve()) << where;
  }
  EXPECT_GT(extended, 150);
  EXPECT_GT(refuted, 20);
}

TEST(OrderAxiomsTest, ConflictingProbeExtensionClosesTheProbe) {
  // x_01 implies y and ¬x_02; y ∧ z is a conflict. Extending the probe
  // on x_01 by x_02 meets a literal it already made false, by z a
  // conflict only propagation finds.
  Cnf cnf;
  cnf.AddOrderBlock();
  GrowBlock(&cnf, 0, 3);
  const OrderBlock& b = cnf.order_block(0);
  const Var y = cnf.NewVar();
  const Var z = cnf.NewVar();
  cnf.AddBinary(Lit::Neg(b.at(0, 1)), Lit::Pos(y));
  cnf.AddBinary(Lit::Neg(b.at(0, 1)), Lit::Neg(b.at(0, 2)));
  cnf.AddClause({Lit::Neg(y), Lit::Neg(z), Lit::Neg(b.at(1, 2))});
  cnf.AddBinary(Lit::Neg(z), Lit::Pos(b.at(1, 2)));
  const Lit x01 = Lit::Pos(b.at(0, 1));
  for (const Lit bad : {Lit::Pos(b.at(0, 2)), Lit::Pos(z)}) {
    Solver s;
    s.AddCnf(cnf);
    ASSERT_TRUE(s.BeginProbe(std::vector<Lit>{x01}));
    EXPECT_EQ(s.ProbeValue(y), Lbool::kTrue);
    const std::vector<Lit> extra = {bad};
    EXPECT_FALSE(s.ProbeExtend(extra)) << bad.ToString();
    EXPECT_TRUE(s.ProbeTrail().empty()) << bad.ToString();
    EXPECT_EQ(s.ProbeValue(y), Lbool::kUndef) << bad.ToString();
    // Nothing was learnt, and the solver still answers.
    EXPECT_EQ(s.stats().conflicts, 0);
    ASSERT_TRUE(s.BeginProbe(std::vector<Lit>{x01}));
    s.EndProbe();
    EXPECT_EQ(s.SolveWithAssumptions(std::vector<Lit>{x01, bad}),
              SolveResult::kUnsat);
    EXPECT_EQ(s.Solve(), SolveResult::kSat);
  }
}

TEST(OrderAxiomsTest, VivificationSurvivesAxiomsMaterializedByItsProbes) {
  // Vivifying (¬x_01 ∨ y ∨ z) assumes x_01 above level 0; with every
  // x_1k a level-0 fact, and so by the block's asymmetry every x_k1
  // false, that probe materializes as reasons the d-2 ternaries
  // (0, 1, k) that make x_0k true and the d-2 ternaries (k, 0, 1) that
  // make x_k0 false. They outgrow the arena many times over, so it
  // reallocates under the probe, which then reads the clause's next
  // literal (a use-after-free under ASan if it kept a pointer into the
  // arena).
  constexpr int kSize = 40;
  Cnf cnf;
  cnf.AddOrderBlock();
  GrowBlock(&cnf, 0, kSize);
  const OrderBlock& b = cnf.order_block(0);
  for (int k = 2; k < kSize; ++k) cnf.AddUnit(Lit::Pos(b.at(1, k)));
  const Var y = cnf.NewVar();
  const Var z = cnf.NewVar();
  SolverOptions opts;
  opts.use_inprocessing = true;
  Solver s(opts);
  s.AddCnf(cnf);
  ASSERT_TRUE(s.Simplify());  // primes vivification: nothing distilled
  s.AddClause({Lit::Neg(b.at(0, 1)), Lit::Pos(y), Lit::Pos(z)});
  const size_t arena_before = s.arena_words();
  ASSERT_TRUE(s.Simplify());
  EXPECT_EQ(s.materialized_axioms(), 2 * (kSize - 2));
  EXPECT_GT(s.arena_words(), 8 * arena_before);
  cnf.AddClause({Lit::Neg(b.at(0, 1)), Lit::Pos(y), Lit::Pos(z)});
  Solver ref;
  ref.AddCnf(cnf.Materialized());
  const std::vector<Lit> assume = {Lit::Pos(b.at(0, 1)), Lit::Neg(y)};
  ASSERT_EQ(s.SolveWithAssumptions(assume), SolveResult::kSat);
  EXPECT_EQ(ref.SolveWithAssumptions(assume), SolveResult::kSat);
  EXPECT_TRUE(s.ModelValue(z));
  EXPECT_TRUE(ModelClosed(cnf, s));
}

TEST(OrderAxiomsTest, GrowingABlockValueByValueKeepsItsMirrorQuadratic) {
  // One new domain value per round, as a long session adds them: the
  // block grows 199 times, and its value mirror must stay quadratic in
  // the block size (a fresh region per growth adds up to cubic). Each
  // round also asserts that the new value follows the previous one, so
  // the closure must keep deriving x_i,last for every earlier i through
  // the grown rows and columns.
  Cnf cnf;
  cnf.AddOrderBlock();
  GrowBlock(&cnf, 0, 2);
  cnf.AddUnit(Lit::Pos(cnf.order_block(0).at(0, 1)));
  Solver s;
  s.AddCnf(cnf);
  for (int size = 3; size <= 200; ++size) {
    const int fed = cnf.num_clauses();
    GrowBlock(&cnf, 0, size);
    cnf.AddUnit(Lit::Pos(cnf.order_block(0).at(size - 2, size - 1)));
    s.AddCnfFrom(cnf, fed);
    const size_t bound = 16 * static_cast<size_t>(size + 8) * (size + 8);
    ASSERT_LE(s.order_value_bytes(), bound) << "size " << size;
  }
  const OrderBlock& b = cnf.order_block(0);
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  for (int i = 0; i < b.size; ++i) {
    for (int j = i + 1; j < b.size; ++j) {
      ASSERT_TRUE(s.ModelValue(b.at(i, j))) << i << " < " << j;
    }
  }
  EXPECT_TRUE(ModelClosed(cnf, s));
}

// --- sessions over the corpora ------------------------------------------

Dataset SmallCorpus(const std::string& kind) {
  if (kind == "person") {
    PersonOptions o;
    o.num_entities = 4;
    o.min_tuples = 6;
    o.max_tuples = 20;
    return GeneratePerson(o);
  }
  if (kind == "nba") {
    NbaOptions o;
    o.num_entities = 6;
    return GenerateNba(o);
  }
  CareerOptions o;
  o.num_entities = 6;
  o.max_tuples = 40;
  return GenerateCareer(o);
}

// A user tuple with the value "fresh<round>" in every attribute, more
// current than every tuple: it grows every domain by one value.
PartialTemporalOrder FreshTupleDelta(const Specification& se, int round) {
  const int n_attrs = se.schema().size();
  const int t_o = se.instance().size();
  PartialTemporalOrder ot;
  ot.new_tuples.push_back(Tuple(std::vector<Value>(
      n_attrs, Value::Str("fresh" + std::to_string(round)))));
  for (int a = 0; a < n_attrs; ++a) {
    for (int t = 0; t < t_o; ++t) ot.orders.emplace_back(a, t, t_o);
  }
  return ot;
}

// Runs `check` on the built session of every corpus entity and again
// after each of two fresh-tuple extensions (stopping at an invalid Se).
void ForEachSessionRound(
    const std::function<void(ResolutionSession*, const std::string&)>&
        check,
    const ResolveOptions& options = {}) {
  for (const std::string kind : {"person", "nba", "career"}) {
    const Dataset ds = SmallCorpus(kind);
    for (size_t i = 0; i < ds.entities.size(); ++i) {
      auto session =
          ResolutionSession::Create(ds.MakeSpec(static_cast<int>(i)), options);
      ASSERT_TRUE(session.ok());
      for (int round = 0; round <= 2; ++round) {
        if (!session->CheckValidity().valid) break;
        check(&*session, kind + " " + std::to_string(i) + " round " +
                             std::to_string(round));
        if (round == 2) break;
        ASSERT_TRUE(
            session->ExtendWith(FreshTupleDelta(session->spec(), round)).ok());
      }
    }
  }
}

bool SameOrders(const DeducedOrders& a, const DeducedOrders& b) {
  if (a.per_attr.size() != b.per_attr.size()) return false;
  for (size_t k = 0; k < a.per_attr.size(); ++k) {
    if (a.per_attr[k].Pairs() != b.per_attr[k].Pairs()) return false;
  }
  return true;
}

// --- (b) DeduceOrder: native blocks vs materialized counters -------------

TEST(OrderAxiomsTest, DeduceOrderMatchesMaterializedFormula) {
  DeduceOptions paper;
  DeduceOptions strict;
  strict.paper_negative_units = false;
  strict.totality_propagation = false;
  // Negative units recorded as reversed pairs but not propagated: the
  // mode in which the rules for false order atoms show in Od.
  DeduceOptions negatives;
  negatives.totality_propagation = false;
  int checks = 0, grown = 0, assumed = 0;
  DeduceScratch kept;
  Rng rng(0xded);
  ForEachSessionRound([&](ResolutionSession* s, const std::string& where) {
    const Instantiation& inst = s->instantiation();
    const Cnf cnf = BuildCnf(inst);
    const Cnf explicit_cnf = cnf.Materialized();
    const std::vector<Lit>& guards = inst.guard_assumptions();
    for (const DeduceOptions& mode : {paper, strict, negatives}) {
      const DeducedOrders implicit =
          DeduceOrder(inst, cnf, mode, guards, &kept);
      EXPECT_TRUE(SameOrders(implicit,
                             DeduceOrder(inst, explicit_cnf, mode, guards)))
          << where;
      EXPECT_TRUE(SameOrders(implicit, DeduceOrder(inst, cnf, mode, guards)))
          << where << " (fresh scratch)";
    }
    ++checks;
    grown += where.find("round 0") == std::string::npos ? 1 : 0;
    // Two extra order facts on one triple u, v, w — two of x_uv, x_vw,
    // x_uw, either sign, either order — reach every rule of the ternary
    // (u, v, w) from every side. Only sets that some total order
    // satisfies (the reference adds totality x_ab ∨ x_ba): there every
    // literal either mode propagates holds, so the fixpoint is unique.
    Solver reference;
    reference.AddCnf(explicit_cnf);
    for (int k = 0; k < cnf.num_order_blocks(); ++k) {
      const OrderBlock& b = cnf.order_block(k);
      for (int u = 0; u < b.size; ++u) {
        for (int v = u + 1; v < b.size; ++v) {
          reference.AddClause({Lit::Pos(b.at(u, v)), Lit::Pos(b.at(v, u))});
        }
      }
    }
    for (int q = 0; q < 2; ++q) {
      const OrderBlock& b =
          cnf.order_block(static_cast<int>(rng.Below(cnf.num_order_blocks())));
      if (b.size < 3) continue;
      const int u = static_cast<int>(rng.Below(b.size));
      const int v = (u + 1 + static_cast<int>(rng.Below(b.size - 1))) % b.size;
      int w = static_cast<int>(rng.Below(b.size));
      while (w == u || w == v) w = (w + 1) % b.size;
      const Var atoms[3] = {b.at(u, v), b.at(v, w), b.at(u, w)};
      for (int pattern = 0; pattern < 24; ++pattern) {
      const int skip = pattern % 3;
      const Var first = atoms[skip == 0 ? 1 : 0];
      const Var second = atoms[skip == 2 ? 1 : 2];
      std::vector<Lit> facts = {Lit(first, (pattern / 3) % 2 == 1),
                                Lit(second, (pattern / 6) % 2 == 1)};
      if (pattern >= 12) std::swap(facts[0], facts[1]);
      std::vector<Lit> assume = guards;
      assume.insert(assume.end(), facts.begin(), facts.end());
      if (reference.SolveWithAssumptions(assume) != SolveResult::kSat) continue;
      for (const DeduceOptions& mode : {paper, strict, negatives}) {
        EXPECT_TRUE(SameOrders(DeduceOrder(inst, cnf, mode, assume, &kept),
                               DeduceOrder(inst, explicit_cnf, mode, assume)))
            << where << " triple " << q << " pattern " << pattern;
      }
      ++assumed;
      }
    }
  });
  EXPECT_GT(checks, 30);
  EXPECT_GT(grown, 15);
  EXPECT_GT(assumed, 500);
}

// --- the independent oracle: strict DeduceOrder = Lemma 6 ----------------

TEST(OrderAxiomsTest, StrictDeduceOrderIsTheLemma6PairSet) {
  // Φ(Se) is Horn, so its entailed atoms are its unit-propagation
  // closure. The reference asks a solver holding the materialized formula
  // (no order blocks, so no closure propagator) one Lemma-6 query per
  // pair.
  DeduceOptions strict;
  strict.paper_negative_units = false;
  strict.totality_propagation = false;
  int checks = 0, pairs = 0;
  ForEachSessionRound([&](ResolutionSession* s, const std::string& where) {
    const Instantiation& inst = s->instantiation();
    const std::vector<Lit>& guards = inst.guard_assumptions();
    const Cnf cnf = BuildCnf(inst);
    Solver reference;
    reference.AddCnf(cnf.Materialized());
    const DeducedOrders exact = Lemma6DeduceShared(inst, &reference, guards);
    const DeducedOrders fast = DeduceOrder(inst, cnf, strict, guards);
    EXPECT_TRUE(SameOrders(fast, exact)) << where;
    ++checks;
    pairs += exact.CountPairs();
  });
  EXPECT_GT(checks, 30);
  EXPECT_GT(pairs, 100);
}

// --- (c) local search only reports closed assignments ------------------

SolverOptions SlsOptions() {
  SolverOptions o;
  o.use_sls_seeding = true;
  o.use_inprocessing = true;
  return o;
}

TEST(OrderAxiomsTest, InprocessedSessionSolverMatchesTheMaterializedFormula) {
  // The `--solver sls` flags on the Lemma-6 pipeline: every ExtendWith
  // vivifies the round's delta on the persistent solver, whose probes
  // materialize axioms, and NaiveDeduce's probe then runs on the result.
  // Validity and the deduced orders match the per-pair Lemma-6 loop on a
  // fresh solver holding the materialized formula.
  ResolveOptions options;
  options.solver = SlsOptions();
  options.naive_deduce = true;
  int checks = 0;
  ForEachSessionRound(
      [&](ResolutionSession* s, const std::string& where) {
        const std::vector<Lit>& guards = s->instantiation().guard_assumptions();
        Solver reference;
        reference.AddCnf(BuildCnf(s->instantiation()).Materialized());
        EXPECT_EQ(s->CheckValidity().valid,
                  reference.SolveWithAssumptions(guards) == SolveResult::kSat)
            << where;
        EXPECT_TRUE(SameOrders(
            s->Deduce(),
            Lemma6DeduceShared(s->instantiation(), &reference, guards)))
            << where;
        ++checks;
      },
      options);
  EXPECT_GT(checks, 30);
}

TEST(OrderAxiomsTest, LocalSearchNeverReportsAnOpenAssignmentFeasible) {
  Rng rng(0x515);
  int feasible = 0, infeasible = 0;
  for (int round = 0; round < 200; ++round) {
    const Cnf cnf = RandomBlockCnf(&rng, round % 2 == 0);
    Solver s(SlsOptions());
    s.AddCnf(cnf);
    const std::vector<Lit> assume = RandomAssumptions(&rng, cnf.num_vars());
    const sat::LocalSearchResult r = s.SeedFromLocalSearch(assume);
    if (!r.ran) continue;
    const bool closed =
        Closed(cnf, [&](Var v) { return r.model[v] != 0; });
    if (r.feasible) {
      EXPECT_TRUE(closed) << "round " << round;
      EXPECT_EQ(r.hard_unsat, 0) << "round " << round;
      ++feasible;
    } else {
      EXPECT_GT(r.hard_unsat, 0) << "round " << round;
      ++infeasible;
    }
    // Whatever the pass seeded, the exact search agrees with the
    // materialized formula and its models are closed.
    Solver ref;
    ref.AddCnf(cnf.Materialized());
    const SolveResult v = s.SolveWithAssumptions(assume);
    ASSERT_EQ(v, ref.SolveWithAssumptions(assume)) << "round " << round;
    if (v == SolveResult::kSat) {
      EXPECT_TRUE(ModelClosed(cnf, s)) << "round " << round;
    }
  }
  EXPECT_GT(feasible, 3);
  EXPECT_GT(infeasible, 10);
}

TEST(OrderAxiomsTest, LocalSearchCountsABothTruePairAsOpen) {
  // (x_01 ∨ y) and (x_10 ∨ y) under the assumption ¬y: the explicit
  // clauses hold only with x_01 and x_10 both true, which the block's
  // asymmetry forbids. Local search sees only the explicit clauses, so
  // its best assignment sets both; it must not report that feasible, or
  // the assignment would enter the model cache and answer the solve below.
  Cnf cnf;
  cnf.AddOrderBlock();
  GrowBlock(&cnf, 0, 2);
  const OrderBlock& b = cnf.order_block(0);
  const Var y = cnf.NewVar();
  cnf.AddClause({Lit::Pos(b.at(0, 1)), Lit::Pos(y)});
  cnf.AddClause({Lit::Pos(b.at(1, 0)), Lit::Pos(y)});
  EXPECT_EQ(b.CountOpenAxioms(
                [&](Var v) { return v == b.at(0, 1) || v == b.at(1, 0); },
                INT64_MAX),
            1);
  Solver s(SlsOptions());
  s.AddCnf(cnf);
  const std::vector<Lit> assume = {Lit::Neg(y)};
  const sat::LocalSearchResult r = s.SeedFromLocalSearch(assume);
  ASSERT_TRUE(r.ran);
  EXPECT_FALSE(r.feasible);
  EXPECT_GT(r.hard_unsat, 0);
  EXPECT_EQ(s.SolveWithAssumptions(assume), SolveResult::kUnsat);
  EXPECT_EQ(s.stats().model_cache_hits, 0);
}

// --- (d) Cnf value semantics and DIMACS -----------------------------------

void ExpectSameClauses(const Cnf& a, const Cnf& b) {
  ASSERT_EQ(a.num_clauses(), b.num_clauses());
  for (int c = 0; c < a.num_clauses(); ++c) {
    const auto ca = a.clause(c);
    const auto cb = b.clause(c);
    ASSERT_EQ(std::vector<Lit>(ca.begin(), ca.end()),
              std::vector<Lit>(cb.begin(), cb.end()))
        << "clause " << c;
  }
}

void ExpectSameBlocks(const Cnf& a, const Cnf& b) {
  ASSERT_EQ(a.num_order_blocks(), b.num_order_blocks());
  for (int k = 0; k < a.num_order_blocks(); ++k) {
    EXPECT_EQ(a.order_block(k).size, b.order_block(k).size);
    EXPECT_EQ(a.order_block(k).vars, b.order_block(k).vars);
  }
}

TEST(OrderAxiomsTest, CnfCopyMoveAndClearCarryTheBlocks) {
  Rng rng(7);
  const Cnf original = RandomBlockCnf(&rng, true);
  ASSERT_GT(original.num_order_blocks(), 0);
  int64_t implicit = 0;  // transitivity ternaries and asymmetry binaries
  for (int k = 0; k < original.num_order_blocks(); ++k) {
    const int64_t d = original.order_block(k).size;
    implicit += d * (d - 1) * (d - 2) + d * (d - 1) / 2;
  }
  EXPECT_EQ(original.num_implicit_clauses(), implicit);
  EXPECT_EQ(original.Materialized().num_clauses(),
            original.num_clauses() + implicit);
  EXPECT_EQ(original.Materialized().num_order_blocks(), 0);

  Cnf copy(original);
  ExpectSameBlocks(copy, original);
  ExpectSameClauses(copy, original);
  EXPECT_NE(copy.identity(), original.identity());

  Cnf assigned;
  assigned = original;
  ExpectSameBlocks(assigned, original);

  Cnf moved(std::move(copy));
  ExpectSameBlocks(moved, original);
  EXPECT_EQ(copy.num_order_blocks(), 0);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(copy.num_implicit_clauses(), 0);

  Cnf move_assigned;
  move_assigned = std::move(moved);
  ExpectSameBlocks(move_assigned, original);
  EXPECT_EQ(moved.num_order_blocks(), 0);  // NOLINT(bugprone-use-after-move)

  const uint64_t id = move_assigned.identity();
  move_assigned.Clear();
  EXPECT_EQ(move_assigned.num_order_blocks(), 0);
  EXPECT_EQ(move_assigned.num_clauses(), 0);
  EXPECT_NE(move_assigned.identity(), id);

  // Growth keeps every existing entry and the identity.
  Cnf grown(original);
  const uint64_t gid = grown.identity();
  const OrderBlock before = grown.order_block(0);
  GrowBlock(&grown, 0, before.size + 2);
  EXPECT_EQ(grown.identity(), gid);
  for (int i = 0; i < before.size; ++i) {
    for (int j = 0; j < before.size; ++j) {
      if (i != j) {
        EXPECT_EQ(grown.order_block(0).at(i, j), before.at(i, j));
      }
    }
  }
}

TEST(OrderAxiomsTest, DimacsRoundTripsToTheMaterializedFormula) {
  Rng rng(11);
  for (int round = 0; round < 20; ++round) {
    const Cnf cnf = RandomBlockCnf(&rng, round % 2 == 0);
    const std::string text = sat::ToDimacs(cnf);
    EXPECT_EQ(text, sat::ToDimacs(cnf.Materialized()));
    auto parsed = sat::FromDimacs(text);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->num_vars(), cnf.num_vars());
    ExpectSameClauses(*parsed, cnf.Materialized());
  }
}

}  // namespace
}  // namespace ccr
