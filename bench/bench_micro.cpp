// Substrate micro-benchmarks (google-benchmark): SAT solving, grounding
// (a fresh Build, and a session's recycled BuildInto plus ExtendWith),
// session creation (ResolutionSession::Create on a warm scratch, and on a
// scratch that last held a larger entity),
// CNF construction, unit-propagation deduction (counter-based and by a
// probe on the session solver), Suggest's rule mining (TrueDer, CompGraph
// and MaxClique), one warm session round, and max-clique.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/ccr.h"

namespace {

// Heap allocations this process made, counted by the global operator new
// below, so a benchmark can report its allocations per iteration.
std::atomic<int64_t> g_allocations{0};

}  // namespace

// Out of line, so that no caller sees malloc and free pair with new and
// delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace ccr;

// Random 3-SAT near the easy side of the phase transition.
sat::Cnf Random3Sat(int n_vars, double clause_ratio, uint64_t seed) {
  Rng rng(seed);
  sat::Cnf cnf;
  cnf.EnsureVars(n_vars);
  const int n_clauses = static_cast<int>(n_vars * clause_ratio);
  for (int c = 0; c < n_clauses; ++c) {
    sat::Lit lits[3];
    for (auto& l : lits) {
      l = sat::Lit(static_cast<sat::Var>(rng.Below(n_vars)),
                   rng.Chance(0.5));
    }
    cnf.AddTernary(lits[0], lits[1], lits[2]);
  }
  return cnf;
}

void BM_SatRandom3Sat(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const sat::Cnf cnf = Random3Sat(n, 3.5, 42);
  for (auto _ : state) {
    sat::Solver solver;
    solver.AddCnf(cnf);
    benchmark::DoNotOptimize(solver.Solve());
  }
  state.SetItemsProcessed(state.iterations() * cnf.num_clauses());
}
BENCHMARK(BM_SatRandom3Sat)->Arg(50)->Arg(100)->Arg(200);

void BM_SatPigeonhole(benchmark::State& state) {
  const int holes = static_cast<int>(state.range(0));
  const int pigeons = holes + 1;
  sat::Cnf cnf;
  auto var = [&](int p, int h) { return p * holes + h; };
  for (int p = 0; p < pigeons; ++p) {
    std::vector<sat::Lit> clause;
    for (int h = 0; h < holes; ++h) {
      clause.push_back(sat::Lit::Pos(var(p, h)));
    }
    cnf.AddClause(std::span<const sat::Lit>(clause.data(), clause.size()));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        cnf.AddBinary(sat::Lit::Neg(var(p1, h)), sat::Lit::Neg(var(p2, h)));
      }
    }
  }
  for (auto _ : state) {
    sat::Solver solver;
    solver.AddCnf(cnf);
    benchmark::DoNotOptimize(solver.Solve());
  }
}
BENCHMARK(BM_SatPigeonhole)->Arg(5)->Arg(6)->Arg(7);

Dataset PersonForBench(int tuples) {
  PersonOptions opts;
  opts.num_entities = 1;
  opts.min_tuples = tuples;
  opts.max_tuples = tuples;
  return GeneratePerson(opts);
}

void BM_Instantiation(benchmark::State& state) {
  const Dataset ds = PersonForBench(static_cast<int>(state.range(0)));
  const Specification se = ds.MakeSpec(0);
  for (auto _ : state) {
    auto inst = Instantiation::Build(se);
    benchmark::DoNotOptimize(inst.ok());
  }
  state.SetItemsProcessed(state.iterations() * se.instance().size());
}
BENCHMARK(BM_Instantiation)->Arg(50)->Arg(500)->Arg(5000);

// A session's grounding on the person-batch corpus shape (250-300 tuples,
// the full Σ and Γ): BuildInto a recycled Instantiation with guarded CFDs,
// then one ExtendWith by a user answer, cycling over 8 entities. Items are
// entities.
void BM_InstantiationSession(benchmark::State& state) {
  PersonOptions opts;
  opts.num_entities = 8;
  opts.min_tuples = 250;
  opts.max_tuples = 300;
  const Dataset ds = GeneratePerson(opts);
  std::vector<Specification> specs, extended;
  std::vector<PartialTemporalOrder> deltas;
  for (int e = 0; e < opts.num_entities; ++e) {
    specs.push_back(ds.MakeSpec(e));
    // Answer the first conflicted attribute with its true value.
    const std::vector<Value>& truth = ds.entities[e].truth;
    int attr = 0;
    while (attr + 1 < static_cast<int>(truth.size()) &&
           (truth[attr].is_null() ||
            !specs.back().instance().HasConflict(attr))) {
      ++attr;
    }
    deltas.push_back(*MakeAnswerDelta(specs.back(), {{attr, truth[attr]}}));
    extended.push_back(*Extend(specs.back(), deltas.back()));
  }
  InstantiationOptions guarded;
  guarded.guard_cfds = true;
  Instantiation inst;
  size_t e = 0;
  for (auto _ : state) {
    const size_t i = e++ % specs.size();
    benchmark::DoNotOptimize(
        Instantiation::BuildInto(specs[i], &inst, guarded).ok());
    benchmark::DoNotOptimize(
        inst.ExtendWith(extended[i], deltas[i], guarded).ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InstantiationSession);

// ResolutionSession::Create alone on one person-batch entity (250-300
// tuples, the full Σ and Γ) with a warm SessionScratch: ground, build the
// CNF, feed the solver. The previous session is destroyed outside the
// timed region, as a scratch serves one live session at a time.
void BM_SessionCreate(benchmark::State& state) {
  PersonOptions opts;
  opts.num_entities = 1;
  opts.min_tuples = 250;
  opts.max_tuples = 300;
  const Dataset ds = GeneratePerson(opts);
  const Specification se = ds.MakeSpec(0);
  SessionScratch scratch;
  ResolveOptions options;
  options.scratch = &scratch;
  std::optional<Result<ResolutionSession>> session;
  session.emplace(ResolutionSession::Create(se, options));  // warm-up
  for (auto _ : state) {
    state.PauseTiming();
    session.reset();
    state.ResumeTiming();
    session.emplace(ResolutionSession::Create(se, options));
    benchmark::DoNotOptimize(session->ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SessionCreate);

// Create of the median NBA entity (by tuple count, default corpus) on a
// SessionScratch that last held the corpus's largest entity (Arg 1), beside
// the same Create on a scratch that only ever held the median entity
// (Arg 0). A recycled scratch pays for the entity it opens, so the two
// should match. The previous sessions, and the largest entity's Create,
// run outside the timed region.
void BM_SessionCreatePooled(benchmark::State& state) {
  const bool after_largest = state.range(0) != 0;
  const Dataset ds = GenerateNba(NbaOptions{});
  std::vector<std::pair<int, int>> by_size;
  for (int e = 0; e < static_cast<int>(ds.entities.size()); ++e) {
    by_size.emplace_back(ds.entities[e].instance.size(), e);
  }
  std::sort(by_size.begin(), by_size.end());
  const Specification median = ds.MakeSpec(by_size[by_size.size() / 2].second);
  const Specification largest = ds.MakeSpec(by_size.back().second);
  SessionScratch scratch;
  ResolveOptions options;
  options.scratch = &scratch;
  std::optional<Result<ResolutionSession>> session;
  session.emplace(ResolutionSession::Create(median, options));  // warm-up
  for (auto _ : state) {
    state.PauseTiming();
    session.reset();
    if (after_largest) {
      session.emplace(ResolutionSession::Create(largest, options));
      session.reset();
    }
    state.ResumeTiming();
    session.emplace(ResolutionSession::Create(median, options));
    benchmark::DoNotOptimize(session->ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(after_largest ? "after the largest entity" : "own scratch");
}
BENCHMARK(BM_SessionCreatePooled)->Arg(0)->Arg(1);

void BM_BuildCnf(benchmark::State& state) {
  const Dataset ds = PersonForBench(static_cast<int>(state.range(0)));
  const Specification se = ds.MakeSpec(0);
  auto inst = Instantiation::Build(se);
  for (auto _ : state) {
    const sat::Cnf phi = BuildCnf(*inst);
    benchmark::DoNotOptimize(phi.num_clauses());
  }
}
BENCHMARK(BM_BuildCnf)->Arg(50)->Arg(500)->Arg(5000);

void BM_DeduceOrder(benchmark::State& state) {
  const Dataset ds = PersonForBench(static_cast<int>(state.range(0)));
  const Specification se = ds.MakeSpec(0);
  auto inst = Instantiation::Build(se);
  const sat::Cnf phi = BuildCnf(*inst);
  for (auto _ : state) {
    const DeducedOrders od = DeduceOrder(*inst, phi);
    benchmark::DoNotOptimize(od.CountPairs());
  }
  // Items are clauses of the full Φ, the order blocks' axioms included.
  state.SetItemsProcessed(state.iterations() *
                          (phi.num_clauses() + phi.num_implicit_clauses()));
}
BENCHMARK(BM_DeduceOrder)->Arg(50)->Arg(500)->Arg(5000);

// The fast pipeline's Deduce layer on the same inputs: one propagation
// probe on a live session's solver (ResolutionSession::Deduce), and, for
// reference, DeduceOrder over that session's guarded formula with a warm
// DeduceScratch — what sessions ran before and what perfbench's traced
// core.deduce span still times.
void BM_SessionDeduce(benchmark::State& state) {
  const Dataset ds = PersonForBench(static_cast<int>(state.range(0)));
  auto session = ResolutionSession::Create(ds.MakeSpec(0));
  for (auto _ : state) {
    const DeducedOrders od = session->Deduce();
    benchmark::DoNotOptimize(od.CountPairs());
  }
}
BENCHMARK(BM_SessionDeduce)->Arg(50)->Arg(500)->Arg(5000);

void BM_SessionDeduceOrder(benchmark::State& state) {
  const Dataset ds = PersonForBench(static_cast<int>(state.range(0)));
  auto session = ResolutionSession::Create(ds.MakeSpec(0));
  const Instantiation& inst = session->instantiation();
  const sat::Cnf phi = BuildCnf(inst);
  DeduceScratch scratch;
  for (auto _ : state) {
    const DeducedOrders od = DeduceOrder(inst, phi, {},
                                         inst.guard_assumptions(), &scratch);
    benchmark::DoNotOptimize(od.CountPairs());
  }
}
BENCHMARK(BM_SessionDeduceOrder)->Arg(50)->Arg(500)->Arg(5000);

// Suggest's rule mining on the person-batch corpus shape (250-300 tuples,
// the full Σ and Γ): TrueDer, CompGraph and the exact MaxClique, from the
// candidates and known values of a session's round-0 Deduce, cycling over
// 8 entities. Items are Suggest calls; `rules` is the mean rule count.
void BM_TrueDer(benchmark::State& state) {
  PersonOptions opts;
  opts.num_entities = 8;
  opts.min_tuples = 250;
  opts.max_tuples = 300;
  const Dataset ds = GeneratePerson(opts);
  struct Input {
    ResolutionSession session;
    std::vector<std::vector<int>> candidates;
    std::vector<int> known_true;
  };
  std::vector<Input> inputs;
  for (int e = 0; e < opts.num_entities; ++e) {
    auto session = ResolutionSession::Create(ds.MakeSpec(e));
    if (!session.ok()) {
      state.SkipWithError("session creation failed");
      return;
    }
    const DeducedOrders od = session->Deduce();
    const VarMap& vm = session->instantiation().varmap;
    inputs.push_back({std::move(*session), CandidateValues(vm, od),
                      ExtractTrueValueIndices(vm, od)});
  }
  int64_t rules = 0;
  size_t e = 0;
  for (auto _ : state) {
    const Input& in = inputs[e++ % inputs.size()];
    const std::vector<DerivationRule> mined =
        TrueDer(in.session.instantiation(), in.candidates, in.known_true);
    benchmark::DoNotOptimize(graph::MaxClique(CompGraph(mined)).size());
    rules += static_cast<int64_t>(mined.size());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["rules"] =
      static_cast<double>(rules) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_TrueDer);

// One warm framework round (validity, Deduce, V(A), Suggest) on a
// session whose RoundScratch already served it, for the first entity
// whose round 0 makes a suggestion: a person-batch entity (250-300
// tuples, the full Σ and Γ) or an NBA entity of the default corpus. The
// round repeats on an unchanged session, so every iteration does the
// same work. `allocs` is the heap allocations of one round (0 when the
// scratch is warm).
void BM_SessionRound(benchmark::State& state, const std::string& kind) {
  Dataset ds;
  if (kind == "person") {
    PersonOptions opts;
    opts.num_entities = 8;
    opts.min_tuples = 250;
    opts.max_tuples = 300;
    ds = GeneratePerson(opts);
  } else {
    ds = GenerateNba(NbaOptions{});
  }
  std::optional<ResolutionSession> session;
  for (int e = 0; e < static_cast<int>(ds.entities.size()); ++e) {
    auto created = ResolutionSession::Create(ds.MakeSpec(e));
    if (!created.ok()) {
      state.SkipWithError("session creation failed");
      return;
    }
    if (created->RunRound(/*want_suggestion=*/true).suggestion.has_value()) {
      session.emplace(std::move(*created));
      break;
    }
  }
  if (!session.has_value()) {
    state.SkipWithError("no entity's round 0 makes a suggestion");
    return;
  }
  for (auto _ : state) {
    const SessionRound& round = session->RunRound(/*want_suggestion=*/true);
    benchmark::DoNotOptimize(round.suggestion->attrs.size());
  }
  state.SetItemsProcessed(state.iterations());
  // Counted on one more round outside the loop, whose start and end
  // allocate in the benchmark library.
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  (void)session->RunRound(/*want_suggestion=*/true);
  state.counters["allocs"] = static_cast<double>(
      g_allocations.load(std::memory_order_relaxed) - before);
}
BENCHMARK_CAPTURE(BM_SessionRound, person, std::string("person"))
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SessionRound, nba, std::string("nba"))
    ->Unit(benchmark::kMicrosecond);

void BM_IsValidPerson(benchmark::State& state) {
  const Dataset ds = PersonForBench(static_cast<int>(state.range(0)));
  const Specification se = ds.MakeSpec(0);
  auto inst = Instantiation::Build(se);
  const sat::Cnf phi = BuildCnf(*inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsValidCnf(phi).valid);
  }
}
BENCHMARK(BM_IsValidPerson)->Arg(50)->Arg(500)->Arg(5000);

void BM_MaxClique(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  graph::Graph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.Chance(0.5)) g.AddEdge(u, v);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::MaxClique(g).size());
  }
}
BENCHMARK(BM_MaxClique)->Arg(20)->Arg(40)->Arg(60);

void BM_PartialOrderClosure(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    PartialOrder po(n);
    for (int i = 0; i + 1 < n; ++i) {
      benchmark::DoNotOptimize(po.Add(i, i + 1).ok());
    }
  }
  state.SetItemsProcessed(state.iterations() * (n - 1));
}
BENCHMARK(BM_PartialOrderClosure)->Arg(32)->Arg(128)->Arg(512);

}  // namespace
