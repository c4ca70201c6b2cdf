// ccr_experiment: the multi-process shard of the evaluation pipeline.
//
// Run mode resolves one shard of a generated corpus and serializes the
// ExperimentResult as JSON; merge mode pools shard files back into the
// result a single unsharded run would produce. Because the corpus is
// deterministic in its generator seed and AccuracyCounts pool losslessly,
// sharding a run across processes (or machines — shard files are plain
// JSON, scp them) is exact, which scripts/shard.sh asserts byte-for-byte.
//
//   # one shard of four, two worker threads, timing-free deterministic out
//   ccr_experiment --dataset person --entities 24 --shard 1/4
//       --threads 2 --no-timings --out shard1.json
//   # pool the shards
//   ccr_experiment --merge shard*.json --no-timings --out merged.json

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/ccr.h"
#include "src/common/strings.h"

namespace ccr {
namespace {

struct CliOptions {
  std::string dataset = "person";
  int entities = 24;
  uint64_t seed = 0;  // 0 = the generator's default seed
  int min_tuples = 0;  // 0 = the generator's default
  int max_tuples = 0;
  int shard = 0;
  int num_shards = 1;
  int threads = 1;
  int rounds = 3;
  int answers_per_round = 1 << 20;
  double sigma_fraction = 1.0;
  double gamma_fraction = 1.0;
  std::string deduce = "fast";     // fast (default) | naive (Lemma 6)
  bool include_timings = true;
  bool solver_stats = false;
  std::string out = "-";
  bool merge_mode = false;
  std::vector<std::string> merge_inputs;
};

void PrintUsage(std::FILE* to) {
  std::fprintf(to,
               "Usage:\n"
               "  ccr_experiment [flags]                 run one shard\n"
               "  ccr_experiment --merge F1 F2... [flags] pool shard files\n"
               "\n"
               "Run flags:\n"
               "  --dataset NAME    person | nba | career (default person)\n"
               "  --entities N      corpus size before sharding (default 24)\n"
               "  --seed S          generator seed (default: generator's)\n"
               "  --min-tuples N    override generator min tuples/entity\n"
               "  --max-tuples N    override generator max tuples/entity\n"
               "  --shard K/N       resolve entities i with i%%N == K "
               "(default 0/1)\n"
               "  --threads T       worker threads in this process, at most\n"
               "                    %d (default 1)\n"
               "  --rounds R        max interaction rounds (default 3)\n"
               "  --answers-per-round N  oracle answers per suggestion\n"
               "  --sigma F         fraction of Sigma (default 1.0)\n"
               "  --gamma F         fraction of Gamma (default 1.0)\n"
               "  --deduce D        fast (Fig. 5 unit propagation, default)\n"
               "                    | naive (the exact Lemma-6 pair set,\n"
               "                    read off the least model of the Horn\n"
               "                    formula Phi(Se) by one propagation)\n"
               "  --solver-stats    dump pooled per-phase solver statistics\n"
               "                    (conflicts, propagations, assumption\n"
               "                    solves, model-cache, inprocessing,\n"
               "                    Deduce probe/fallback, GetSug probe\n"
               "                    and fed clause/literal counters) on\n"
               "                    stderr\n"
               "\n"
               "Common flags:\n"
               "  --out FILE        output path, '-' = stdout (default)\n"
               "  --no-timings      zero the machine-dependent timings so\n"
               "                    equal results serialize to equal bytes\n"
               "  --help            this text\n"
               "\n"
               "Exits 2, writing no result, on a bad flag or when any\n"
               "entity fails to resolve (the first error is printed).\n",
               kMaxExperimentThreads);
}

// Reads K/N, each half a whole decimal integer, with 0 <= K < N <= INT_MAX
// (a count that overflows int must fail, not wrap to a small one).
bool ParseShard(std::string_view arg, int* shard, int* num_shards) {
  const size_t slash = arg.find('/');
  if (slash == std::string_view::npos) return false;
  int64_t k = 0;
  int64_t n = 0;
  if (!ParseInt64(arg.substr(0, slash), &k) ||
      !ParseInt64(arg.substr(slash + 1), &n)) {
    return false;
  }
  if (n < 1 || n > std::numeric_limits<int>::max() || k < 0 || k >= n) {
    return false;
  }
  *shard = static_cast<int>(k);
  *num_shards = static_cast<int>(n);
  return true;
}

// Returns 0/1/2 exit-style; fills `opts`.
int ParseArgs(int argc, char** argv, CliOptions* opts) {
  bool in_merge_list = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        return nullptr;
      }
      in_merge_list = false;
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return 1;
    }
    if (arg == "--merge") {
      opts->merge_mode = true;
      in_merge_list = true;
      continue;
    }
    if (arg == "--no-timings") {
      opts->include_timings = false;
      in_merge_list = false;
      continue;
    }
    if (arg == "--solver-stats") {
      opts->solver_stats = true;
      in_merge_list = false;
      continue;
    }
    if (arg == "--deduce") {
      const char* v = next_value("--deduce");
      if (v == nullptr) return 2;
      if (std::string(v) != "fast" && std::string(v) != "naive") {
        std::fprintf(stderr, "--deduce wants fast|naive, got %s\n", v);
        return 2;
      }
      opts->deduce = v;
      continue;
    }
    if (arg == "--dataset") {
      const char* v = next_value("--dataset");
      if (v == nullptr) return 2;
      opts->dataset = v;
      continue;
    }
    if (arg == "--out") {
      const char* v = next_value("--out");
      if (v == nullptr) return 2;
      opts->out = v;
      continue;
    }
    if (arg == "--shard") {
      const char* v = next_value("--shard");
      if (v == nullptr) return 2;
      if (!ParseShard(v, &opts->shard, &opts->num_shards)) {
        std::fprintf(stderr, "--shard wants K/N with 0 <= K < N, got %s\n", v);
        return 2;
      }
      continue;
    }
    if (arg == "--entities" || arg == "--min-tuples" ||
        arg == "--max-tuples" || arg == "--threads" || arg == "--rounds" ||
        arg == "--answers-per-round" || arg == "--seed") {
      const char* v = next_value(arg.c_str());
      if (v == nullptr) return 2;
      // Bounds per flag: --seed takes any non-negative 64-bit value,
      // --threads at most kMaxExperimentThreads, the rest are ints with a
      // flag-specific floor (a negative --rounds would make RunExperiment
      // size vectors with max_rounds + 1 < 0). The whole value must be a
      // decimal integer: "1O0", "abc" and an overflowing value fail.
      int64_t min_ok = 1;
      if (arg == "--rounds" || arg == "--min-tuples" ||
          arg == "--max-tuples" || arg == "--seed") {
        min_ok = 0;
      }
      int64_t max_ok = std::numeric_limits<int>::max();
      if (arg == "--seed") max_ok = std::numeric_limits<int64_t>::max();
      if (arg == "--threads") max_ok = kMaxExperimentThreads;
      int64_t n = 0;
      if (!ParseInt64(v, &n) || n < min_ok || n > max_ok) {
        std::fprintf(stderr, "%s wants an integer in [%lld, %lld], got '%s'\n",
                     arg.c_str(), static_cast<long long>(min_ok),
                     static_cast<long long>(max_ok), v);
        return 2;
      }
      if (arg == "--entities") opts->entities = static_cast<int>(n);
      if (arg == "--min-tuples") opts->min_tuples = static_cast<int>(n);
      if (arg == "--max-tuples") opts->max_tuples = static_cast<int>(n);
      if (arg == "--threads") opts->threads = static_cast<int>(n);
      if (arg == "--rounds") opts->rounds = static_cast<int>(n);
      if (arg == "--answers-per-round") {
        opts->answers_per_round = static_cast<int>(n);
      }
      if (arg == "--seed") opts->seed = static_cast<uint64_t>(n);
      continue;
    }
    if (arg == "--sigma" || arg == "--gamma") {
      const char* v = next_value(arg.c_str());
      if (v == nullptr) return 2;
      char* end = nullptr;
      const double f = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(f >= 0.0 && f <= 1.0)) {
        std::fprintf(stderr, "%s wants a fraction in [0, 1], got '%s'\n",
                     arg.c_str(), v);
        return 2;
      }
      if (arg == "--sigma") opts->sigma_fraction = f;
      if (arg == "--gamma") opts->gamma_fraction = f;
      continue;
    }
    if (in_merge_list && !arg.empty() && arg[0] != '-') {
      opts->merge_inputs.push_back(arg);
      continue;
    }
    std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
    PrintUsage(stderr);
    return 2;
  }
  return 0;
}

// Fails, instead of generating, when the flags leave the generator's
// options invalid (e.g. --min-tuples above the default --max-tuples).
Result<Dataset> MakeDataset(const CliOptions& o) {
  if (o.dataset == "nba") {
    NbaOptions opts;
    opts.num_entities = o.entities;
    if (o.seed != 0) opts.seed = o.seed;
    if (o.min_tuples > 0) opts.min_tuples = o.min_tuples;
    if (o.max_tuples > 0) opts.max_tuples = o.max_tuples;
    CCR_RETURN_NOT_OK(opts.Validate());
    return GenerateNba(opts);
  }
  if (o.dataset == "career") {
    CareerOptions opts;
    opts.num_entities = o.entities;
    if (o.seed != 0) opts.seed = o.seed;
    if (o.min_tuples > 0) opts.min_tuples = o.min_tuples;
    if (o.max_tuples > 0) opts.max_tuples = o.max_tuples;
    CCR_RETURN_NOT_OK(opts.Validate());
    return GenerateCareer(opts);
  }
  PersonOptions opts;
  opts.num_entities = o.entities;
  if (o.seed != 0) opts.seed = o.seed;
  if (o.min_tuples > 0) opts.min_tuples = o.min_tuples;
  if (o.max_tuples > 0) opts.max_tuples = o.max_tuples;
  CCR_RETURN_NOT_OK(opts.Validate());
  return GeneratePerson(opts);
}

int WriteOutput(const std::string& path, const std::string& content) {
  if (path == "-") {
    std::fwrite(content.data(), 1, content.size(), stdout);
    return 0;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 2;
  }
  out << content;
  return out.good() ? 0 : 2;
}

int RunMerge(const CliOptions& o) {
  std::vector<ExperimentResult> parts;
  parts.reserve(o.merge_inputs.size());
  for (const std::string& path : o.merge_inputs) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    auto part = ExperimentResultFromJson(buf.str());
    if (!part.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   part.status().ToString().c_str());
      return 2;
    }
    parts.push_back(std::move(part).value());
  }
  auto merged = MergeExperimentResults(parts);
  if (!merged.ok()) {
    std::fprintf(stderr, "%s\n", merged.status().ToString().c_str());
    return 2;
  }
  ResultJsonOptions jopts;
  jopts.include_timings = o.include_timings;
  return WriteOutput(o.out, ExperimentResultToJson(*merged, jopts));
}

// Dumps the pooled per-phase solver statistics on stderr (NOT into the
// result JSON: the serialized ExperimentResult must stay byte-identical
// across solver options and solver-heuristic choices).
void DumpSolverStats(const ExperimentResult& r) {
  auto dump = [](const char* phase, const sat::SolverStats& s, bool last) {
    std::fprintf(stderr,
                 "    \"%s\": {\"conflicts\": %lld, \"decisions\": %lld, "
                 "\"propagations\": %lld, \"binary_propagations\": %lld, "
                 "\"restarts\": %lld, \"assumption_solves\": %lld, "
                 "\"learnt_literals\": %lld, \"subsumed\": %lld, "
                 "\"vivified\": %lld, \"model_cache_hits\": %lld, "
                 "\"gc_runs\": %lld, \"gc_reclaimed_words\": %lld, "
                 "\"sweeps\": %lld, \"reductions\": %lld, "
                 "\"sls_seeded_models\": %lld, \"deduce_queries\": %lld, "
                 "\"suggest_probes\": %lld, "
                 "\"deduce_probes\": %lld, \"deduce_fallbacks\": %lld, "
                 "\"fed_clauses\": %lld, \"fed_literals\": %lld}%s\n",
                 phase, static_cast<long long>(s.conflicts),
                 static_cast<long long>(s.decisions),
                 static_cast<long long>(s.propagations),
                 static_cast<long long>(s.binary_propagations),
                 static_cast<long long>(s.restarts),
                 static_cast<long long>(s.assumption_solves),
                 static_cast<long long>(s.learnt_literals),
                 static_cast<long long>(s.subsumed),
                 static_cast<long long>(s.vivified),
                 static_cast<long long>(s.model_cache_hits),
                 static_cast<long long>(s.gc_runs),
                 static_cast<long long>(s.gc_reclaimed_words),
                 static_cast<long long>(s.sweeps),
                 static_cast<long long>(s.reductions),
                 static_cast<long long>(s.sls_seeded_models),
                 static_cast<long long>(s.deduce_queries),
                 static_cast<long long>(s.suggest_probes),
                 static_cast<long long>(s.deduce_probes),
                 static_cast<long long>(s.deduce_fallbacks),
                 static_cast<long long>(s.fed_clauses),
                 static_cast<long long>(s.fed_literals),
                 last ? "" : ",");
  };
  std::fprintf(stderr, "{\n  \"solver_stats\": {\n");
  dump("encode", r.solver_encode, false);
  dump("validity", r.solver_validity, false);
  dump("deduce", r.solver_deduce, false);
  dump("suggest", r.solver_suggest, true);
  std::fprintf(stderr, "  }\n}\n");
}

int RunShard(const CliOptions& o) {
  if (o.dataset != "person" && o.dataset != "nba" && o.dataset != "career") {
    std::fprintf(stderr, "unknown --dataset %s\n", o.dataset.c_str());
    return 2;
  }
  auto made = MakeDataset(o);
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
    return 2;
  }
  const Dataset ds = std::move(made).value();
  ExperimentOptions eopts;
  eopts.max_rounds = o.rounds;
  eopts.answers_per_round = o.answers_per_round;
  eopts.sigma_fraction = o.sigma_fraction;
  eopts.gamma_fraction = o.gamma_fraction;
  eopts.num_threads = o.threads;
  eopts.resolve.naive_deduce = o.deduce == "naive";
  const std::vector<int> indices = ShardIndices(
      static_cast<int>(ds.entities.size()), o.shard, o.num_shards);
  ExperimentResult result;
  if (indices.empty()) {
    // More shards than entities: this shard owns nothing. An empty index
    // list must NOT fall through to RunExperiment, which reads it as
    // "whole corpus" — that would double-count entities in the merge.
    // Emit the zero-entity result RunExperiment produces for no work.
    result.accuracy_by_round.assign(o.rounds + 1, AccuracyCounts{});
    RecomputePctTrueByRound(&result);
  } else {
    result = RunExperiment(ds, eopts, indices);
  }
  if (!result.error.ok()) {
    // An entity the engine could not resolve fails the run: its error is
    // not a verdict, so no result is written.
    std::fprintf(stderr, "%s\n", result.error.ToString().c_str());
    return 2;
  }
  if (o.solver_stats) DumpSolverStats(result);
  ResultJsonOptions jopts;
  jopts.include_timings = o.include_timings;
  return WriteOutput(o.out, ExperimentResultToJson(result, jopts));
}

}  // namespace
}  // namespace ccr

int main(int argc, char** argv) {
  ccr::CliOptions opts;
  const int parse = ccr::ParseArgs(argc, argv, &opts);
  if (parse == 1) return 0;  // --help
  if (parse != 0) return 2;
  if (opts.merge_mode) {
    if (opts.merge_inputs.empty()) {
      std::fprintf(stderr, "--merge needs at least one shard file\n");
      return 2;
    }
    return ccr::RunMerge(opts);
  }
  return ccr::RunShard(opts);
}
