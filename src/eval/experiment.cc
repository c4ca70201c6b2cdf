#include "src/eval/experiment.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <thread>

#include "src/core/session.h"
#include "src/eval/pick.h"

namespace ccr {

void RecomputePctTrueByRound(ExperimentResult* r) {
  const size_t n_rounds = r->accuracy_by_round.size();
  r->pct_true_by_round.resize(n_rounds);
  for (size_t k = 0; k < n_rounds; ++k) {
    const AccuracyCounts& c = r->accuracy_by_round[k];
    r->pct_true_by_round[k] =
        c.conflicts == 0 ? 0.0
                         : static_cast<double>(c.deduced) / c.conflicts;
  }
}

std::vector<int> ShardIndices(int num_entities, int shard, int num_shards) {
  std::vector<int> out;
  if (num_shards <= 0 || shard < 0 || shard >= num_shards) return out;
  out.reserve(static_cast<size_t>(num_entities / num_shards) + 1);
  for (int i = shard; i < num_entities; i += num_shards) out.push_back(i);
  return out;
}

Status ExperimentOptions::Validate() const {
  if (max_rounds < 0) {
    return Status::InvalidArgument(
        "ExperimentOptions: max_rounds must be >= 0");
  }
  if (answers_per_round < 1) {
    return Status::InvalidArgument(
        "ExperimentOptions: answers_per_round must be >= 1");
  }
  if (num_threads > kMaxExperimentThreads) {
    return Status::InvalidArgument(
        "ExperimentOptions: num_threads must be <= " +
        std::to_string(kMaxExperimentThreads));
  }
  const auto unit = [](double x) { return x >= 0.0 && x <= 1.0; };
  if (!unit(sigma_fraction) || !unit(gamma_fraction) ||
      !unit(oracle_answer_prob)) {
    return Status::InvalidArgument(
        "ExperimentOptions: sigma_fraction, gamma_fraction and "
        "oracle_answer_prob must be in [0, 1]");
  }
  ResolveOptions r = resolve;
  r.max_rounds = max_rounds;
  return r.Validate();
}

ExperimentResult RunExperiment(const Dataset& ds,
                               const ExperimentOptions& options,
                               const std::vector<int>& entity_indices) {
  CCR_CHECK(options.Validate().ok());
  ExperimentResult out;
  const int n_rounds = options.max_rounds + 1;  // rounds 0..max
  out.accuracy_by_round.assign(n_rounds, AccuracyCounts{});

  std::vector<int> indices = entity_indices;
  if (indices.empty()) {
    indices.resize(ds.entities.size());
    for (size_t i = 0; i < ds.entities.size(); ++i) {
      indices[i] = static_cast<int>(i);
    }
  }
  const int n = static_cast<int>(indices.size());

  // Resolve entities under a work-stealing driver: workers pull the next
  // unclaimed batch of entities off a shared counter, so stragglers never
  // idle a thread. Each entity is fully independent — its own
  // specification copy, its own oracle (seeded by entity index), its own
  // solver — and drops its result into a per-entity slot. Pooling happens
  // afterwards in entity-index order, which makes the ExperimentResult
  // bit-identical at any thread count and any batch size (timings aside).
  const int n_threads = std::clamp(options.num_threads, 1, std::max(1, n));
  std::vector<std::optional<ResolveResult>> results(n);
  std::vector<Status> errors(n);
  // The claim counter lives alone on its cache line: it is the one word
  // every worker hammers, and sharing its line with the result slots (or
  // the lambda's captures) would put that contention on unrelated reads.
  struct alignas(64) ClaimCounter {
    std::atomic<int> v{0};
  };
  ClaimCounter next;
  // Batched claiming: one fetch_add per `batch` entities instead of per
  // entity. On small per-entity work the counter line bouncing between
  // cores is the scaling ceiling; batches amortize it while staying small
  // enough (<= 16, ~1/8 of a thread's fair share) that an unlucky batch
  // of hard entities cannot idle the other workers at the tail. Positions
  // claimed are positions in `indices`, so sharded runs (strided entity
  // subsets) batch equally well.
  const int batch = std::clamp(n / (n_threads * 8), 1, 16);
  // One rule set for every entity: the corpus's own, or one subset of it.
  const std::shared_ptr<const RuleSet> rules = ds.SubsetRules(
      options.sigma_fraction, options.gamma_fraction, options.subset_seed);
  auto worker = [&]() {
    // Cross-entity pooling: one scratch per worker, so consecutive
    // entities on this thread recycle the same solver arena / watch lists
    // / CNF pool instead of growing them from cold.
    SessionScratch scratch;
    for (;;) {
      const int begin = next.v.fetch_add(batch, std::memory_order_relaxed);
      if (begin >= n) break;
      const int end = std::min(begin + batch, n);
      for (int i = begin; i < end; ++i) {
        const int idx = indices[i];
        const EntityCase& ec = ds.entities[idx];
        const Specification se = ds.MakeSpec(idx, rules);
        TruthOracle oracle(ec.truth, options.answers_per_round,
                           options.oracle_answer_prob,
                           options.oracle_seed + static_cast<uint64_t>(idx));
        ResolveOptions ropts = options.resolve;
        ropts.max_rounds = options.max_rounds;
        // Never let a caller-set scratch leak through: one scratch shared
        // by several workers would be a data race (SessionScratch serves
        // one resolution at a time); each worker uses its own.
        ropts.scratch = &scratch;
        auto rr_or = Resolve(se, &oracle, ropts);
        if (rr_or.ok()) {
          results[i] = std::move(rr_or).value();
        } else {
          errors[i] = rr_or.status();
        }
      }
    }
  };
  if (n_threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(n_threads);
    for (int t = 0; t < n_threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  for (int i = 0; i < n; ++i) {
    const EntityCase& ec = ds.entities[indices[i]];
    if (!results[i].has_value()) {
      if (out.error.ok()) out.error = errors[i];
      continue;
    }
    const ResolveResult& rr = *results[i];
    ++out.entities;
    if (!rr.valid) ++out.invalid_entities;
    out.max_rounds_used = std::max(out.max_rounds_used, rr.rounds_used);
    for (const RoundTrace& t : rr.trace) {
      out.encode_ms += t.encode_ms;
      out.validity_ms += t.validity_ms;
      out.deduce_ms += t.deduce_ms;
      out.suggest_ms += t.suggest_ms;
      out.solver_encode += t.encode_solver;
      out.solver_validity += t.validity_solver;
      out.solver_deduce += t.deduce_solver;
      out.solver_suggest += t.suggest_solver;
    }
    // Accuracy after exactly k rounds; if the run ended earlier the final
    // state carries forward (the entity is finished).
    for (int k = 0; k < n_rounds; ++k) {
      const int avail =
          std::min<int>(k, static_cast<int>(rr.round_values.size()) - 1);
      if (avail < 0) {
        // Invalid on round 0: nothing resolved.
        AccuracyCounts c;
        c.conflicts = ec.instance.CountConflictAttributes();
        out.accuracy_by_round[k].Add(c);
        continue;
      }
      out.accuracy_by_round[k].Add(
          ScoreAssignment(ec.instance, ec.truth, rr.round_values[avail],
                          rr.round_resolved[avail]));
    }
  }

  RecomputePctTrueByRound(&out);
  return out;
}

Result<AccuracyCounts> RunPick(const Dataset& ds, uint64_t seed,
                               const std::vector<int>& entity_indices) {
  AccuracyCounts pooled;
  Rng rng(seed);
  std::vector<int> indices = entity_indices;
  if (indices.empty()) {
    indices.resize(ds.entities.size());
    for (size_t i = 0; i < ds.entities.size(); ++i) {
      indices[i] = static_cast<int>(i);
    }
  }
  const std::shared_ptr<const RuleSet> favored = FavoredPickRules(*ds.rules);
  for (int idx : indices) {
    const EntityCase& ec = ds.entities[idx];
    const Specification se = ds.MakeSpec(idx);
    CCR_ASSIGN_OR_RETURN(const PickResult pick,
                         PickBaseline(se, &rng, favored));
    pooled.Add(
        ScoreAssignment(ec.instance, ec.truth, pick.values, pick.resolved));
  }
  return pooled;
}

}  // namespace ccr
