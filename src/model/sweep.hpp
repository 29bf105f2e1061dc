// Empirical refiner for the blocking-factor choice.
//
// Each candidate is measured exactly: the blocked program runs on the
// bytecode VM with the factor written into its runtime scalar, and the
// access trace streams straight into a cachesim::Hierarchy of its own
// (cachesim::simulate_run), a batch at a time, so no trace is kept.
// Workers each compile the program once and take candidates from a
// shared cursor; every run starts from the same seeded store, so rows are
// bit-identical at any worker count.
//
// The candidate with the lowest L1 miss ratio (or AMAT, when per-level
// latencies are supplied) wins.
#pragma once

#include <string>
#include <vector>

#include "cachesim/cache.hpp"
#include "ir/program.hpp"

namespace blk::trace {
class TraceStore;
}  // namespace blk::trace

namespace blk::model {

struct SweepOptions {
  std::vector<long> candidates;   ///< ks values to measure, ascending
  std::string ks_scalar = "KS";   ///< runtime scalar holding the factor
  ir::Env probe_params;           ///< parameter bindings (without ks)
  std::vector<cachesim::CacheConfig> levels = {cachesim::CacheConfig{}};
  std::vector<double> latencies;  ///< num_levels+1 entries switch to AMAT
  unsigned workers = 0;           ///< 0: hardware concurrency (capped)
  /// Unused by the sweep: kept only because perfbench's harness still
  /// sets it.
  trace::TraceStore* store = nullptr;
};

struct CandidateResult {
  long ks = 0;
  std::vector<cachesim::CacheStats> levels;  ///< one per hierarchy level
  double metric = 0.0;
};

struct SweepResult {
  std::vector<CandidateResult> rows;  ///< in candidate order
  std::size_t best_index = 0;         ///< argmin of metric
  std::string metric_name;            ///< "miss_ratio" or "amat"
};

/// Measure every candidate against `blocked` (a program whose blocking
/// factor is the declared runtime scalar `ks_scalar`).  Deterministic at
/// any worker count.  Throws blk::Error on an empty candidate list, an
/// undeclared ks scalar, or an empty cache-level list.
[[nodiscard]] SweepResult sweep_block_sizes(const ir::Program& blocked,
                                            const SweepOptions& opt);

}  // namespace blk::model
