// Empirical refiner for the blocking-factor choice.
//
// Each candidate's trace is obtained once — synthesized analytically when
// the program's access pattern is affine (one RUNA op per inner loop
// instance, megabytes where raw records are gigabytes), or recorded
// through the VM into the compressed encoder otherwise — and kept in a
// TraceStore keyed by (program, params, ks, sampling).  Replays run
// sharded across the worker pool with a deterministic merge; a caller
// that passes its own store across sweeps re-tunes against a different
// cache geometry without re-executing the program.  Structural sampling
// (every k-th block instance) is validated against a full replay of one
// probe candidate and falls back to full tracing when the sampled L1
// miss ratio disagrees beyond `sample_tolerance`.
//
// The candidate with the lowest L1 miss ratio (or AMAT, when per-level
// latencies are supplied) wins, and results are bit-identical at any
// worker count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cachesim/cache.hpp"
#include "ir/program.hpp"
#include "trace/store.hpp"

namespace blk::model {

struct SweepOptions {
  std::vector<long> candidates;   ///< ks values to measure, ascending
  std::string ks_scalar = "KS";   ///< runtime scalar holding the factor
  ir::Env probe_params;           ///< parameter bindings (without ks)
  std::vector<cachesim::CacheConfig> levels = {cachesim::CacheConfig{}};
  std::vector<double> latencies;  ///< num_levels+1 entries switch to AMAT
  unsigned workers = 0;           ///< 0: hardware concurrency (capped)
  /// Keep every `sample_every`-th block instance (trace/synth.hpp's
  /// sample units; 1 = full trace).  Only honoured when the program is trace-
  /// synthesizable; validated against a full replay before use.
  long sample_every = 1;
  /// Max |sampled - full| L1 miss-ratio disagreement on the validation
  /// candidate before sampling is abandoned for this sweep.
  double sample_tolerance = 0.02;
  std::uint64_t shard_records = 4u << 20;  ///< replay shard target
  /// Traces kept across sweeps; nullptr: a store private to this sweep.
  trace::TraceStore* store = nullptr;
};

struct CandidateResult {
  long ks = 0;
  std::vector<cachesim::CacheStats> levels;  ///< one per hierarchy level
  double metric = 0.0;
  std::uint64_t trace_len = 0;   ///< records replayed (sampled if sampling)
  bool synthesized = false;      ///< trace from the affine synthesizer
  double compression = 0.0;      ///< raw bytes / encoded bytes
};

struct SweepResult {
  std::vector<CandidateResult> rows;  ///< in candidate order
  std::size_t best_index = 0;         ///< argmin of metric
  std::string metric_name;            ///< "miss_ratio" or "amat"

  // Trace-pipeline evidence.
  long sample_every = 1;           ///< effective stride after validation
  bool sample_validated = false;   ///< a sampled-vs-full probe ran
  double sample_delta = 0.0;       ///< probe |sampled - full| L1 miss ratio
  std::uint64_t store_hits = 0;    ///< candidates served from the store
  std::uint64_t store_misses = 0;  ///< candidates traced this sweep
  std::string note;                ///< e.g. why sampling was dropped
};

/// Measure every candidate against `blocked` (a program whose blocking
/// factor is the declared runtime scalar `ks_scalar`).  Deterministic at
/// any worker count.  Throws blk::Error on an empty candidate list, an
/// undeclared ks scalar, or an empty cache-level list.
[[nodiscard]] SweepResult sweep_block_sizes(const ir::Program& blocked,
                                            const SweepOptions& opt);

}  // namespace blk::model
