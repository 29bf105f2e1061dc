// Sharded trace replay: one compressed trace, many cache simulators.
//
// The trace is cut at sync points into a deterministic shard plan (a
// function of the trace and the target shard size only — never of worker
// count).  Workers pull shards from an atomic cursor, each decoding its
// byte range into a private cachesim::Hierarchy replica, and the
// per-shard CacheStats are combined with the commutative, associative
// CacheStats::operator+= — so the merged totals are bit-identical whether
// 1 or 8 threads did the work (replay_test pins this).
//
// Shard boundaries are cache-state resets: each shard's replica starts
// cold, so a K-shard replay counts more compulsory misses than one
// sequential pass (the classic trade of time-parallel simulation), up to
// shards * lines-per-hierarchy extra.  That is not noise: on blocked LU
// at N=192 (~9.4M accesses, over two default shards) a 256 KB cache's miss
// ratio comes out 11-122% high.  A trace that fits in a single shard is
// replayed exactly, shard plan or not.
#pragma once

#include <cstdint>
#include <vector>

#include "cachesim/cache.hpp"
#include "trace/format.hpp"

namespace blk::trace {

struct ReplayOptions {
  std::vector<cachesim::CacheConfig> levels = {cachesim::CacheConfig{}};
  unsigned workers = 0;  ///< simulation threads; 0 = hardware concurrency
  /// Target records per shard.  The shard *plan* depends only on this and
  /// the trace, so results are reproducible across machines and worker
  /// counts.  Traces at or below this size form a single shard and are
  /// replayed exactly like a sequential simulation.
  std::uint64_t shard_records = 4u << 20;
};

struct ReplayResult {
  std::vector<cachesim::CacheStats> levels;  ///< merged, one per level
  std::uint64_t back_invalidations = 0;
  std::size_t shards = 0;
  std::uint64_t records = 0;

  /// AMAT over the merged stats (latencies: one per level plus memory).
  [[nodiscard]] double amat(std::span<const double> latencies) const {
    return cachesim::amat(levels, latencies);
  }
};

/// Replay `t` through per-shard Hierarchy replicas on a worker pool and
/// merge the stats.  Deterministic: same trace + same options => same
/// result, bit for bit, at any worker count.
[[nodiscard]] ReplayResult replay(const EncodedTrace& t,
                                  const ReplayOptions& opt);

}  // namespace blk::trace
