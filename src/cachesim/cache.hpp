// Set-associative LRU cache simulator.
//
// Stands in for the paper's IBM RS/6000 540 data cache (64 KB) so the memory
// behaviour of point vs. blocked codes can be measured machine-independently:
// the interpreter's access trace is replayed through a Cache and the
// hit/miss counts demonstrate the temporal reuse the transformations create.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "interp/interp.hpp"
#include "interp/trace.hpp"

namespace blk::interp {
class ExecEngine;
}  // namespace blk::interp

namespace blk::cachesim {

/// Geometry of a simulated cache.  All fields must be powers of two and
/// line_bytes * assoc must divide size_bytes.
struct CacheConfig {
  std::size_t size_bytes = 64 * 1024;  ///< RS/6000 540 data-cache capacity
  std::size_t line_bytes = 64;
  std::size_t assoc = 4;

  [[nodiscard]] std::size_t num_sets() const {
    return size_bytes / (line_bytes * assoc);
  }
};

/// Aggregate counters for one simulation.
struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

  [[nodiscard]] double miss_ratio() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(misses) /
                               static_cast<double>(accesses);
  }

  /// Accumulate another simulation's counters.  Pure unsigned sums, so the
  /// combine is commutative and associative: merging per-shard stats yields
  /// bit-identical totals at any worker count or merge order (the sharded
  /// trace replay relies on this).
  CacheStats& operator+=(const CacheStats& o) {
    accesses += o.accesses;
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    return *this;
  }

  [[nodiscard]] friend CacheStats operator+(CacheStats a, const CacheStats& b) {
    a += b;
    return a;
  }

  [[nodiscard]] bool operator==(const CacheStats&) const = default;
};

/// Average memory-access time from per-level stats: every access pays
/// `latencies[0]`, and each level's misses additionally pay the next
/// level's latency (`latencies` has one entry per level plus memory).
/// Free function so merged shard stats can be scored without a Hierarchy.
[[nodiscard]] double amat(std::span<const CacheStats> levels,
                          std::span<const double> latencies);

/// One-level set-associative cache with true-LRU replacement.
class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  /// Simulate one access; returns true on hit.  Write-allocate policy:
  /// reads and writes are treated identically for residency.
  bool access(std::uint64_t addr);

  /// What one access did: hit/miss plus the line it displaced, so a
  /// hierarchy can enforce inclusion (a block evicted from a lower level
  /// must also leave the levels above it).
  struct AccessResult {
    bool hit = false;
    bool evicted = false;
    std::uint64_t victim_addr = 0;  ///< line-aligned address displaced
  };
  AccessResult access_ex(std::uint64_t addr);

  /// Drop `addr`'s line if resident (back-invalidation); returns true when
  /// a line was actually dropped.  Not counted as a capacity eviction.
  bool invalidate(std::uint64_t addr);

  /// Replay a whole trace batch (equivalent to calling access() per
  /// record, without per-access callback overhead).  Pairs with the VM's
  /// TraceBuffer: pass it as the buffer's flush sink to stream traces of
  /// any length through the cache in constant memory.
  void simulate(std::span<const interp::TraceRecord> recs);

  void reset();
  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] const CacheConfig& config() const { return cfg_; }

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t last_use = 0;
    bool valid = false;
  };

  CacheConfig cfg_;
  std::size_t set_shift_;  ///< log2(line_bytes)
  std::size_t set_mask_;   ///< num_sets - 1
  std::vector<Line> lines_;  ///< num_sets * assoc, set-major
  std::uint64_t clock_ = 0;
  CacheStats stats_;
};

/// Run `p` under `params` with inputs seeded by `seed`, replaying every
/// array access through a cache of geometry `cfg`; returns the statistics.
/// The one-level case of simulate_hierarchy().
[[nodiscard]] CacheStats simulate(const ir::Program& p, const ir::Env& params,
                                  const CacheConfig& cfg,
                                  std::uint64_t seed = 42);

/// Multi-level hierarchy: an access that misses level i is looked up in
/// level i+1.  Contents are kept *inclusive*: when a lower level evicts a
/// block, every level above it is back-invalidated (the real mechanism on
/// inclusive hierarchies, and the reason upper-level hit ratios degrade
/// when a trace overflows lower-level sets).  As in hardware, an upper-
/// level hit does not refresh the lower level's LRU state, so a block hot
/// in L1 can still become L2's LRU victim — an "inclusion victim".
class Hierarchy {
 public:
  explicit Hierarchy(std::vector<CacheConfig> levels);

  /// Simulate one access; returns the level that hit (0-based), or the
  /// number of levels when it missed everywhere (memory).
  std::size_t access(std::uint64_t addr);

  /// Lines dropped from upper levels to preserve inclusion.
  [[nodiscard]] std::uint64_t back_invalidations() const {
    return back_invalidations_;
  }

  /// Bulk replay of a trace batch through every level.
  void simulate(std::span<const interp::TraceRecord> recs);

  [[nodiscard]] std::size_t num_levels() const { return levels_.size(); }
  [[nodiscard]] const CacheStats& stats(std::size_t level) const {
    return levels_[level].stats();
  }
  [[nodiscard]] std::vector<CacheStats> level_stats() const;  ///< L1 first
  void reset();

  /// Average memory-access time under the given per-level hit latencies
  /// (cycles); `latencies` must have num_levels()+1 entries, the last
  /// being memory.
  [[nodiscard]] double amat(std::span<const double> latencies) const;

 private:
  std::vector<Cache> levels_;
  std::uint64_t back_invalidations_ = 0;
};

/// Run `eng` once on its store as the caller left it, streaming every
/// array access through `h` a batch at a time (constant memory at any
/// trace length).
void simulate_run(interp::ExecEngine& eng, Hierarchy& h);

/// Like simulate() but through a hierarchy; returns per-level stats.
[[nodiscard]] std::vector<CacheStats> simulate_hierarchy(
    const ir::Program& p, const ir::Env& params,
    std::vector<CacheConfig> levels, std::uint64_t seed = 42);

/// Human-readable one-line summary ("64KB/64B/4-way: 1234 acc, 12.3% miss").
[[nodiscard]] std::string summary(const CacheConfig& cfg,
                                  const CacheStats& st);

}  // namespace blk::cachesim
