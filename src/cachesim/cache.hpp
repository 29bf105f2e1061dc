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
///
/// Each set keeps the tags of its resident blocks in recency order, most
/// recently used first, plus a count of how many it holds.  That order is
/// the whole of true-LRU state, so no clock or per-way stamp is kept: a
/// hit moves its block to the front, a miss in a set with a free way
/// fills without evicting, and a miss in a full set drops the last block.
/// The resident count, not a sentinel tag, marks the free ways: with
/// 1-byte lines every 64-bit tag names a real block.  An 8-way set is one
/// 64-byte run of tags, and a hit on the set's most recent block (most
/// accesses of a blocked loop nest) is one compare.
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

  /// Drop `addr`'s line if resident (back-invalidation), keeping the other
  /// blocks of its set in recency order; returns true when a line was
  /// actually dropped.  Not counted as a capacity eviction.
  bool invalidate(std::uint64_t addr);

  /// Whether `addr`'s line is resident; changes no state or counter.
  [[nodiscard]] bool contains(std::uint64_t addr) const;

  void reset();
  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] const CacheConfig& config() const { return cfg_; }

 private:
  friend class Hierarchy;  // inlines the most-recent-block hit

  [[nodiscard]] std::size_t set_of(std::uint64_t block) const {
    return static_cast<std::size_t>(block) & set_mask_;
  }

  CacheConfig cfg_;
  unsigned line_shift_;    ///< log2(line_bytes)
  unsigned way_shift_;     ///< log2(assoc)
  std::size_t set_mask_;   ///< num_sets - 1
  /// num_sets * assoc block numbers, set-major; set s's resident blocks
  /// are its first resident_[s] entries, most recently used first.
  std::vector<std::uint64_t> tags_;
  std::vector<std::size_t> resident_;
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
/// block, every line of it cached in a level above is back-invalidated
/// (the real mechanism on inclusive hierarchies, and the reason upper-
/// level hit ratios degrade when a trace overflows lower-level sets).  As
/// in hardware, an upper-level hit does not refresh the lower level's LRU
/// state, so a block hot in L1 can still become L2's LRU victim — an
/// "inclusion victim".
class Hierarchy {
 public:
  /// Throws blk::Error when a level's line is larger than a lower level's:
  /// a fill of such a line could not stay inside one lower-level block.
  explicit Hierarchy(std::vector<CacheConfig> levels);

  /// Simulate one access; returns the level that hit (0-based), or the
  /// number of levels when it missed everywhere (memory).
  std::size_t access(std::uint64_t addr);

  /// Lines dropped from upper levels to preserve inclusion.
  [[nodiscard]] std::uint64_t back_invalidations() const {
    return back_invalidations_;
  }

  /// Bulk replay of a trace batch through every level; equivalent to
  /// access() per record.  An access to the most recent block of its L1
  /// set is an L1 hit that changes no LRU order, so it is counted inline
  /// and only the others take the per-level path.
  void simulate(std::span<const interp::TraceRecord> recs);

  [[nodiscard]] std::size_t num_levels() const { return levels_.size(); }
  [[nodiscard]] const Cache& level(std::size_t i) const { return levels_[i]; }
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
  /// Purge every line of the block `level` just evicted from the levels
  /// above it, counting each line dropped.
  void back_invalidate(std::size_t level, std::uint64_t victim_addr);

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
