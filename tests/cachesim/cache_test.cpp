// Cache simulator tests: geometry, LRU policy, and the paper-level claim
// that blocking cuts misses.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>
#include <string>
#include <vector>

#include "cachesim/cache.hpp"
#include "interp/vm.hpp"
#include "ir/builder.hpp"
#include "ir/error.hpp"
#include "kernels/ir_kernels.hpp"
#include "pm/runner.hpp"

namespace blk::cachesim {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(Cache({.size_bytes = 1000, .line_bytes = 64, .assoc = 4}),
               blk::Error);
  EXPECT_THROW(Cache({.size_bytes = 1024, .line_bytes = 48, .assoc = 4}),
               blk::Error);
  EXPECT_THROW(Cache({.size_bytes = 1024, .line_bytes = 64, .assoc = 3}),
               blk::Error);
}

TEST(Cache, NumSets) {
  CacheConfig cfg{.size_bytes = 64 * 1024, .line_bytes = 64, .assoc = 4};
  EXPECT_EQ(cfg.num_sets(), 256u);
}

TEST(Cache, SameLineHits) {
  Cache c({.size_bytes = 1024, .line_bytes = 64, .assoc = 2});
  EXPECT_FALSE(c.access(0));    // cold miss
  EXPECT_TRUE(c.access(8));     // same 64B line
  EXPECT_TRUE(c.access(63));
  EXPECT_FALSE(c.access(64));   // next line
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LruEvictsOldest) {
  // 2-way, 1 set per this address pattern: lines 0, S, 2S map to set 0.
  Cache c({.size_bytes = 256, .line_bytes = 64, .assoc = 2});  // 2 sets
  const std::uint64_t set_stride = 2 * 64;  // same set every 128 bytes
  EXPECT_FALSE(c.access(0 * set_stride));
  EXPECT_FALSE(c.access(1 * set_stride));
  EXPECT_TRUE(c.access(0 * set_stride));   // refresh line 0
  EXPECT_FALSE(c.access(2 * set_stride));  // evicts line 1 (LRU)
  EXPECT_TRUE(c.access(0 * set_stride));   // line 0 still resident
  EXPECT_FALSE(c.access(1 * set_stride));  // line 1 was evicted
  EXPECT_EQ(c.stats().evictions, 2u);
}

TEST(Cache, ResetClearsEverything) {
  Cache c({.size_bytes = 1024, .line_bytes = 64, .assoc = 2});
  (void)c.access(0);
  (void)c.access(0);
  c.reset();
  EXPECT_EQ(c.stats().accesses, 0u);
  EXPECT_FALSE(c.access(0));  // cold again
}

TEST(Cache, MissRatioSequentialScan) {
  // A sequential scan of doubles misses once per 8 elements (64B lines).
  Cache c({.size_bytes = 32 * 1024, .line_bytes = 64, .assoc = 4});
  for (std::uint64_t i = 0; i < 4096; ++i) (void)c.access(i * 8);
  EXPECT_DOUBLE_EQ(c.stats().miss_ratio(), 1.0 / 8.0);
}

TEST(Cache, ThrashingStrideMissesAlways) {
  // Stride = way-size: every access maps to set 0 and the working set
  // exceeds the associativity -> 100% misses after warmup.
  Cache c({.size_bytes = 4096, .line_bytes = 64, .assoc = 2});  // 32 sets
  const std::uint64_t stride = 64 * 32;  // same set
  for (int rep = 0; rep < 10; ++rep)
    for (std::uint64_t k = 0; k < 4; ++k) (void)c.access(k * stride);
  EXPECT_EQ(c.stats().hits, 0u);
}

// The paper's central memory claim on real code: simulate point vs blocked
// LU through a small cache; the blocked version must miss substantially
// less.
TEST(Cache, BlockedLuMissesLessThanPointLu) {
  Program point = blk::kernels::lu_point_ir();
  Program blocked = point.clone();
  blocked.param("KS");
  analysis::Assumptions hints;
  hints.assert_le(isub(iadd(ivar("K"), ivar("KS")), iconst(1)),
                  isub(ivar("N"), iconst(1)));
  pm::RunReport r = pm::run_spec(blocked, "autoblock(b=KS)", hints);
  ASSERT_EQ(r.passes[0].note, "blocked, 1 splits, 2 interchanges");

  CacheConfig tiny{.size_bytes = 16 * 1024, .line_bytes = 64, .assoc = 4};
  const long n = 96;  // 96x96 doubles = 72 KB >> 16 KB cache
  CacheStats sp = simulate(point, {{"N", n}}, tiny);
  CacheStats sb = simulate(blocked, {{"N", n}, {"KS", 16}}, tiny);
  EXPECT_EQ(sp.accesses, sb.accesses);  // same work, different order
  EXPECT_LT(static_cast<double>(sb.misses),
            0.7 * static_cast<double>(sp.misses))
      << "point misses " << sp.misses << " vs blocked " << sb.misses;
}

TEST(Cache, SummaryMentionsGeometry) {
  CacheConfig cfg{.size_bytes = 64 * 1024, .line_bytes = 64, .assoc = 4};
  CacheStats st{.accesses = 100, .hits = 90, .misses = 10, .evictions = 0};
  std::string s = summary(cfg, st);
  EXPECT_NE(s.find("64KB/64B/4-way"), std::string::npos);
}

}  // namespace
}  // namespace blk::cachesim

namespace blk::cachesim {
namespace {

TEST(Cache, BulkSimulateMatchesPerAccess) {
  // A one-level Hierarchy's simulate(span) must be observationally
  // identical to calling Cache::access() once per record, across
  // batch-boundary splits.
  std::vector<interp::TraceRecord> trace;
  for (std::uint64_t i = 0; i < 4000; ++i)
    trace.push_back({.addr = (i * 712ull) % 32768, .is_write = i % 4 == 0});

  CacheConfig cfg{.size_bytes = 4 * 1024, .line_bytes = 64, .assoc = 2};
  Cache single(cfg);
  for (const auto& r : trace) single.access(r.addr);

  for (std::size_t batch : {1ul, 7ul, 1024ul, trace.size()}) {
    Hierarchy bulk({cfg});
    for (std::size_t i = 0; i < trace.size(); i += batch) {
      auto n = std::min(batch, trace.size() - i);
      bulk.simulate(std::span<const interp::TraceRecord>(&trace[i], n));
    }
    EXPECT_EQ(bulk.stats(0).accesses, single.stats().accesses);
    EXPECT_EQ(bulk.stats(0).hits, single.stats().hits);
    EXPECT_EQ(bulk.stats(0).misses, single.stats().misses);
    EXPECT_EQ(bulk.stats(0).evictions, single.stats().evictions);
  }
}

TEST(Cache, StreamedTraceBufferMatchesDirectSimulation) {
  // Streaming a program's trace through a small TraceBuffer into the cache
  // gives the same statistics as the one-shot simulate() entry point.
  Program p = kernels::lu_point_ir();
  CacheConfig cfg{.size_bytes = 8 * 1024, .line_bytes = 64, .assoc = 4};
  CacheStats one_shot = simulate(p, {{"N", 32}}, cfg, 3);

  interp::ExecEngine eng(p, {{"N", 32}});
  interp::seed_store(eng.store(), 3);
  Hierarchy streamed({cfg});
  interp::TraceBuffer buf(
      64, &streamed, [](void* ctx, std::span<const interp::TraceRecord> recs) {
        static_cast<Hierarchy*>(ctx)->simulate(recs);
      });
  eng.run(buf);
  buf.flush();
  EXPECT_EQ(streamed.stats(0), one_shot);
}

TEST(Hierarchy, RequiresAtLeastOneLevel) {
  EXPECT_THROW(Hierarchy({}), blk::Error);
}

TEST(Hierarchy, AccessDescendsOnMiss) {
  Hierarchy h({{.size_bytes = 256, .line_bytes = 64, .assoc = 2},
               {.size_bytes = 4096, .line_bytes = 64, .assoc = 4}});
  EXPECT_EQ(h.access(0), 2u);   // cold: misses both -> memory
  EXPECT_EQ(h.access(0), 0u);   // L1 hit
  // Evict line 0 from tiny L1 (4 lines) with conflicting fills.
  for (std::uint64_t i = 1; i <= 8; ++i) (void)h.access(i * 128);
  EXPECT_EQ(h.access(0), 1u);   // gone from L1, still in L2
}

TEST(Hierarchy, AmatAccountsMissesPerLevel) {
  Hierarchy h({{.size_bytes = 256, .line_bytes = 64, .assoc = 2},
               {.size_bytes = 4096, .line_bytes = 64, .assoc = 4}});
  (void)h.access(0);            // miss, miss
  (void)h.access(0);            // L1 hit
  const double lat[] = {1.0, 10.0, 100.0};
  // 2 accesses * 1 + 1 L1 miss * 10 + 1 L2 miss * 100 = 112 -> /2 = 56.
  EXPECT_DOUBLE_EQ(h.amat(lat), 56.0);
  const double bad[] = {1.0, 10.0};
  EXPECT_THROW((void)h.amat(bad), blk::Error);
}

TEST(Hierarchy, ResetRestoresColdState) {
  Hierarchy h({{.size_bytes = 256, .line_bytes = 64, .assoc = 2},
               {.size_bytes = 4096, .line_bytes = 64, .assoc = 4}});
  (void)h.access(0);
  h.reset();
  EXPECT_EQ(h.access(0), 2u);
  EXPECT_EQ(h.stats(0).accesses, 1u);
}

TEST(Cache, InvalidWayPreferredOverLruVictim) {
  // With a free (invalid) way in the set, a fill must take it rather than
  // evict the LRU line.
  Cache c({.size_bytes = 128, .line_bytes = 64, .assoc = 2});  // 1 set
  EXPECT_FALSE(c.access(0));
  EXPECT_FALSE(c.access(64));   // way 1 was free: no eviction
  EXPECT_EQ(c.stats().evictions, 0u);
  EXPECT_TRUE(c.access(0));     // both lines resident
  EXPECT_TRUE(c.access(64));
}

TEST(Cache, AccessExReportsVictim) {
  Cache c({.size_bytes = 128, .line_bytes = 64, .assoc = 2});  // 1 set
  EXPECT_FALSE(c.access_ex(0).evicted);     // cold fill, free way
  EXPECT_FALSE(c.access_ex(128).evicted);   // cold fill, free way
  auto r = c.access_ex(256);                // set full: evicts LRU (addr 0)
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.victim_addr, 0u);
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(Cache, InvalidateIsNotACapacityEviction) {
  Cache c({.size_bytes = 128, .line_bytes = 64, .assoc = 2});
  (void)c.access(0);
  EXPECT_TRUE(c.invalidate(0));
  EXPECT_FALSE(c.invalidate(0));   // already gone
  EXPECT_FALSE(c.invalidate(64));  // never present
  EXPECT_EQ(c.stats().evictions, 0u);
  EXPECT_FALSE(c.access(0));       // refill is a miss
}

TEST(Cache, DirectMappedConflictsAlways) {
  // assoc=1: two lines mapping to the same set ping-pong forever.
  Cache c({.size_bytes = 256, .line_bytes = 64, .assoc = 1});  // 4 sets
  const std::uint64_t stride = 64 * 4;  // same set
  for (int rep = 0; rep < 8; ++rep) {
    EXPECT_FALSE(c.access(0));
    EXPECT_FALSE(c.access(stride));
  }
  EXPECT_EQ(c.stats().hits, 0u);
}

TEST(Cache, FullyAssociativeHoldsWholeCapacity) {
  // One set holding assoc lines: any assoc-sized working set is conflict-
  // free regardless of address spacing.
  Cache c({.size_bytes = 256, .line_bytes = 64, .assoc = 4});  // 1 set
  const std::uint64_t addrs[] = {0, 64, 4096, 1 << 20};
  for (std::uint64_t a : addrs) EXPECT_FALSE(c.access(a));
  for (std::uint64_t a : addrs) EXPECT_TRUE(c.access(a));
  EXPECT_EQ(c.stats().evictions, 0u);
}

TEST(Cache, SummaryPinsFixedPrecision) {
  // The satellite bug: default stream precision made the percentage
  // locale/magnitude dependent.  Pin the exact fixed-precision rendering.
  CacheConfig cfg{.size_bytes = 64 * 1024, .line_bytes = 64, .assoc = 4};
  CacheStats st{.accesses = 16, .hits = 14, .misses = 2, .evictions = 0};
  EXPECT_EQ(summary(cfg, st), "64KB/64B/4-way: 16 accesses, 12.50% miss");
  CacheStats third{.accesses = 3, .hits = 2, .misses = 1, .evictions = 0};
  EXPECT_EQ(summary(cfg, third), "64KB/64B/4-way: 3 accesses, 33.33% miss");
}

TEST(Hierarchy, BackInvalidatesUpperLevelsOnLowerEviction) {
  // The inclusion regression: L1 = 1 set x 2 ways, L2 = 2 sets x 1 way.
  // Lines 0 and 128 both live in L2 set 0, so filling 128 evicts 0 from
  // L2 — an inclusive hierarchy must then kick 0 out of L1 too.  The old
  // (buggy) code left it in L1 and the third access hit there.
  Hierarchy h({{.size_bytes = 128, .line_bytes = 64, .assoc = 2},
               {.size_bytes = 128, .line_bytes = 64, .assoc = 1}});
  EXPECT_EQ(h.access(0), 2u);    // cold
  EXPECT_EQ(h.access(128), 2u);  // evicts 0 from L2 set 0 -> purge L1
  EXPECT_EQ(h.back_invalidations(), 1u);
  EXPECT_EQ(h.access(0), 2u)
      << "line 0 must be gone from L1 once L2 dropped it (inclusion)";
}

TEST(Hierarchy, L1HitsDoNotRefreshL2Lru) {
  // Inclusion victim: a line hot in L1 is invisible to L2's LRU, so L2
  // may age it out — and the back-invalidation must still reach L1.
  Hierarchy h({{.size_bytes = 128, .line_bytes = 64, .assoc = 2},
               {.size_bytes = 256, .line_bytes = 64, .assoc = 2}});
  (void)h.access(0);            // L1 {0}; L2 set0 {0}
  (void)h.access(256);          // L1 {0,256}; L2 set0 {0,256}, 0 is LRU
  EXPECT_EQ(h.access(0), 0u);   // L1 hit: L2 never sees it
  (void)h.access(512);          // L2 set0 full: victim is 0 (still LRU)
  EXPECT_GE(h.back_invalidations(), 1u);
  EXPECT_EQ(h.access(0), 2u)
      << "0 was the L2 victim despite its L1 hits; inclusion purges it";
}

TEST(Hierarchy, ResetClearsBackInvalidations) {
  Hierarchy h({{.size_bytes = 128, .line_bytes = 64, .assoc = 2},
               {.size_bytes = 128, .line_bytes = 64, .assoc = 1}});
  (void)h.access(0);
  (void)h.access(128);
  ASSERT_GE(h.back_invalidations(), 1u);
  h.reset();
  EXPECT_EQ(h.back_invalidations(), 0u);
  EXPECT_EQ(h.access(0), 2u);  // cold again
}

TEST(Hierarchy, BlockedLuLowersAmat) {
  Program point = blk::kernels::lu_point_ir();
  Program blocked = point.clone();
  blocked.param("KS");
  analysis::Assumptions hints;
  hints.assert_le(isub(iadd(ivar("K"), ivar("KS")), iconst(1)),
                  isub(ivar("N"), iconst(1)));
  (void)pm::run_spec(blocked, "autoblock(b=KS)", hints);
  std::vector<CacheConfig> lvls{
      {.size_bytes = 8 * 1024, .line_bytes = 64, .assoc = 4},
      {.size_bytes = 64 * 1024, .line_bytes = 64, .assoc = 8}};
  const long n = 96;
  auto sp = simulate_hierarchy(point, {{"N", n}}, lvls);
  auto sb = simulate_hierarchy(blocked, {{"N", n}, {"KS", 16}}, lvls);
  // Fewer misses at both levels for the blocked version.
  EXPECT_LT(sb[0].misses, sp[0].misses);
  EXPECT_LT(sb[1].misses, sp[1].misses);
}

}  // namespace
}  // namespace blk::cachesim

// ---- Differential against the clock-stamped simulator ----------------------
//
// The simulator before sets were kept in recency order, as the reference:
// every way carries {tag, last_use, valid}, one clock stamps each access, a
// fill prefers an invalid way and otherwise evicts the minimum stamp, and the
// hierarchy back-invalidates the one upper line that holds the victim's
// address (exact when every level has the same line size, which is all the
// differential generates).  Any change in what the simulator reports — hit,
// victim, invalidation, level, counter — shows up as a mismatch here, which
// Sweep.MatchesDirectSimulationExactly (the same simulator on both sides)
// cannot see.

namespace blk::cachesim {
namespace {

class StampedCache {
 public:
  explicit StampedCache(const CacheConfig& cfg)
      : cfg_(cfg),
        set_shift_(static_cast<std::size_t>(std::countr_zero(cfg.line_bytes))),
        set_mask_(cfg.num_sets() - 1),
        lines_(cfg.num_sets() * cfg.assoc) {}

  Cache::AccessResult access_ex(std::uint64_t addr) {
    ++clock_;
    ++stats_.accesses;
    std::uint64_t block = addr >> set_shift_;
    std::size_t set = static_cast<std::size_t>(block) & set_mask_;
    Line* base = &lines_[set * cfg_.assoc];
    Line* victim = base;
    for (std::size_t w = 0; w < cfg_.assoc; ++w) {
      Line& line = base[w];
      if (line.valid && line.tag == block) {
        line.last_use = clock_;
        ++stats_.hits;
        return {.hit = true};
      }
      if (!line.valid) {
        victim = &line;
      } else if (victim->valid && line.last_use < victim->last_use) {
        victim = &line;
      }
    }
    ++stats_.misses;
    Cache::AccessResult result{.hit = false};
    if (victim->valid) {
      ++stats_.evictions;
      result.evicted = true;
      result.victim_addr = victim->tag << set_shift_;
    }
    victim->valid = true;
    victim->tag = block;
    victim->last_use = clock_;
    return result;
  }

  bool invalidate(std::uint64_t addr) {
    std::uint64_t block = addr >> set_shift_;
    std::size_t set = static_cast<std::size_t>(block) & set_mask_;
    Line* base = &lines_[set * cfg_.assoc];
    for (std::size_t w = 0; w < cfg_.assoc; ++w) {
      Line& line = base[w];
      if (line.valid && line.tag == block) {
        line.valid = false;
        return true;
      }
    }
    return false;
  }

  void reset() {
    lines_.assign(lines_.size(), Line{});
    clock_ = 0;
    stats_ = CacheStats{};
  }

  [[nodiscard]] const CacheStats& stats() const { return stats_; }

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t last_use = 0;
    bool valid = false;
  };
  CacheConfig cfg_;
  std::size_t set_shift_;
  std::size_t set_mask_;
  std::vector<Line> lines_;
  std::uint64_t clock_ = 0;
  CacheStats stats_;
};

class StampedHierarchy {
 public:
  explicit StampedHierarchy(const std::vector<CacheConfig>& levels) {
    for (const auto& cfg : levels) levels_.emplace_back(cfg);
  }

  std::size_t access(std::uint64_t addr) {
    for (std::size_t i = 0; i < levels_.size(); ++i) {
      Cache::AccessResult r = levels_[i].access_ex(addr);
      if (r.evicted)
        for (std::size_t j = 0; j < i; ++j)
          if (levels_[j].invalidate(r.victim_addr)) ++back_invalidations_;
      if (r.hit) return i;
    }
    return levels_.size();
  }

  void reset() {
    for (auto& l : levels_) l.reset();
    back_invalidations_ = 0;
  }

  [[nodiscard]] const CacheStats& stats(std::size_t i) const {
    return levels_[i].stats();
  }
  [[nodiscard]] std::uint64_t back_invalidations() const {
    return back_invalidations_;
  }

 private:
  std::vector<StampedCache> levels_;
  std::uint64_t back_invalidations_ = 0;
};

[[nodiscard]] std::uint64_t pick(std::mt19937_64& rng, std::uint64_t n) {
  return rng() % n;
}

[[nodiscard]] std::size_t pow2_upto(std::mt19937_64& rng, std::size_t hi) {
  return std::size_t{1} << pick(rng, std::countr_zero(hi) + 1);
}

/// A cache of `line` bytes per line: 64 B to 32 KB, 1 to 64 ways, and
/// sometimes a single set (fully associative).
[[nodiscard]] CacheConfig random_level(std::mt19937_64& rng,
                                       std::size_t line) {
  const std::size_t min_lines = std::max<std::size_t>(1, 64 / line);
  const std::size_t max_lines = 32 * 1024 / line;
  const std::size_t lines = std::max(min_lines, pow2_upto(rng, max_lines));
  std::size_t assoc = pow2_upto(rng, std::min<std::size_t>(lines, 64));
  if (lines <= 64 && pick(rng, 4) == 0) assoc = lines;
  return {.size_bytes = lines * line, .line_bytes = line, .assoc = assoc};
}

/// Seeded addresses mixing strided runs, revisits of recent addresses, runs
/// that collide in one set (`conflict` apart), uniform noise over `span`
/// bytes and, rarely, any 64-bit value (0 and ~0 included).
[[nodiscard]] std::vector<std::uint64_t> random_addresses(
    std::mt19937_64& rng, std::size_t n, std::uint64_t conflict,
    std::uint64_t span) {
  std::vector<std::uint64_t> out;
  out.reserve(n);
  while (out.size() < n) {
    const std::size_t run = 1 + pick(rng, 48);
    switch (pick(rng, 5)) {
      case 0: {  // strided
        const std::uint64_t strides[] = {1, 8, 64, 128, conflict,
                                         1 + pick(rng, 512)};
        const std::uint64_t stride = strides[pick(rng, 6)];
        std::uint64_t a = pick(rng, span);
        for (std::size_t i = 0; i < run; ++i, a += stride) out.push_back(a);
        break;
      }
      case 1:  // revisits
        for (std::size_t i = 0; i < run && !out.empty(); ++i)
          out.push_back(out[out.size() - 1 - pick(rng, std::min<std::size_t>(
                                                         out.size(), 64))]);
        break;
      case 2: {  // one set, more blocks than ways
        const std::uint64_t base = pick(rng, span);
        const std::uint64_t blocks = 1 + pick(rng, 80);
        for (std::size_t i = 0; i < run; ++i)
          out.push_back(base + pick(rng, blocks) * conflict);
        break;
      }
      case 3:
        for (std::size_t i = 0; i < run; ++i) out.push_back(pick(rng, span));
        break;
      default: {
        const std::uint64_t edges[] = {0, ~std::uint64_t{0}, rng()};
        out.push_back(edges[pick(rng, 3)]);
        break;
      }
    }
  }
  out.resize(n);
  return out;
}

[[nodiscard]] std::string geometry(const std::vector<CacheConfig>& levels) {
  std::string out;
  for (const CacheConfig& c : levels)
    out += (out.empty() ? "" : " + ") + std::to_string(c.size_bytes) + "B/" +
           std::to_string(c.line_bytes) + "B/" + std::to_string(c.assoc);
  return out;
}

[[nodiscard]] std::vector<interp::TraceRecord> as_records(
    const std::vector<std::uint64_t>& addrs) {
  std::vector<interp::TraceRecord> recs;
  recs.reserve(addrs.size());
  for (std::uint64_t a : addrs) recs.push_back({.addr = a, .is_write = false});
  return recs;
}

void expect_same_counters(const Hierarchy& h, const StampedHierarchy& ref,
                          const std::string& where) {
  for (std::size_t i = 0; i < h.num_levels(); ++i)
    ASSERT_EQ(h.stats(i), ref.stats(i)) << where << ", level " << i;
  ASSERT_EQ(h.back_invalidations(), ref.back_invalidations()) << where;
}

TEST(CacheDifferential, MatchesClockStampedCachePerOperation) {
  // access_ex (hit, eviction, victim), invalidate and reset, compared with
  // the clock-stamped cache after every operation.
  std::mt19937_64 rng(20261020);
  std::uint64_t evictions = 0, invalidated = 0;
  for (int g = 0; g < 400; ++g) {
    const std::size_t line = pow2_upto(rng, 128);
    const CacheConfig cfg = random_level(rng, line);
    SCOPED_TRACE(geometry({cfg}));
    Cache c(cfg);
    StampedCache ref(cfg);
    const std::uint64_t way_bytes = cfg.num_sets() * line;
    const auto addrs = random_addresses(rng, 1500, way_bytes, 8 * cfg.size_bytes);
    for (std::size_t k = 0; k < addrs.size(); ++k) {
      const std::uint64_t a = addrs[k];
      const std::uint64_t op = pick(rng, 1000);
      if (op == 0) {
        c.reset();
        ref.reset();
      } else if (op < 80) {
        const bool got = c.invalidate(a);
        ASSERT_EQ(got, ref.invalidate(a)) << "invalidate #" << k;
        invalidated += got;
      } else {
        const Cache::AccessResult got = c.access_ex(a);
        const Cache::AccessResult want = ref.access_ex(a);
        ASSERT_EQ(got.hit, want.hit) << "access #" << k << " addr " << a;
        ASSERT_EQ(got.evicted, want.evicted) << "access #" << k;
        ASSERT_EQ(got.victim_addr, want.victim_addr) << "access #" << k;
        evictions += got.evicted;
      }
      ASSERT_EQ(c.stats(), ref.stats()) << "after op #" << k;
    }
  }
  EXPECT_GT(evictions, 10000u);
  EXPECT_GT(invalidated, 1000u);
}

TEST(CacheDifferential, MatchesClockStampedHierarchyAcrossBatchSplits) {
  // One to three levels with one line size, driven alternately through
  // access() (level compared per access) and simulate() in batches cut at
  // random points (every counter compared after each batch), with an
  // occasional reset.
  std::mt19937_64 rng(7);
  std::uint64_t back_invalidations = 0;
  for (int g = 0; g < 300; ++g) {
    const std::size_t line = pow2_upto(rng, 128);
    std::vector<CacheConfig> levels;
    const std::size_t depth = 1 + pick(rng, 3);
    for (std::size_t i = 0; i < depth; ++i)
      levels.push_back(random_level(rng, line));
    SCOPED_TRACE(geometry(levels));
    Hierarchy h(levels);
    StampedHierarchy ref(levels);
    const std::uint64_t conflict = levels.front().num_sets() * line;
    const auto recs = as_records(
        random_addresses(rng, 3000, conflict, 4 * levels.back().size_bytes));
    std::size_t k = 0;
    while (k < recs.size()) {
      const std::size_t n =
          std::min<std::size_t>(recs.size() - k, pick(rng, 400));
      if (pick(rng, 2) == 0) {
        for (std::size_t e = k + n; k < e; ++k)
          ASSERT_EQ(h.access(recs[k].addr), ref.access(recs[k].addr))
              << "access #" << k << " addr " << recs[k].addr;
      } else {
        h.simulate(std::span(recs).subspan(k, n));
        for (std::size_t e = k + n; k < e; ++k) (void)ref.access(recs[k].addr);
      }
      expect_same_counters(h, ref, "after record " + std::to_string(k));
      if (pick(rng, 40) == 0) {
        back_invalidations += h.back_invalidations();
        h.reset();
        ref.reset();
      }
    }
    back_invalidations += h.back_invalidations();
  }
  EXPECT_GT(back_invalidations, 1000u);
}

TEST(CacheDifferential, MatchesClockStampedHierarchyOnBlockedLu) {
  // A real trace: blocked LU streamed through a TraceBuffer in 1000-record
  // batches into both simulators, on hierarchies small enough to evict and
  // back-invalidate.
  Program blocked = kernels::lu_point_ir();
  blocked.param("KS");
  analysis::Assumptions hints;
  hints.assert_le(isub(iadd(ivar("K"), ivar("KS")), iconst(1)),
                  isub(ivar("N"), iconst(1)));
  (void)pm::run_spec(blocked, "autoblock(b=KS)", hints);
  const std::vector<std::vector<CacheConfig>> geometries = {
      {{.size_bytes = 1024, .line_bytes = 64, .assoc = 2},
       {.size_bytes = 4096, .line_bytes = 64, .assoc = 2}},
      {{.size_bytes = 2048, .line_bytes = 32, .assoc = 8},
       {.size_bytes = 4096, .line_bytes = 32, .assoc = 1},
       {.size_bytes = 8192, .line_bytes = 32, .assoc = 4}}};
  for (const auto& levels : geometries) {
    struct Pair {
      Hierarchy h;
      StampedHierarchy ref;
      std::size_t batches = 0;
    } pair{Hierarchy(levels), StampedHierarchy(levels)};
    interp::ExecEngine eng(blocked, {{"N", 40}, {"KS", 12}});
    interp::seed_store(eng.store(), 42);
    interp::TraceBuffer buf(
        1000, &pair, [](void* ctx, std::span<const interp::TraceRecord> recs) {
          auto& p = *static_cast<Pair*>(ctx);
          p.h.simulate(recs);
          for (const auto& r : recs) (void)p.ref.access(r.addr);
          expect_same_counters(p.h, p.ref,
                               "batch " + std::to_string(p.batches++));
        });
    eng.run(buf);
    buf.flush();
    EXPECT_GT(pair.batches, 20u);
    EXPECT_GT(pair.h.back_invalidations(), 0u);
    EXPECT_GT(pair.h.stats(0).evictions, 0u);
  }
}

TEST(Hierarchy, BackInvalidatesEverySubLine) {
  // L2's 128-byte block holds two of L1's 64-byte lines.  Evicting it must
  // purge line 64 from L1, though the victim's address is 0.
  Hierarchy h({{.size_bytes = 128, .line_bytes = 64, .assoc = 2},
               {.size_bytes = 128, .line_bytes = 128, .assoc = 1}});
  EXPECT_EQ(h.access(64), 2u);
  EXPECT_EQ(h.access(128), 2u);  // L2 evicts [0, 128): L1 drops line 64
  EXPECT_EQ(h.back_invalidations(), 1u);
  EXPECT_EQ(h.access(64), 2u)
      << "line 64 must leave L1 when L2 evicts the block holding it";
}

TEST(Hierarchy, RejectsUpperLineLargerThanLowerLine) {
  // A 128-byte L2 line cannot stay inside one 64-byte L3 line.
  try {
    Hierarchy h({{.size_bytes = 1024, .line_bytes = 64, .assoc = 2},
                 {.size_bytes = 4096, .line_bytes = 128, .assoc = 2},
                 {.size_bytes = 8192, .line_bytes = 64, .assoc = 4}});
    FAIL() << "a 128B L2 line over a 64B L3 line was accepted";
  } catch (const blk::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("L2's 128B"), std::string::npos) << msg;
    EXPECT_NE(msg.find("L3's 64B"), std::string::npos) << msg;
  }
  EXPECT_NO_THROW(Hierarchy({{.size_bytes = 1024, .line_bytes = 32, .assoc = 2},
                             {.size_bytes = 4096, .line_bytes = 64, .assoc = 2},
                             {.size_bytes = 8192, .line_bytes = 64, .assoc = 4}}));
}

TEST(Hierarchy, InclusionHoldsWithMixedLineSizes) {
  // Random hierarchies whose line sizes grow downward, random traces over
  // 1 KB: after every access, each line resident in a level must be
  // resident in the level below it.  A copy driven through simulate() in
  // batches must end with the same counters.
  std::mt19937_64 rng(99);
  constexpr std::uint64_t kSpan = 1024;
  std::uint64_t back_invalidations = 0;
  for (int g = 0; g < 40; ++g) {
    std::vector<CacheConfig> levels;
    std::size_t line = std::size_t{4} << pick(rng, 4);
    const std::size_t depth = 2 + pick(rng, 2);
    for (std::size_t i = 0; i < depth; ++i) {
      const std::size_t lines = pow2_upto(rng, std::max<std::size_t>(
                                                   1, kSpan / 2 / line));
      levels.push_back({.size_bytes = lines * line,
                        .line_bytes = line,
                        .assoc = pow2_upto(rng, lines)});
      line = std::min<std::size_t>(128, line << pick(rng, 3));
    }
    SCOPED_TRACE(geometry(levels));
    Hierarchy h(levels);
    Hierarchy batched(levels);
    auto addrs = random_addresses(
        rng, 1000, levels.front().num_sets() * levels.front().line_bytes,
        kSpan);
    for (std::uint64_t& a : addrs) a %= kSpan;
    const auto recs = as_records(addrs);
    for (std::size_t k = 0; k < recs.size(); ++k) {
      (void)h.access(recs[k].addr);
      for (std::uint64_t a = 0; a < kSpan; a += levels.front().line_bytes) {
        for (std::size_t j = 0; j + 1 < depth; ++j) {
          if (h.level(j).contains(a)) {
            ASSERT_TRUE(h.level(j + 1).contains(a))
                << "after access #" << k << ": address " << a
                << " is cached in L" << j + 1 << " but not in L" << j + 2;
          }
        }
      }
    }
    for (std::size_t k = 0; k < recs.size();) {
      const std::size_t n =
          std::min<std::size_t>(recs.size() - k, 1 + pick(rng, 300));
      batched.simulate(std::span(recs).subspan(k, n));
      k += n;
    }
    for (std::size_t i = 0; i < depth; ++i)
      EXPECT_EQ(batched.stats(i), h.stats(i)) << "level " << i;
    EXPECT_EQ(batched.back_invalidations(), h.back_invalidations());
    back_invalidations += h.back_invalidations();
  }
  EXPECT_GT(back_invalidations, 1000u);
}

}  // namespace
}  // namespace blk::cachesim
