// Cache simulator tests: geometry, LRU policy, and the paper-level claim
// that blocking cuts misses.
#include <gtest/gtest.h>

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
  // Cache::simulate(span) must be observationally identical to calling
  // access() once per record, across batch-boundary splits.
  std::vector<interp::TraceRecord> trace;
  for (std::uint64_t i = 0; i < 4000; ++i)
    trace.push_back({.addr = (i * 712ull) % 32768, .is_write = i % 4 == 0});

  CacheConfig cfg{.size_bytes = 4 * 1024, .line_bytes = 64, .assoc = 2};
  Cache single(cfg);
  for (const auto& r : trace) single.access(r.addr);

  for (std::size_t batch : {1ul, 7ul, 1024ul, trace.size()}) {
    Cache bulk(cfg);
    for (std::size_t i = 0; i < trace.size(); i += batch) {
      auto n = std::min(batch, trace.size() - i);
      bulk.simulate(std::span<const interp::TraceRecord>(&trace[i], n));
    }
    EXPECT_EQ(bulk.stats().accesses, single.stats().accesses);
    EXPECT_EQ(bulk.stats().hits, single.stats().hits);
    EXPECT_EQ(bulk.stats().misses, single.stats().misses);
    EXPECT_EQ(bulk.stats().evictions, single.stats().evictions);
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
  Cache streamed(cfg);
  interp::TraceBuffer buf(
      64, &streamed, [](void* ctx, std::span<const interp::TraceRecord> recs) {
        static_cast<Cache*>(ctx)->simulate(recs);
      });
  eng.run(buf);
  buf.flush();
  EXPECT_EQ(streamed.stats(), one_shot);
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
