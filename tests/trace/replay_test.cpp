// Sharded-replay and trace-store tests.  The load-bearing property: the
// merged shard stats are bit-identical at every worker count, and a
// single-shard replay equals a sequential Hierarchy pass field for field.
#include <gtest/gtest.h>

#include <vector>

#include "cachesim/cache.hpp"
#include "interp/vm.hpp"
#include "ir/builder.hpp"
#include "ir/error.hpp"
#include "kernels/ir_kernels.hpp"
#include "trace/format.hpp"
#include "trace/replay.hpp"
#include "trace/store.hpp"

namespace blk::trace {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;
using cachesim::CacheConfig;
using cachesim::CacheStats;

EncodedTrace lu_trace(long n, std::uint64_t sync_interval = 4096) {
  const Program p = kernels::lu_point_ir();
  const std::vector<interp::TraceRecord> raw = [&] {
    interp::ExecEngine eng(p, {{"N", n}});
    interp::seed_store(eng.store(), 42);
    interp::TraceBuffer buf;
    eng.run(buf);
    return buf.take_records();
  }();
  EncodedTrace t;
  TraceEncoder enc(t, sync_interval);
  for (const interp::TraceRecord& r : raw) enc.append(r.addr, r.is_write);
  enc.finish();
  return t;
}

TEST(CacheStatsMerge, OperatorPlusSumsEveryField) {
  const CacheStats a{.accesses = 100, .hits = 80, .misses = 20,
                     .evictions = 5};
  const CacheStats b{.accesses = 7, .hits = 3, .misses = 4, .evictions = 1};
  CacheStats c = a;
  c += b;
  EXPECT_EQ(c.accesses, 107u);
  EXPECT_EQ(c.hits, 83u);
  EXPECT_EQ(c.misses, 24u);
  EXPECT_EQ(c.evictions, 6u);
  EXPECT_EQ(a + b, b + a);                  // commutative
  EXPECT_EQ((a + b) + c, a + (b + c));      // associative
  EXPECT_EQ(a + CacheStats{}, a);           // identity
}

TEST(CacheStatsMerge, FreeAmatMatchesHierarchyAmat) {
  const EncodedTrace t = lu_trace(20);
  const std::vector<CacheConfig> levels = {
      {.size_bytes = 2048, .line_bytes = 64, .assoc = 2},
      {.size_bytes = 16384, .line_bytes = 64, .assoc = 4}};
  cachesim::Hierarchy h(levels);
  for (const interp::TraceRecord& r : decode_all(t)) h.access(r.addr);
  const std::vector<double> lat = {1.0, 10.0, 100.0};
  const std::vector<CacheStats> st = {h.stats(0), h.stats(1)};
  EXPECT_DOUBLE_EQ(cachesim::amat(st, lat), h.amat(lat));
}

TEST(CacheStatsMerge, FreeAmatValidatesArity) {
  const std::vector<CacheStats> one(1);
  const std::vector<double> lat2 = {1.0, 100.0};
  EXPECT_EQ(cachesim::amat(one, lat2), 0.0);  // zero accesses -> 0
  const std::vector<double> lat1 = {1.0};
  EXPECT_THROW((void)cachesim::amat(one, lat1), blk::Error);
  EXPECT_THROW((void)cachesim::amat({}, lat2), blk::Error);
}

TEST(TraceReplay, SingleShardEqualsSequentialSimulation) {
  // With shard_records larger than the trace there is exactly one shard,
  // and the replay must match a plain sequential Hierarchy pass field for
  // field — including evictions and back-invalidations.
  const EncodedTrace t = lu_trace(24);
  const std::vector<CacheConfig> levels = {
      {.size_bytes = 1024, .line_bytes = 64, .assoc = 2},
      {.size_bytes = 8192, .line_bytes = 64, .assoc = 4}};

  cachesim::Hierarchy h(levels);
  for (const interp::TraceRecord& r : decode_all(t)) h.access(r.addr);

  ReplayOptions opt;
  opt.levels = levels;
  opt.workers = 1;
  opt.shard_records = t.records + 1;
  const ReplayResult res = replay(t, opt);

  EXPECT_EQ(res.shards, 1u);
  EXPECT_EQ(res.records, t.records);
  ASSERT_EQ(res.levels.size(), 2u);
  EXPECT_EQ(res.levels[0], h.stats(0));
  EXPECT_EQ(res.levels[1], h.stats(1));
  EXPECT_EQ(res.back_invalidations, h.back_invalidations());
}

TEST(TraceReplay, BitIdenticalAcrossWorkerCounts) {
  // Small shards force many of them; the merged stats must not depend on
  // how many threads pulled shards off the cursor.
  const EncodedTrace t = lu_trace(28, /*sync_interval=*/512);
  ReplayOptions base;
  base.levels = {{.size_bytes = 2048, .line_bytes = 64, .assoc = 2}};
  base.shard_records = 2000;

  ReplayOptions ref = base;
  ref.workers = 1;
  const ReplayResult want = replay(t, ref);
  ASSERT_GT(want.shards, 2u) << "plan should have split the trace";

  for (unsigned workers : {2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    ReplayOptions opt = base;
    opt.workers = workers;
    const ReplayResult got = replay(t, opt);
    EXPECT_EQ(got.shards, want.shards) << workers << " workers";
    EXPECT_EQ(got.records, want.records) << workers << " workers";
    ASSERT_EQ(got.levels.size(), want.levels.size());
    for (std::size_t l = 0; l < got.levels.size(); ++l)
      EXPECT_EQ(got.levels[l], want.levels[l])
          << workers << " workers, level " << l;
    EXPECT_EQ(got.back_invalidations, want.back_invalidations)
        << workers << " workers";
  }
}

TEST(TraceReplay, ShardedAccessesExactAndMissesBounded) {
  // Sharding resets cache state at boundaries: access counts stay exact,
  // misses can only grow (extra compulsory misses), never shrink.
  const EncodedTrace t = lu_trace(28, /*sync_interval=*/512);
  const std::vector<CacheConfig> levels = {
      {.size_bytes = 4096, .line_bytes = 64, .assoc = 2}};

  cachesim::Hierarchy h(levels);
  for (const interp::TraceRecord& r : decode_all(t)) h.access(r.addr);

  ReplayOptions opt;
  opt.levels = levels;
  opt.workers = 4;
  opt.shard_records = 2000;
  const ReplayResult res = replay(t, opt);

  EXPECT_EQ(res.levels[0].accesses, h.stats(0).accesses);
  EXPECT_GE(res.levels[0].misses, h.stats(0).misses);
  // Cold-start error is bounded by shards * cache lines.
  const std::uint64_t lines = 4096 / 64;
  EXPECT_LE(res.levels[0].misses, h.stats(0).misses + res.shards * lines);
}

TEST(TraceReplay, ValidatesItsInputs) {
  const EncodedTrace t = lu_trace(10);
  ReplayOptions opt;
  opt.levels.clear();
  EXPECT_THROW((void)replay(t, opt), blk::Error);
}

TEST(TraceStore, HitsMissesAndKeying) {
  TraceStore store;
  const Program lu = kernels::lu_point_ir();
  const TraceKey k1{.program_hash = hash_program(lu),
                    .env_hash = hash_env({{"N", 16}}),
                    .ks = 4};
  EXPECT_EQ(store.get(k1), nullptr);
  EXPECT_EQ(store.stats().misses, 1u);

  store.put(k1, lu_trace(16));
  const auto hit = store.get(k1);
  ASSERT_NE(hit, nullptr);
  EXPECT_GT(hit->records, 0u);
  EXPECT_EQ(store.stats().hits, 1u);

  // Any key component change is a different trace.
  TraceKey k2 = k1;
  k2.ks = 8;
  EXPECT_EQ(store.get(k2), nullptr);
  TraceKey k3 = k1;
  k3.sample_every = 4;
  EXPECT_EQ(store.get(k3), nullptr);
  TraceKey k4 = k1;
  k4.env_hash = hash_env({{"N", 17}});
  EXPECT_EQ(store.get(k4), nullptr);
}

TEST(TraceStore, LruEvictsToByteCapAndKeepsLivePointers) {
  EncodedTrace small = lu_trace(12);
  const std::uint64_t sz = small.bytes.size() * sizeof(std::uint8_t);
  // Cap fits about two entries.
  TraceStore store(2 * sz + sz / 2);

  auto key = [&](std::uint64_t i) {
    TraceKey k;
    k.program_hash = i;
    return k;
  };
  const auto p0 = store.put(key(0), lu_trace(12));
  store.put(key(1), lu_trace(12));
  EXPECT_EQ(store.stats().entries, 2u);

  // Touch 0 so 1 is the LRU victim when 2 arrives.
  EXPECT_NE(store.get(key(0)), nullptr);
  store.put(key(2), lu_trace(12));
  EXPECT_EQ(store.stats().entries, 2u);
  EXPECT_GE(store.stats().evictions, 1u);
  EXPECT_NE(store.get(key(0)), nullptr);
  EXPECT_EQ(store.get(key(1)), nullptr);
  EXPECT_NE(store.get(key(2)), nullptr);

  // The evicted entry's shared_ptr (p0 held across an eviction of others)
  // stays readable.
  EXPECT_GT(p0->records, 0u);

  // An entry larger than the whole cap is returned but not retained.
  TraceStore tiny(8);
  const auto big = tiny.put(key(9), lu_trace(12));
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(tiny.stats().entries, 0u);

  store.clear();
  EXPECT_EQ(store.stats().entries, 0u);
  EXPECT_EQ(store.stats().bytes, 0u);
}

TEST(TraceStore, HashesAreStableAndDiscriminating) {
  const Program lu = kernels::lu_point_ir();
  EXPECT_EQ(hash_program(lu), hash_program(kernels::lu_point_ir()));
  EXPECT_NE(hash_program(lu), hash_program(kernels::conv_ir()));
  EXPECT_EQ(hash_env({{"N", 16}, {"M", 3}}), hash_env({{"M", 3}, {"N", 16}}));
  EXPECT_NE(hash_env({{"N", 16}}), hash_env({{"N", 17}}));
}

}  // namespace
}  // namespace blk::trace
