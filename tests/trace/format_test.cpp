// Trace-format tests: encode→decode bit-equality against raw TraceRecord
// streams for every example kernel (zero-trip loops, descending loops and
// IF-guarded accesses included), explicit affine runs and sync-point
// sharding.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "interp/vm.hpp"
#include "ir/builder.hpp"
#include "ir/error.hpp"
#include "kernels/ir_kernels.hpp"
#include "trace/format.hpp"
#include "transform/blocking.hpp"

namespace blk::trace {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;
using interp::TraceRecord;

/// The VM's raw trace of one seeded run.
std::vector<TraceRecord> vm_trace(const Program& p, const Env& params,
                                  std::uint64_t seed = 42) {
  interp::ExecEngine eng(p, params);
  interp::seed_store(eng.store(), seed);
  interp::TraceBuffer buf;  // retained mode: keeps every record
  eng.run(buf);
  return buf.take_records();
}

/// Encode a raw record stream (optionally with a small sync interval to
/// exercise the sync machinery) and return the finished trace.
EncodedTrace encode(const std::vector<TraceRecord>& recs,
                    std::uint64_t sync_interval =
                        TraceEncoder::kDefaultSyncInterval) {
  EncodedTrace t;
  TraceEncoder enc(t, sync_interval);
  for (const TraceRecord& r : recs) enc.append(r.addr, r.is_write);
  enc.finish();
  return t;
}

void expect_equal(const std::vector<TraceRecord>& got,
                  const std::vector<TraceRecord>& want,
                  const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].addr, want[i].addr) << what << " at record " << i;
    ASSERT_EQ(got[i].is_write, want[i].is_write) << what << " at record "
                                                 << i;
  }
}

void round_trip(const Program& p, const Env& params, const std::string& what) {
  const std::vector<TraceRecord> raw = vm_trace(p, params);
  const EncodedTrace t = encode(raw);
  EXPECT_EQ(t.records, raw.size()) << what;
  expect_equal(decode_all(t), raw, what);
}

TEST(TraceFormat, RoundTripsEveryExampleKernel) {
  round_trip(kernels::sum_example_ir(), {{"N", 13}, {"M", 9}}, "sum");
  round_trip(kernels::partial_recurrence_ir(), {{"N", 17}}, "partial_rec");
  round_trip(kernels::aconv_ir(), {{"N1", 9}, {"N2", 5}, {"N3", 11}},
             "aconv");
  round_trip(kernels::conv_ir(), {{"N1", 9}, {"N2", 5}, {"N3", 11}}, "conv");
  round_trip(kernels::matmul_guarded_ir(), {{"N", 10}}, "matmul_guarded");
  round_trip(kernels::lu_point_ir(), {{"N", 14}}, "lu_point");
}

TEST(TraceFormat, RoundTripsDataDependentKernels) {
  // Pivoting LU reads A(IMAX,J) through a runtime scalar and branches on
  // data; Givens QR guards whole rotations.  The *encoder* is oblivious —
  // any record stream round-trips.
  round_trip(kernels::lu_pivot_point_ir(), {{"N", 12}}, "lu_pivot");
  round_trip(kernels::givens_qr_ir(), {{"M", 10}, {"N", 7}}, "givens_qr");
  round_trip(kernels::stencil2d_ir(), {{"N", 12}}, "stencil2d");
}

TEST(TraceFormat, RoundTripsZeroTripAndDescendingLoops) {
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  // Zero-trip: DO I = 5, 2 runs never; descending: DO J = N, 1, -1.
  p.add(loop("I", c(5), c(2),
             assign(lv("A", {v("I")}), a("A", {v("I")}) + f(1.0))));
  p.add(loop_step("J", v("N"), c(1), c(-1),
                  assign(lv("A", {v("J")}), a("A", {v("J")}) + f(2.0))));
  round_trip(p, {{"N", 9}}, "zero-trip + descending");
}

TEST(TraceFormat, EmptyTraceIsValid) {
  const EncodedTrace t = encode({});
  EXPECT_EQ(t.records, 0u);
  EXPECT_TRUE(decode_all(t).empty());
  const std::vector<Shard> plan = make_shard_plan(t, 100);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].records(), 0u);
}

TEST(TraceFormat, CompressesConstantStrideStreams) {
  // A unit-stride scan is the best case for RUN detection: ~2 bytes of
  // ops for thousands of records.
  std::vector<TraceRecord> recs;
  for (std::uint64_t i = 0; i < 100000; ++i)
    recs.push_back({0x100000 + i * 8, false});
  const EncodedTrace t = encode(recs);
  expect_equal(decode_all(t), recs, "stride scan");
  EXPECT_GT(t.compression_ratio(), 1000.0)
      << "constant-stride stream should collapse to a handful of RUN ops";
}

TEST(TraceFormat, FuzzRoundTripsMixedPatterns) {
  std::mt19937_64 rng(7);
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<TraceRecord> recs;
    std::uint64_t addr = 1 << 20;
    while (recs.size() < 5000) {
      switch (rng() % 4) {
        case 0:  // random jumps
          for (int i = 0; i < 17; ++i)
            recs.push_back({(rng() % (1u << 22)) + (1u << 20),
                            (rng() & 1) != 0});
          break;
        case 1: {  // periodic pattern, random period
          const std::size_t p = 1 + rng() % 40;
          std::vector<TraceRecord> pat;
          for (std::size_t i = 0; i < p; ++i)
            pat.push_back({addr + (rng() % 512) * 8, (rng() & 1) != 0});
          const std::size_t reps = 2 + rng() % 30;
          for (std::size_t r = 0; r < reps; ++r)
            for (const TraceRecord& x : pat) recs.push_back(x);
          break;
        }
        case 2:  // strided walk
          for (int i = 0; i < 200; ++i) {
            addr += 8;
            recs.push_back({addr, false});
          }
          break;
        default:  // alternating read/write pair
          for (int i = 0; i < 50; ++i) {
            recs.push_back({addr, false});
            recs.push_back({addr, true});
            addr += 64;
          }
          break;
      }
    }
    // Tiny sync interval so shards/syncs are exercised constantly.
    const EncodedTrace t = encode(recs, /*sync_interval=*/257);
    expect_equal(decode_all(t), recs, "fuzz iter " + std::to_string(iter));
  }
}

TEST(TraceFormat, ExplicitAffineRunMatchesLiteralExpansion) {
  // Three interleaved streams with distinct strides — the LU inner-loop
  // shape (A(I,J), A(I,K), A(K,J): one stride-8, one stride-8, one fixed).
  const std::vector<TraceEncoder::RefPattern> slots = {
      {0x200000, 8, false},
      {0x300010, 8, false},
      {0x400100, 0, false},
      {0x200000, 8, true},
  };
  const std::uint64_t reps = 1000;

  std::vector<TraceRecord> want;
  want.push_back({0x111111, false});  // preceding literal context
  for (std::uint64_t t = 0; t < reps; ++t)
    for (const auto& s : slots)
      want.push_back({s.start_addr + t * static_cast<std::uint64_t>(s.stride),
                      s.is_write});
  want.push_back({0x222222, true});  // trailing literal

  EncodedTrace enc_t;
  TraceEncoder enc(enc_t);
  enc.append(0x111111, false);
  enc.append_run_affine(slots, reps);
  enc.append(0x222222, true);
  enc.finish();

  EXPECT_EQ(enc_t.records, want.size());
  expect_equal(decode_all(enc_t), want, "affine run");
  // 4000 records in ~30 bytes of RUNA op.
  EXPECT_GT(enc_t.compression_ratio(), 500.0);
}

TEST(TraceFormat, AffineRunEdgeCases) {
  EncodedTrace t;
  TraceEncoder enc(t);
  const std::vector<TraceEncoder::RefPattern> one = {{0x1000, -16, true}};
  enc.append_run_affine(one, 1);    // single repetition, negative stride
  enc.append_run_affine(one, 0);    // no-op
  enc.append_run_affine({}, 5);     // no-op
  enc.append_run_affine(one, 3);    // descending walk from 0x1000
  enc.finish();
  const std::vector<TraceRecord> want = {
      {0x1000, true}, {0x1000, true}, {0xFF0, true}, {0xFE0, true}};
  expect_equal(decode_all(t), want, "edge cases");

  std::vector<TraceEncoder::RefPattern> too_wide(
      TraceEncoder::kMaxPeriod + 1, {0x1000, 8, false});
  EncodedTrace t2;
  TraceEncoder enc2(t2);
  EXPECT_THROW(enc2.append_run_affine(too_wide, 2), blk::Error);
}

TEST(TraceFormat, ShardPlanCoversStreamExactly) {
  Program lu = kernels::lu_point_ir();
  const std::vector<TraceRecord> raw = vm_trace(lu, {{"N", 24}});
  const EncodedTrace t = encode(raw, /*sync_interval=*/1000);
  ASSERT_GT(t.syncs.size(), 3u) << "interval should have planted syncs";

  const std::vector<Shard> plan = make_shard_plan(t, 2500);
  ASSERT_GT(plan.size(), 1u);
  EXPECT_EQ(plan.front().record_begin, 0u);
  EXPECT_EQ(plan.back().record_end, t.records);
  EXPECT_EQ(plan.back().byte_end, t.bytes.size());
  for (std::size_t i = 1; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].byte_begin, plan[i - 1].byte_end);
    EXPECT_EQ(plan[i].record_begin, plan[i - 1].record_end);
  }

  // Decoding shard by shard reproduces the full stream bit for bit.
  std::vector<TraceRecord> stitched;
  for (const Shard& sh : plan) {
    TraceDecoder dec(t, sh.byte_begin, sh.byte_end);
    TraceRecord batch[512];
    std::size_t n;
    std::uint64_t got = 0;
    while ((n = dec.next(batch)) != 0) {
      stitched.insert(stitched.end(), batch, batch + n);
      got += n;
    }
    EXPECT_EQ(got, sh.records());
  }
  expect_equal(stitched, raw, "stitched shards");
}

TEST(TraceFormat, RejectsCorruptInput) {
  EncodedTrace t;
  t.bytes = {0x7F};  // unknown op tag
  t.records = 1;
  t.syncs = {SyncPoint{0, 0}};
  EXPECT_THROW((void)decode_all(t), blk::Error);

  EncodedTrace trunc;
  trunc.bytes = {0x01, 0x05, 0x10};  // LIT of 5 but only one val
  trunc.records = 5;
  trunc.syncs = {SyncPoint{0, 0}};
  EXPECT_THROW((void)decode_all(trunc), blk::Error);

  EncodedTrace runahead;
  runahead.bytes = {0x02, 0x04, 0x02};  // RUN period 4 with empty history
  runahead.records = 8;
  runahead.syncs = {SyncPoint{0, 0}};
  EXPECT_THROW((void)decode_all(runahead), blk::Error);
}

}  // namespace
}  // namespace blk::trace
