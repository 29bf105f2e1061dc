// Trace-pipeline benchmarks (the evidence behind DESIGN.md §15):
//
//   1. sink dispatch   — TraceBuffer's fn-pointer flush sink
//                        (google-benchmark).
//   2. compression     — synthesized blocked-LU trace vs the raw
//                        TraceRecord stream it replaces (N=512: gigabytes
//                        down to megabytes).
//   3. sharded replay  — bit-identical merged stats at 1..8 workers, with
//                        per-worker-count timings.
//
// --bench_json=PATH writes BENCH_trace.json (schema 3) with a "trace"
// extra carrying the machine-checkable evidence; CI gates on it.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/assume.hpp"
#include "bench/benchutil.hpp"
#include "interp/trace.hpp"
#include "ir/builder.hpp"
#include "kernels/ir_kernels.hpp"
#include "pm/runner.hpp"
#include "trace/format.hpp"
#include "trace/replay.hpp"
#include "trace/synth.hpp"

namespace {

using namespace blk;
using namespace blk::ir;
using namespace blk::ir::dsl;

// ---------------------------------------------------------------------
// 1. Sink dispatch micro-benchmark.

constexpr std::size_t kSinkRecords = 1 << 20;
constexpr std::size_t kSinkFlush = 1 << 12;

void BM_SinkFnPointer(benchmark::State& st) {
  std::uint64_t total = 0;
  for (auto _ : st) {
    interp::TraceBuffer tb(
        kSinkFlush, &total,
        [](void* ctx, std::span<const interp::TraceRecord> r) {
          *static_cast<std::uint64_t*>(ctx) += r.size();
        });
    for (std::size_t i = 0; i < kSinkRecords; ++i)
      tb.append(i * 8, (i & 7) == 0);
    tb.flush();
  }
  benchmark::DoNotOptimize(total);
  st.SetItemsProcessed(static_cast<std::int64_t>(st.iterations()) *
                       static_cast<std::int64_t>(kSinkRecords));
}
BENCHMARK(BM_SinkFnPointer);

// ---------------------------------------------------------------------
// Shared fixtures.

/// Block point LU with a runtime-scalar KS (the selectblock recipe).
Program blocked_lu() {
  Program prog = kernels::lu_point_ir();
  prog.param("KS");
  analysis::Assumptions hints;
  hints.assert_le(isub(iadd(ivar("K"), ivar("KS")), iconst(1)),
                  isub(ivar("N"), iconst(1)));
  (void)pm::run_spec(prog, "autoblock(b=KS)", hints);
  prog.scalar("KS");
  return prog;
}

const std::vector<cachesim::CacheConfig> kL1 = {
    {.size_bytes = 32 * 1024, .line_bytes = 64, .assoc = 4}};

double now_minus(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string fmt_d(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, fmt, v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = blk::bench::extract_json_path(argc, argv);
  blk::bench::CaptureReporter rep = blk::bench::run_all(argc, argv);

  const Program lu = blocked_lu();
  blk::bench::JsonWriter json(json_path);

  // -------------------------------------------------------------------
  // 2. Compression: blocked LU at N=512 — the raw stream is ~2.9 GB and
  // is never materialized; the synthesizer emits the compressed trace
  // directly from the IR.
  trace::EncodedTrace t512;
  double synth_s;
  {
    const auto t0 = std::chrono::steady_clock::now();
    trace::TraceEncoder enc(t512);
    (void)trace::synthesize(lu, {{"N", 512}, {"KS", 32}}, enc);
    enc.finish();
    synth_s = now_minus(t0);
  }
  const double compression = t512.compression_ratio();

  // -------------------------------------------------------------------
  // 3. Sharded replay: merged stats must be bit-identical at any worker
  // count (shard plan forced to ~43 shards via a small target).
  trace::EncodedTrace det;
  {
    trace::TraceEncoder enc(det, 1u << 14);  // dense sync points
    (void)trace::synthesize(lu, {{"N", 128}, {"KS", 16}}, enc);
    enc.finish();
  }
  bool bit_identical = true;
  std::vector<double> replay_secs(9, 0.0);
  trace::ReplayResult ref;
  for (unsigned w = 1; w <= 8; ++w) {
    trace::ReplayOptions ropt;
    ropt.levels = kL1;
    ropt.workers = w;
    ropt.shard_records = 1u << 16;
    const auto t0 = std::chrono::steady_clock::now();
    const trace::ReplayResult r = trace::replay(det, ropt);
    replay_secs[w] = now_minus(t0);
    if (w == 1) {
      ref = r;
    } else {
      bit_identical = bit_identical && r.records == ref.records &&
                      r.back_invalidations == ref.back_invalidations &&
                      r.levels.size() == ref.levels.size();
      for (std::size_t l = 0; bit_identical && l < r.levels.size(); ++l)
        bit_identical = r.levels[l] == ref.levels[l];
    }
  }

  // -------------------------------------------------------------------
  // Report.
  blk::bench::Table ev({"evidence", "value"});
  ev.row({"LU N=512 raw trace", fmt_d("%.2f GB", t512.raw_bytes() / 1e9)});
  ev.row({"LU N=512 compressed",
          fmt_d("%.2f MB", static_cast<double>(t512.bytes.size()) / 1e6)});
  ev.row({"compression ratio", fmt_d("%.0fx", compression)});
  ev.row({"synthesis time (N=512)", blk::bench::fmt_time(synth_s)});
  ev.row({"sharded replay 1..8 workers",
          bit_identical ? "bit-identical" : "MISMATCH"});
  ev.row({"replay speedup 8w vs 1w",
          blk::bench::fmt_speedup(replay_secs[1], replay_secs[8])});
  ev.print("T-TRACE: pipeline evidence");

  if (json.enabled()) {
    json.set_parallel(true);
    json.row("sink_fnptr_1M", rep.get("BM_SinkFnPointer"));
    json.row("synthesize_lu512", synth_s);
    for (unsigned w : {1u, 2u, 4u, 8u})
      json.row("replay_lu128_workers" + std::to_string(w), replay_secs[w],
               replay_secs[1] / replay_secs[w]);
    std::string tr = "{";
    tr += "\"compression_ratio\": " + fmt_d("%.3f", compression);
    tr += ", \"lu512_records\": " + std::to_string(t512.records);
    tr += ", \"lu512_encoded_bytes\": " + std::to_string(t512.bytes.size());
    tr += ", \"shard_bit_identical\": ";
    tr += bit_identical ? "true" : "false";
    tr += ", \"workers_checked\": 8";
    tr += "}";
    json.extra("trace", tr);
    json.write();
  }
  return 0;
}
