// Trace-pipeline benchmarks (the evidence behind DESIGN.md §15):
//
//   1. sink dispatch   — TraceBuffer's fn-pointer flush sink
//                        (google-benchmark).
//   2. compression     — synthesized blocked-LU trace vs the raw
//                        TraceRecord stream it replaces (N=512: gigabytes
//                        down to megabytes).
//   3. sweep modes     — the same candidate sweep with a cold store
//                        (synthesize + replay) and with a warm store
//                        (replay only) — the record-once/replay-many
//                        claim, with the chosen KS pinned equal across
//                        both.
//   4. sharded replay  — bit-identical merged stats at 1..8 workers, with
//                        per-worker-count timings.
//   5. sampling        — sampled-vs-full sweep agreement at a size where
//                        the full replay is feasible (N=256), then the
//                        headline: sampled selection on N=2000 LU, whose
//                        full trace is ~10^10 records, in seconds.
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
#include "model/sweep.hpp"
#include "pm/runner.hpp"
#include "trace/format.hpp"
#include "trace/replay.hpp"
#include "trace/store.hpp"
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
  // 3. The same sweep cold and warm.  min-of-2 timings.
  model::SweepOptions base;
  base.candidates = {4, 8, 16, 32, 64};
  base.probe_params = {{"N", 128}};
  base.levels = kL1;
  base.shard_records = 1u << 18;  // parallelize even probe-sized replays

  model::SweepResult cold_res, warm_res;
  double cold_s = 1e30, warm_s = 1e30;
  for (int i = 0; i < 2; ++i) {
    trace::TraceStore store;  // fresh: synthesize + replay each candidate
    model::SweepOptions opt = base;
    opt.store = &store;
    const auto t0 = std::chrono::steady_clock::now();
    cold_res = model::sweep_block_sizes(lu, opt);
    cold_s = std::min(cold_s, now_minus(t0));
  }
  {
    trace::TraceStore store;
    model::SweepOptions opt = base;
    opt.store = &store;
    (void)model::sweep_block_sizes(lu, opt);  // prime
    for (int i = 0; i < 2; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      warm_res = model::sweep_block_sizes(lu, opt);
      warm_s = std::min(warm_s, now_minus(t0));
    }
  }
  const long cold_ks = cold_res.rows[cold_res.best_index].ks;
  const long warm_ks = warm_res.rows[warm_res.best_index].ks;

  // -------------------------------------------------------------------
  // 4. Sharded replay: merged stats must be bit-identical at any worker
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
  // 5a. Sampling fidelity where the full replay is feasible: N=256,
  // every 8th block row.  The sweep validates sampled-vs-full on the
  // middle candidate itself; we additionally pin the winning KS.
  model::SweepOptions agree = base;
  agree.probe_params = {{"N", 256}};
  agree.candidates = {8, 16, 32, 64};
  agree.shard_records = 4u << 20;
  trace::TraceStore agree_store;
  agree.store = &agree_store;
  const model::SweepResult full_res = model::sweep_block_sizes(lu, agree);
  agree.sample_every = 8;
  agree.sample_tolerance = 0.02;
  const model::SweepResult samp_res = model::sweep_block_sizes(lu, agree);
  const long full_ks = full_res.rows[full_res.best_index].ks;
  const long samp_ks = samp_res.rows[samp_res.best_index].ks;

  // 5b. The headline: sampled selection on N=2000 LU.  The full trace is
  // ~1.1e10 records (171 GB raw) — the validation probe is skipped by the
  // record cap and the tolerance above carries over.
  model::SweepOptions big;
  big.candidates = {16, 32, 64, 128};
  big.probe_params = {{"N", 2000}};
  big.levels = kL1;
  big.sample_every = 64;
  trace::TraceStore big_store;
  big.store = &big_store;
  model::SweepResult big_res;
  double big_s;
  {
    const auto t0 = std::chrono::steady_clock::now();
    big_res = model::sweep_block_sizes(lu, big);
    big_s = now_minus(t0);
  }
  std::uint64_t big_records = 0;
  for (const auto& row : big_res.rows) big_records += row.trace_len;

  // -------------------------------------------------------------------
  // Report.
  blk::bench::Table modes({"sweep mode", "time", "speedup", "best KS"});
  modes.row({"cold store", blk::bench::fmt_time(cold_s), "1.00",
             std::to_string(cold_ks)});
  modes.row({"warm store", blk::bench::fmt_time(warm_s),
             blk::bench::fmt_speedup(cold_s, warm_s), std::to_string(warm_ks)});
  modes.print("T-TRACE: blocked LU N=128, 5 candidates, L1 32K/64B/4");

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
  ev.row({"sampled-vs-full KS (N=256)", std::to_string(samp_ks) + " vs " +
                                            std::to_string(full_ks)});
  ev.row({"sampled probe miss-ratio delta",
          fmt_d("%.6f", samp_res.sample_delta)});
  ev.row({"N=2000 sampled selection", blk::bench::fmt_time(big_s) + ", KS=" +
                                          std::to_string(
                                              big_res.rows[big_res.best_index]
                                                  .ks)});
  ev.row({"N=2000 records replayed (of ~1.1e10)",
          fmt_d("%.3g", static_cast<double>(big_records))});
  ev.print("T-TRACE: pipeline evidence");

  if (cold_ks != warm_ks)
    std::fprintf(stderr,
                 "WARNING: sweep modes disagree on KS (cold=%ld warm=%ld)\n",
                 cold_ks, warm_ks);

  if (json.enabled()) {
    json.set_parallel(true);
    json.row("sink_fnptr_1M", rep.get("BM_SinkFnPointer"));
    json.row("synthesize_lu512", synth_s);
    json.row("sweep_trace_cold_n128", cold_s);
    json.row("sweep_trace_warm_n128", warm_s, cold_s / warm_s);
    for (unsigned w : {1u, 2u, 4u, 8u})
      json.row("replay_lu128_workers" + std::to_string(w), replay_secs[w],
               replay_secs[1] / replay_secs[w]);
    json.row("sampled_select_lu2000", big_s);
    std::string tr = "{";
    tr += "\"compression_ratio\": " + fmt_d("%.3f", compression);
    tr += ", \"lu512_records\": " + std::to_string(t512.records);
    tr += ", \"lu512_encoded_bytes\": " + std::to_string(t512.bytes.size());
    tr += ", \"shard_bit_identical\": ";
    tr += bit_identical ? "true" : "false";
    tr += ", \"workers_checked\": 8";
    tr += ", \"ks\": {\"cold\": " + std::to_string(cold_ks) +
          ", \"warm\": " + std::to_string(warm_ks) + "}";
    tr += ", \"sample\": {\"full_ks\": " + std::to_string(full_ks) +
          ", \"sampled_ks\": " + std::to_string(samp_ks) +
          ", \"every\": " + std::to_string(samp_res.sample_every) +
          ", \"validated\": " +
          (samp_res.sample_validated ? "true" : "false") +
          ", \"delta\": " + fmt_d("%.6f", samp_res.sample_delta) + "}";
    tr += ", \"n2000\": {\"seconds\": " + fmt_d("%.3f", big_s) +
          ", \"ks\": " + std::to_string(big_res.rows[big_res.best_index].ks) +
          ", \"sample_every\": " + std::to_string(big_res.sample_every) +
          ", \"records_replayed\": " + std::to_string(big_records) + "}";
    tr += "}";
    json.extra("trace", tr);
    json.write();
  }
  return 0;
}
