// A4: execution-engine throughput — the tree-walking interpreter (the
// correctness oracle) vs the bytecode VM that now backs every simulation
// and differential test.  Reported in IR statements/second on the §5.1 LU
// kernel; the VM must clear 10x.  Also times the traced configuration that
// feeds the cache simulator, since that is the path the A1/T3 tables pay.
//
// Writes machine-readable results (BENCH_interp.json by default, override
// with --bench_json=<path>) so CI can archive throughput history.
#include <cstdio>

#include "bench/benchutil.hpp"
#include "interp/interp.hpp"
#include "interp/vm.hpp"
#include "kernels/ir_kernels.hpp"

namespace {

using namespace blk;

constexpr long kSizes[] = {60, 100};

ir::Env params_for(long n) { return {{"N", n}}; }

/// Flush sink for the traced rows: counts the delivered records.
void count_records(void* ctx, std::span<const interp::TraceRecord> recs) {
  *static_cast<std::uint64_t*>(ctx) += recs.size();
}

void BM_TreeWalker(benchmark::State& st) {
  ir::Program p = kernels::lu_point_ir();
  interp::Interpreter in(p, params_for(st.range(0)));
  std::uint64_t stmts = 0;
  for (auto _ : st) {
    interp::seed_store(in.store(), 42);
    in.run();
    stmts += in.statements_executed();
    benchmark::DoNotOptimize(in.store().arrays.at("A").flat().data());
  }
  st.counters["stmts/s"] = benchmark::Counter(
      static_cast<double>(stmts), benchmark::Counter::kIsRate);
}

void BM_Vm(benchmark::State& st) {
  ir::Program p = kernels::lu_point_ir();
  interp::Vm vm(p, params_for(st.range(0)));
  std::uint64_t stmts = 0;
  for (auto _ : st) {
    interp::seed_store(vm.store(), 42);
    vm.run();
    stmts += vm.statements_executed();
    benchmark::DoNotOptimize(vm.store().arrays.at("A").flat().data());
  }
  st.counters["stmts/s"] = benchmark::Counter(
      static_cast<double>(stmts), benchmark::Counter::kIsRate);
}

void BM_TreeWalkerTraced(benchmark::State& st) {
  ir::Program p = kernels::lu_point_ir();
  interp::ExecEngine eng(p, params_for(st.range(0)),
                         interp::Engine::TreeWalker);
  std::uint64_t events = 0;
  for (auto _ : st) {
    interp::seed_store(eng.store(), 42);
    interp::TraceBuffer buf(1 << 20, &events, count_records);
    eng.run(buf);
    buf.flush();
  }
  benchmark::DoNotOptimize(events);
}

void BM_VmTraced(benchmark::State& st) {
  ir::Program p = kernels::lu_point_ir();
  interp::ExecEngine eng(p, params_for(st.range(0)), interp::Engine::Vm);
  std::uint64_t events = 0;
  for (auto _ : st) {
    interp::seed_store(eng.store(), 42);
    interp::TraceBuffer buf(1 << 20, &events, count_records);
    eng.run(buf);
    buf.flush();
  }
  benchmark::DoNotOptimize(events);
}

void register_all() {
  for (long n : kSizes) {
    benchmark::RegisterBenchmark("BM_TreeWalker", BM_TreeWalker)->Arg(n);
    benchmark::RegisterBenchmark("BM_Vm", BM_Vm)->Arg(n);
    benchmark::RegisterBenchmark("BM_TreeWalkerTraced", BM_TreeWalkerTraced)
        ->Arg(n);
    benchmark::RegisterBenchmark("BM_VmTraced", BM_VmTraced)->Arg(n);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string json =
      blk::bench::extract_json_path(argc, argv, "BENCH_interp.json");
  register_all();
  auto rep = blk::bench::run_all(argc, argv);

  blk::bench::JsonWriter jw(json);
  blk::bench::Table t({"N", "Tree-walker", "VM", "Speedup", "TW traced",
                       "VM traced", "Traced speedup"});
  for (long n : kSizes) {
    const std::string sfx = "/" + std::to_string(n);
    double tw = rep.get("BM_TreeWalker" + sfx);
    double vm = rep.get("BM_Vm" + sfx);
    double twt = rep.get("BM_TreeWalkerTraced" + sfx);
    double vmt = rep.get("BM_VmTraced" + sfx);
    t.row({std::to_string(n), blk::bench::fmt_time(tw),
           blk::bench::fmt_time(vm), blk::bench::fmt_speedup(tw, vm),
           blk::bench::fmt_time(twt), blk::bench::fmt_time(vmt),
           blk::bench::fmt_speedup(twt, vmt)});
    jw.row("BM_TreeWalker" + sfx, tw);
    if (tw > 0 && vm > 0) jw.row("BM_Vm" + sfx, vm, tw / vm);
    jw.row("BM_TreeWalkerTraced" + sfx, twt);
    if (twt > 0 && vmt > 0) jw.row("BM_VmTraced" + sfx, vmt, twt / vmt);
  }
  t.print("A4: IR execution engines on point LU (oracle tree-walker vs "
          "bytecode VM; target >=10x untraced)");
  if (jw.write()) std::printf("\nwrote %s\n", json.c_str());
  return 0;
}
