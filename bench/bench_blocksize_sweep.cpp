// A2 (ablation): block-size sweep for the optimized LU kernels ("2+" and
// pivoted "1+") on the host — the design-choice study behind the paper's
// fixed KS in {32, 64}, and the data the §6 machine model's choice should
// roughly match.  The §5.1 parallel trailing update is timed on derived
// code by bench_parallel (its certified lu_blocked rows).
#include "bench/benchutil.hpp"
#include "kernels/lu.hpp"
#include "kernels/lu_pivot.hpp"

namespace {

using namespace blk::kernels;

void BM_NoPivOpt(benchmark::State& st) {
  const std::size_t n = static_cast<std::size_t>(st.range(0));
  Matrix a0 = random_diag_dominant(n, 23);
  Matrix a = a0;
  const std::size_t ks = static_cast<std::size_t>(st.range(1));
  for (auto _ : st) {
    a = a0;
    lu_block_opt(a, ks);
    benchmark::DoNotOptimize(a.flat().data());
  }
}

void BM_PivotOpt(benchmark::State& st) {
  const std::size_t n = static_cast<std::size_t>(st.range(0));
  Matrix a0(n, n);
  fill_random(a0, 24);
  Matrix a = a0;
  std::vector<std::size_t> piv;
  const std::size_t ks = static_cast<std::size_t>(st.range(1));
  for (auto _ : st) {
    a = a0;
    lu_pivot_block_opt(a, piv, ks);
    benchmark::DoNotOptimize(a.flat().data());
  }
}

constexpr long kBlocks[] = {8, 16, 32, 64, 128};

void register_all() {
  for (long ks : kBlocks) {
    benchmark::RegisterBenchmark("BM_NoPivOpt", BM_NoPivOpt)
        ->Args({500, ks});
    benchmark::RegisterBenchmark("BM_PivotOpt", BM_PivotOpt)
        ->Args({500, ks});
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  auto rep = blk::bench::run_all(argc, argv);
  blk::bench::Table t({"KS", "LU 2+ (N=500)", "Pivoted 1+ (N=500)"});
  for (long ks : kBlocks) {
    std::string sfx = "/500/" + std::to_string(ks);
    t.row({std::to_string(ks),
           blk::bench::fmt_time(rep.get("BM_NoPivOpt" + sfx)),
           blk::bench::fmt_time(rep.get("BM_PivotOpt" + sfx))});
  }
  t.print("A2: block-size sweep for the optimized LU kernels");
  return 0;
}
