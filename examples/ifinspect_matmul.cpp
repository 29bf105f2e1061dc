// §4 end to end: IF-inspection of the guarded SGEMM kernel.  Shows the
// Fig. 4 code the engine generates, verifies it, and times the compiler's
// UJ+IF kernel against the original natively: inspection pays off when
// the executed ranges are long.
//
//   $ ./examples/ifinspect_matmul
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <random>

#include "interp/vm.hpp"
#include "ir/error.hpp"
#include "ir/printer.hpp"
#include "kernels/ir_kernels.hpp"
#include "kernels/matmul.hpp"
#include "native/engine.hpp"
#include "pm/runner.hpp"

using namespace blk;
using namespace blk::ir;

int main() {
  Program p = kernels::matmul_guarded_ir();
  std::printf("Guarded matrix multiply (from BLAS SGEMM):\n%s\n",
              print(p.body).c_str());

  Program inspected = p.clone();
  (void)pm::run_spec(inspected, "focus(var=K); ifinspect");
  std::printf("After IF-inspection (the paper's Fig. 4):\n%s\n",
              print(inspected.body).c_str());

  // Verify on random guards.
  const long n = 24;
  interp::ExecEngine ia(p, {{"N", n}});
  interp::ExecEngine ib(inspected, {{"N", n}});
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (auto* in : {&ia, &ib}) {
    std::uint64_t s = 11;
    for (auto& [name, t] : in->store().arrays) interp::fill_random(t, ++s);
  }
  auto plant = [&](interp::ExecEngine& in, std::uint64_t seed) {
    std::mt19937_64 r2(seed);
    for (double& x : in.store().arrays.at("B").flat())
      x = coin(r2) < 0.2 ? 1.0 : 0.0;
  };
  plant(ia, 9);
  plant(ib, 9);
  ia.run();
  ib.run();
  std::printf("max |difference| original vs inspected: %g\n",
              interp::max_abs_diff(ia.store(), ib.store()));

  // The inspected nest JIT-compiled to native code, same guards planted.
  if (native::available()) {
    interp::ExecEngine in(inspected, {{"N", n}}, interp::Engine::Native);
    std::uint64_t s = 11;
    for (auto& [name, t] : in.store().arrays) interp::fill_random(t, ++s);
    plant(in, 9);
    in.run();
    std::printf("max |difference| VM vs native JIT: %g\n",
                interp::max_abs_diff(ib.store(), in.store()));
  }
  std::printf("\n");

  // Jamming K straight through the guard is refused (§4's negative result:
  // the guard would have to move into the innermost loop).
  try {
    Program direct = p.clone();
    (void)pm::run_spec(direct, "focus(var=K); unrolljam(u=4)");
  } catch (const Error& e) {
    std::printf("UJ without inspection: %s\n", e.what());
  }

  // The compiler's UJ+IF (bench_paper's T2 row: inspect K, then
  // unroll-and-jam the executor's K loop by 4) against the original, both
  // as native code at the paper's 300x300, long vs short runs.
  if (native::available()) {
    Program ujif = p.clone();
    (void)pm::run_spec(ujif, "focus(var=K); ifinspect; focus(var=K, "
                             "index=1); unrolljam(u=4)");
    const long nn = 300;
    for (std::size_t run : {8UL, 1UL}) {
      const kernels::Matrix b = kernels::make_guard_matrix(nn, 0.1, run, 5);
      auto time = [&](const Program& prog) {
        interp::ExecEngine e(prog, {{"N", nn}}, interp::Engine::Native);
        interp::seed_store(e.store(), 4);
        std::ranges::copy(b.flat(), e.store().arrays.at("B").flat().begin());
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < 20; ++i) e.run();
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
      };
      std::printf("10%% nonzero, run length %zu: original %.2fms, UJ+IF "
                  "%.2fms\n",
                  run, time(p) * 50, time(ujif) * 50);
    }
    std::printf("\n(IF-inspection wins when ranges are long; with "
                "scattered singletons it does not pay — §4's closing "
                "remark.)\n");
  }
  return 0;
}
