// §4 end to end: IF-inspection of the guarded SGEMM kernel.  Shows the
// Fig. 4 code the engine generates, verifies it, and demonstrates the
// run-time trade-off the paper describes: inspection pays off when the
// executed ranges are long.
//
//   $ ./examples/ifinspect_matmul
#include <chrono>
#include <cstdio>
#include <random>

#include "interp/vm.hpp"
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

  // The native kernels at the paper's 300x300, long vs short runs.
  const std::size_t nn = 300;
  kernels::Matrix a(nn, nn);
  kernels::fill_random(a, 4);
  auto time = [&](auto&& fn) {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 20; ++i) fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  for (std::size_t run : {8UL, 1UL}) {
    kernels::Matrix b = kernels::make_guard_matrix(nn, 0.1, run, 5);
    kernels::Matrix c(nn, nn);
    double t_orig = time([&] { kernels::matmul_guarded(a, b, c); });
    double t_uj = time([&] { kernels::matmul_uj_guard_inside(a, b, c); });
    double t_ujif = time([&] { kernels::matmul_uj_ifinspect(a, b, c); });
    std::printf("10%% nonzero, run length %zu: original %.1fms, "
                "guard-inside UJ %.1fms, UJ+IF %.1fms\n",
                run, t_orig * 50, t_uj * 50, t_ujif * 50);
  }
  std::printf("\n(IF-inspection wins when ranges are long; with scattered "
              "singletons it merely breaks even — §4's closing remark.)\n");
  return 0;
}
