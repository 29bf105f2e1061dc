// §5.4 end to end: Fig. 9 -> Fig. 10 by the fully automatic driver, then
// the compiler's register-blocked kernel timed against the point loop
// natively (the paper's table T5).
//
//   $ ./examples/givens_pipeline
#include <chrono>
#include <cstdio>

#include "interp/vm.hpp"
#include "ir/printer.hpp"
#include "kernels/ir_kernels.hpp"
#include "native/engine.hpp"
#include "pm/runner.hpp"
#include "pm/spec.hpp"

using namespace blk;
using namespace blk::ir;

int main() {
  Program p = kernels::givens_qr_ir();
  std::printf("Givens QR, point algorithm (the paper's Fig. 9):\n%s\n",
              print(p.body).c_str());

  Program orig = p.clone();
  pm::PipelineContext ctx(p);
  (void)pm::run_pipeline(pm::parse_pipeline("optgivens"), ctx);
  std::printf("After the 'optgivens' pipeline (%d interchanges — the "
              "paper's Fig. 10):\n%s\n",
              ctx.interchanges, print(p.body).c_str());

  // Identical results on the interpreter.
  const long m = 18, n = 14;
  interp::ExecEngine ia(orig, {{"M", m}, {"N", n}});
  interp::ExecEngine ib(p, {{"M", m}, {"N", n}});
  for (auto* in : {&ia, &ib}) {
    auto& t = in->store().arrays.at("A");
    interp::fill_random(t, 8);
  }
  ia.run();
  ib.run();
  std::printf("max |point - optimized| on the interpreter: %g\n",
              interp::max_abs_diff(ia.store(), ib.store()));

  // The optimized nest as JIT-compiled native code; its live-out rotation
  // scalars round-trip through the entry wrapper like the VM's.
  if (native::available()) {
    interp::ExecEngine in(p, {{"M", m}, {"N", n}}, interp::Engine::Native);
    interp::fill_random(in.store().arrays.at("A"), 8);
    in.run();
    std::printf("max |difference| VM vs native JIT: %g\n",
                interp::max_abs_diff(ib.store(), in.store()));
  }
  std::printf("\n");

  // The compiler's own Fig. 10, register-blocked (bench_paper's T5
  // "optgivens+" row: K unroll-and-jammed by 4, A(L,K) kept in a scalar
  // across each recorded J range), against the point loop, both as native
  // code: one call each on the same matrix.
  if (native::available()) {
    Program plus = kernels::givens_qr_ir();
    (void)pm::run_spec(plus,
                       "optgivens; focus(var=K, index=1); registerblock(u=4)");
    for (long size : {300L, 500L}) {
      auto time = [&](const Program& prog) {
        interp::ExecEngine e(prog, {{"M", size}, {"N", size}},
                             interp::Engine::Native);
        interp::fill_random(e.store().arrays.at("A"), 9);
        auto t0 = std::chrono::steady_clock::now();
        e.run();
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
      };
      const double tp = time(orig);
      const double to = time(plus);
      std::printf("%ldx%ld: point %.1fms, optgivens+ %.1fms, speedup %.2f "
                  "(paper: %.2f)\n",
                  size, size, tp * 1e3, to * 1e3, tp / to,
                  size == 300 ? 2.04 : 5.49);
    }
  }
  return 0;
}
