// The §3.2 seismic pipeline: take the adjoint convolution with its
// MIN/MAX trapezoid bounds, split the iteration space, normalize the
// rhomboidal piece, unroll-and-jam — all on IR — then time the compiler's
// optconv kernel against the point loop natively (the oil-exploration
// loops were 20% of that program's runtime).
//
//   $ ./examples/convolution_pipeline
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
  Program p = kernels::aconv_ir();
  std::printf("Adjoint convolution, point form:\n%s\n",
              print(p.body).c_str());

  // 1. Index-set split the trapezoid: one rhomboidal piece (K = I..I+N2)
  //    and one triangular piece (K = I..N1).  The pipeline context keeps
  //    the pieces between stages.
  pm::PipelineContext ctx(p);
  (void)pm::run_pipeline(pm::parse_pipeline("split-trapezoid"), ctx);
  std::printf("After trapezoid splitting (%zu loops):\n%s\n",
              ctx.pieces.size(), print(p.body).c_str());

  // 2. Normalize the rhomboid's K loop, making it rectangular, then
  //    unroll-and-jam I by 4 (register blocking).  focus retargets the
  //    pipeline at each loop by variable name.
  (void)pm::run_pipeline(
      pm::parse_pipeline("focus(var=K); normalize; focus(var=I); "
                         "unrolljam(u=4)"),
      ctx);
  std::printf("After normalization + unroll-and-jam of the rhomboid:\n%s\n",
              print(p.body).c_str());

  // 3. Verify against the original on the interpreter.
  Program orig = kernels::aconv_ir();
  const long size = 40;
  ir::Env env{{"N1", size - 1}, {"N2", 6 * (size - 1) / 7},
              {"N3", size - 1}};
  interp::ExecEngine ia(orig, env), ib(p, env);
  for (auto* in : {&ia, &ib}) {
    std::uint64_t k = 5;
    for (auto& [name, t] : in->store().arrays) interp::fill_random(t, ++k);
    in->store().scalars["DT"] = 0.25;
  }
  ia.run();
  ib.run();
  std::printf("max |difference| after the IR pipeline: %g\n",
              interp::max_abs_diff(ia.store(), ib.store()));

  // The transformed nest through the native JIT (C backend + host cc).
  if (native::available()) {
    interp::ExecEngine in(p, env, interp::Engine::Native);
    std::uint64_t k = 5;
    for (auto& [name, t] : in.store().arrays) interp::fill_random(t, ++k);
    in.store().scalars["DT"] = 0.25;
    in.run();
    std::printf("max |difference| VM vs native JIT: %g\n",
                interp::max_abs_diff(ib.store(), in.store()));
  }
  std::printf("\n");

  // 4. The compiler's own optconv(u=4) output against the point loop, both
  //    as native code (what the paper timed): quick wall-clock comparison.
  if (native::available()) {
    Program derived = kernels::aconv_ir();
    (void)pm::run_spec(derived, "optconv(u=4)");
    for (long s : {300L, 500L}) {
      const ir::Env senv{{"N1", s - 1}, {"N2", 6 * (s - 1) / 7}, {"N3", s - 1}};
      auto time = [&](const Program& prog) {
        interp::ExecEngine e(prog, senv, interp::Engine::Native);
        interp::seed_store(e.store(), 5);
        e.store().scalars["DT"] = 0.25;
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < 1000; ++i) e.run();  // the paper's 1000 repetitions
        return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
            .count();
      };
      double tp = time(orig);
      double to = time(derived);
      std::printf("Aconv size %3ld x1000 reps: original %.3fs, optconv "
                  "%.3fs, speedup %.2f\n",
                  s, tp, to, tp / to);
    }
  }
  return 0;
}
