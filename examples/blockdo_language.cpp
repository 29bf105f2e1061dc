// §6 end to end: the machine-independent BLOCK DO source for block LU
// (Fig. 11), compiled by the mini-Fortran front end, with the blocking
// factor chosen by the compiler's analytic machine model (the one
// selectblock uses) — never by the programmer.
//
//   $ ./examples/blockdo_language
#include <cstdio>

#include "interp/vm.hpp"
#include "ir/builder.hpp"
#include "ir/printer.hpp"
#include "kernels/ir_kernels.hpp"
#include "lang/blockdo.hpp"
#include "lang/parser.hpp"
#include "native/engine.hpp"
#include "pm/runner.hpp"

using namespace blk;
using namespace blk::ir::dsl;

static const char* kFig11 = R"(
PARAMETER N
REAL*8 A(N,N)
BLOCK DO K = 1, N-1
  IN K DO KK
    DO I = KK+1, N
      A(I,KK) = A(I,KK)/A(KK,KK)
    ENDDO
    DO J = KK+1, LAST(K)
      DO I = KK+1, N
        A(I,J) = A(I,J) - A(I,KK)*A(KK,J)
      ENDDO
    ENDDO
  ENDDO
  DO J = LAST(K)+1, N
    DO I = K+1, N
      IN K DO KK = K, MIN(LAST(K), I-1)
        A(I,J) = A(I,J) - A(I,KK)*A(KK,J)
      ENDDO
    ENDDO
  ENDDO
ENDDO
)";

int main() {
  std::printf("Machine-independent source (the paper's Fig. 11):\n%s\n",
              kFig11);

  auto cr = lang::compile(kFig11);
  std::printf("Lowered IR (blocking factor still symbolic):\n%s\n",
              ir::print(cr.program.body).c_str());

  // Three machines, three factors — same source.
  struct Target {
    const char* name;
    cachesim::CacheConfig cache;
  };
  const Target targets[] = {
      {"RS/6000 540 (64KB cache)",
       {.size_bytes = 64 * 1024, .line_bytes = 128, .assoc = 4}},
      {"small embedded (8KB cache)",
       {.size_bytes = 8 * 1024, .line_bytes = 64, .assoc = 4}},
      {"large L2 (512KB)",
       {.size_bytes = 512 * 1024, .line_bytes = 64, .assoc = 8}},
  };
  auto machine = [](const cachesim::CacheConfig& l1) {
    model::MachineParams m;
    m.levels = {l1};
    return m;
  };
  for (const auto& t : targets) {
    auto sizes = lang::choose_block_sizes(cr, machine(t.cache));
    std::printf("%-28s -> BS_K = %ld\n", t.name, sizes.at("BS_K"));
  }

  // Bind the RS/6000 choice and check against the point algorithm.
  auto sizes = lang::choose_block_sizes(cr, machine(targets[0].cache));
  lang::bind_block_sizes(cr, sizes);
  ir::Program point = kernels::lu_point_ir();
  const long n = 40;
  interp::ExecEngine ia(point, {{"N", n}});
  interp::ExecEngine ib(cr.program, {{"N", n}});
  for (auto* in : {&ia, &ib}) {
    auto& t = in->store().arrays.at("A");
    interp::fill_random(t, 7);
    for (long i = 1; i <= n; ++i) {
      std::vector<long> idx{i, i};
      t.at(idx) += static_cast<double>(n);
    }
  }
  ia.run();
  ib.run();
  std::printf("\nBLOCK DO LU vs point LU at N=%ld: max |difference| = %g\n",
              n, interp::max_abs_diff(ia.store(), ib.store()));

  // Close the loop with the optimizer: the same block algorithm the user
  // wrote in BLOCK DO form is what the pass pipeline derives from the
  // point algorithm automatically — run it at the machine-chosen factor
  // and check it computes the same thing.
  ir::Program derived = kernels::lu_point_ir();
  analysis::Assumptions hints;
  hints.assert_le(v("K") + v("KS") - 1, v("N") - 1);
  (void)pm::run_spec(derived, "autoblock(b=KS)", hints);
  interp::ExecEngine ic(derived, {{"N", n}, {"KS", sizes.at("BS_K")}});
  {
    auto& t = ic.store().arrays.at("A");
    interp::fill_random(t, 7);
    for (long i = 1; i <= n; ++i) {
      std::vector<long> idx{i, i};
      t.at(idx) += static_cast<double>(n);
    }
  }
  ic.run();
  std::printf("autoblock(b=KS)-derived LU at KS=%ld vs point LU: "
              "max |difference| = %g\n",
              sizes.at("BS_K"), interp::max_abs_diff(ia.store(), ic.store()));

  // The BLOCK DO program straight to native code via the JIT engine.
  if (native::available()) {
    // bind_block_sizes substituted BS_K into the body but the parameter
    // stays declared; the native ABI wants every declared param bound.
    interp::ExecEngine in(cr.program,
                          {{"N", n}, {"BS_K", sizes.at("BS_K")}},
                          interp::Engine::Native);
    auto& t = in.store().arrays.at("A");
    interp::fill_random(t, 7);
    for (long i = 1; i <= n; ++i) {
      std::vector<long> idx{i, i};
      t.at(idx) += static_cast<double>(n);
    }
    in.run();
    std::printf("native JIT vs VM on the BLOCK DO program: "
                "max |difference| = %g\n",
                interp::max_abs_diff(ib.store(), in.store()));
  }
  return 0;
}
