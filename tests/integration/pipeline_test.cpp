// End-to-end pipelines: parse -> analyze -> transform -> execute, plus the
// cache-model claims tying the whole system to the paper's thesis.
#include <gtest/gtest.h>

#include "cachesim/cache.hpp"
#include "interp/interp.hpp"
#include "ir/builder.hpp"
#include "ir/printer.hpp"
#include "kernels/ir_kernels.hpp"
#include "lang/blockdo.hpp"
#include "lang/parser.hpp"
#include "pm/runner.hpp"
#include "testutil.hpp"
#include "transform/blocking.hpp"
#include "transform/ifinspect.hpp"
#include "transform/scalarrepl.hpp"
#include "transform/split.hpp"
#include "transform/unrolljam.hpp"

namespace blk {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;

TEST(Pipeline, SourceToBlockLu) {
  // The full §5.1 story from *source text*: parse the natural point
  // algorithm, block it automatically, run both.
  auto cr = lang::compile(
      "PARAMETER N\n"
      "REAL*8 A(N,N)\n"
      "DO K = 1, N-1\n"
      "  DO I = K+1, N\n"
      "    A(I,K) = A(I,K)/A(K,K)\n"
      "  ENDDO\n"
      "  DO J = K+1, N\n"
      "    DO I = K+1, N\n"
      "      A(I,J) = A(I,J) - A(I,K)*A(K,J)\n"
      "    ENDDO\n"
      "  ENDDO\n"
      "ENDDO\n");
  Program point = cr.program.clone();
  cr.program.param("KS");
  analysis::Assumptions hints;
  hints.assert_le(v("K") + v("KS") - 1, v("N") - 1);
  pm::RunReport r = pm::run_spec(cr.program, "autoblock(b=KS)", hints);
  EXPECT_EQ(r.passes[0].note, "blocked, 1 splits, 2 interchanges");
  for (long n : {21L, 30L}) {
    ir::Env env{{"N", n}, {"KS", 8}};
    EXPECT_EQ(0.0, test::run_and_diff(point, cr.program, env, 91,
                                      {{"A", static_cast<double>(n)}}));
  }
}

TEST(Pipeline, ConvTrapezoidSplitThenNormalizeThenJam) {
  // §3.2 pipeline on the adjoint convolution IR: split the trapezoid,
  // normalize the rhomboid piece, unroll-and-jam its I loop.
  Program p = kernels::aconv_ir();
  Program orig = p.clone();
  auto loops = transform::split_trapezoid_all(p.body, p.body[0]->as_loop());
  ASSERT_EQ(loops.size(), 2u);
  // Piece 1 is rhomboidal (K = I .. I+N2): normalize K, then jam I.
  Loop& rhomboid = *loops[0];
  transform::normalize_loop(p.body, rhomboid.body[0]->as_loop());
  transform::unroll_and_jam(p, rhomboid, 4);
  for (long size : {10L, 33L, 60L}) {
    ir::Env env{{"N1", size - 1}, {"N2", 6 * (size - 1) / 7},
                {"N3", size - 1}};
    // DT is a scalar input; bind it through the stores.
    interp::Interpreter ia(orig, env);
    interp::Interpreter ib(p, env);
    test::seed_inputs(ia, 92);
    test::seed_inputs(ib, 92);
    ia.store().scalars["DT"] = 0.25;
    ib.store().scalars["DT"] = 0.25;
    ia.run();
    ib.run();
    EXPECT_EQ(interp::max_abs_diff(ia.store(), ib.store()), 0.0)
        << "size " << size;
  }
}

TEST(Pipeline, GivensPreparationSteps) {
  // §5.4: scalar-expand the rotation coefficients, split K at L, then
  // IF-inspect the J loop — each step preserving semantics.
  Program p = kernels::givens_qr_ir();
  Program orig = p.clone();

  Loop& l = p.body[0]->as_loop();
  Loop& j = l.body[0]->as_loop();
  // Scalar expansion of C and S (the coefficients consumed later).
  transform::scalar_expand(p, p.body, j, "C");
  transform::scalar_expand(p, p.body, j, "S");
  std::string out = print(p.body);
  EXPECT_NE(out.find("CX(J)"), std::string::npos);
  EXPECT_NE(out.find("SX(J)"), std::string::npos);

  // Split the K loop at L: the K = L iteration (which updates column L,
  // feeding later guards) separates from the trailing columns.
  If& guard = j.body[0]->as_if();
  Loop& k = guard.then_body.back()->as_loop();
  transform::split_at(p.body, k, ivar("L"));

  for (long m : {6L, 14L}) {
    ir::Env env{{"M", m}, {"N", m - 2}};
    EXPECT_EQ(0.0, test::run_and_diff(orig, p, env, 93));
  }
}

TEST(Pipeline, MatmulIfInspectThenJamExecutor) {
  // §4's full recipe: IF-inspect the guarded K loop, then unroll-and-jam
  // the executor's I loop for register reuse.
  Program p = kernels::matmul_guarded_ir();
  Program orig = p.clone();
  Loop& k = p.body[0]->as_loop().body[0]->as_loop();
  auto res = transform::if_inspect(p, p.body, k);
  transform::unroll_and_jam(p, res.executor->body[0]->as_loop(), 2,
                            nullptr, /*check=*/false);
  for (long n : {7L, 16L}) {
    interp::Interpreter ia(orig, {{"N", n}});
    interp::Interpreter ib(p, {{"N", n}});
    test::seed_inputs(ia, 94);
    test::seed_inputs(ib, 94);
    // Make ~30% of the guards zero, deterministically.
    auto zero_some = [](interp::Interpreter& in) {
      auto& b = in.store().arrays.at("B");
      int c2 = 0;
      for (double& x : b.flat())
        if (++c2 % 3 == 0) x = 0.0;
    };
    zero_some(ia);
    zero_some(ib);
    ia.run();
    ib.run();
    EXPECT_EQ(interp::max_abs_diff(ia.store(), ib.store()), 0.0);
  }
}

TEST(Pipeline, BlockDoSourceThroughAnalyticModel) {
  // §6 end to end: BLOCK DO source, machine-chosen factor, bound, run.
  auto cr = lang::compile(
      "PARAMETER N\n"
      "REAL*8 A(N,N), B(N,N)\n"
      "BLOCK DO J = 1, N\n"
      "  DO I = 1, N\n"
      "    IN J DO JJ\n"
      "      A(I,JJ) = A(I,JJ) + B(JJ,I)\n"
      "    ENDDO\n"
      "  ENDDO\n"
      "ENDDO\n");
  model::MachineParams machine;
  lang::bind_block_sizes(cr, lang::choose_block_sizes(cr, machine));

  // Reference: the unblocked loop.
  Program ref;
  ref.param("N");
  ref.array("A", {v("N"), v("N")});
  ref.array("B", {v("N"), v("N")});
  ref.add(loop("J", c(1), v("N"),
               loop("I", c(1), v("N"),
                    assign(lv("A", {v("I"), v("J")}),
                           a("A", {v("I"), v("J")}) +
                               a("B", {v("J"), v("I")})))));
  for (long n : {5L, 40L, 70L})
    EXPECT_EQ(0.0, test::run_and_diff(ref, cr.program, {{"N", n}}, 95));
}

TEST(Pipeline, CacheModelConfirmsBlockingHelps2DStencilToo) {
  // The §2.3 running example through the cache simulator: blocking the J
  // loop captures B's temporal reuse.
  Program p = kernels::sum_example_ir();
  Program blocked = p.clone();
  blocked.param("JS");
  (void)pm::run_spec(blocked, "stripmine(b=JS); interchange");

  cachesim::CacheConfig tiny{.size_bytes = 4096, .line_bytes = 64,
                             .assoc = 4};
  ir::Env env{{"N", 64}, {"M", 4096}};
  ir::Env benv{{"N", 64}, {"M", 4096}, {"JS", 16}};
  auto sp = cachesim::simulate(p, env, tiny);
  auto sb = cachesim::simulate(blocked, benv, tiny);
  EXPECT_EQ(sp.accesses, sb.accesses);
  EXPECT_LT(sb.miss_ratio(), sp.miss_ratio());
}

TEST(Pipeline, RS6000ModelMissRatesForLu) {
  // Machine-independent stand-in for the paper's RS/6000 measurements:
  // on the 64KB cache model, blocked LU misses far less at out-of-cache
  // sizes.
  Program point = kernels::lu_point_ir();
  Program blocked = point.clone();
  blocked.param("KS");
  analysis::Assumptions hints;
  hints.assert_le(v("K") + v("KS") - 1, v("N") - 1);
  (void)pm::run_spec(blocked, "autoblock(b=KS)", hints);
  cachesim::CacheConfig rs6000{.size_bytes = 64 * 1024, .line_bytes = 128,
                               .assoc = 4};
  const long n = 160;  // 160x160 doubles = 200 KB >> 64 KB
  auto sp = cachesim::simulate(point, {{"N", n}}, rs6000);
  auto sb = cachesim::simulate(blocked, {{"N", n}, {"KS", 32}}, rs6000);
  EXPECT_LT(static_cast<double>(sb.misses),
            0.6 * static_cast<double>(sp.misses))
      << "point " << sp.misses << " blocked " << sb.misses;
}

}  // namespace
}  // namespace blk
