// C backend tests: golden snippets plus a full compile-and-run round trip
// through the host C compiler.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include <cstring>
#include <map>

#include "interp/interp.hpp"
#include "interp/vm.hpp"
#include "ir/builder.hpp"
#include "ir/codegen.hpp"
#include "kernels/ir_kernels.hpp"
#include "native/engine.hpp"
#include "pm/runner.hpp"
#include "pm/spec.hpp"
#include "testutil.hpp"
#include "transform/ifinspect.hpp"

namespace blk::ir {
namespace {

using namespace blk::ir::dsl;

TEST(Codegen, SignatureAndMacros) {
  Program p = blk::kernels::lu_point_ir();
  std::string c = emit_c(p, "lu_point");
  EXPECT_NE(c.find("void lu_point(long N, double* restrict A_buf)"),
            std::string::npos)
      << c;
  // Column-major macro with 1-based lower bounds folded in.
  EXPECT_NE(c.find("#define A(i0, i1) "
                   "A_buf[((i0) - (1L)) + ((i1) - (1L)) * ((N) - (1L) + 1)]"),
            std::string::npos)
      << c;
  EXPECT_NE(c.find("A(I, J) = (A(I, J) - (A(I, K) * A(K, J)))"),
            std::string::npos);
}

TEST(Codegen, NegativeLowerBoundsAndScalars) {
  Program p = blk::kernels::aconv_ir();
  std::string c = emit_c(p, "aconv");
  EXPECT_NE(c.find("double DT = 0.0;"), std::string::npos);
  // F2 is dimensioned (-N2:0): the macro subtracts the lower bound.
  EXPECT_NE(c.find("F2_buf[((i0) - ((0L - N2)))"), std::string::npos) << c;
  EXPECT_NE(c.find("BLK_MIN((I + N2), N1)"), std::string::npos);
}

TEST(Codegen, ScalarUsedAsIndexGetsCast) {
  Program p = blk::kernels::lu_pivot_point_ir();
  std::string c = emit_c(p, "lu_pivot");
  EXPECT_NE(c.find("A((long)IMAX, J)"), std::string::npos) << c;
}

TEST(Codegen, IfInspectionRuntimeFormsEmit) {
  Program p = blk::kernels::matmul_guarded_ir();
  ir::StmtList& root = p.body;
  Loop& k = root[0]->as_loop().body[0]->as_loop();
  // Build the inspected version so ArrayElem bounds appear.
  blk::transform::if_inspect(p, root, k);
  std::string c = emit_c(p, "mm");
  EXPECT_NE(c.find("(long)KLB(KN)"), std::string::npos) << c;
  EXPECT_NE(c.find("KN_ub = (long)KC"), std::string::npos);
}

// Full round trip: emit point LU and the automatically blocked LU, compile
// both with the host C compiler, run them on the same matrix, and require
// identical factors — machine-independence made concrete.
TEST(Codegen, CompileAndRunPointVsBlockedLu) {
  Program point = blk::kernels::lu_point_ir();
  Program blocked = point.clone();
  blocked.param("KS");
  analysis::Assumptions hints;
  hints.assert_le(isub(iadd(ivar("K"), ivar("KS")), iconst(1)),
                  isub(ivar("N"), iconst(1)));
  pm::RunReport r = pm::run_spec(blocked, "autoblock(b=KS)", hints);
  ASSERT_EQ(r.passes[0].note, "blocked, 1 splits, 2 interchanges");

  std::string dir = ::testing::TempDir();
  std::string src_path = dir + "/blk_codegen_lu.c";
  {
    std::ofstream out(src_path);
    out << emit_c(point, "lu_point") << '\n'
        << emit_c(blocked, "lu_blocked") << '\n' << R"(
#include <stdio.h>
#include <stdlib.h>
int main(void) {
  const long n = 37, ks = 8;             /* ragged final block on purpose */
  double* a = malloc(sizeof(double) * n * n);
  double* b = malloc(sizeof(double) * n * n);
  unsigned long long seed = 1;
  for (long i = 0; i < n * n; ++i) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    a[i] = (double)(seed >> 40) / (double)(1 << 24);
  }
  for (long i = 0; i < n; ++i) a[i * n + i] += (double)n;
  for (long i = 0; i < n * n; ++i) b[i] = a[i];
  lu_point(n, a);
  lu_blocked(n, ks, b);
  double worst = 0.0;
  for (long i = 0; i < n * n; ++i) {
    double d = a[i] - b[i];
    if (d < 0) d = -d;
    if (d > worst) worst = d;
  }
  printf("%g\n", worst);
  return worst == 0.0 ? 0 : 1;
}
)";
  }
  std::string exe = dir + "/blk_codegen_lu";
  std::string cmd = "cc -O1 -o " + exe + " " + src_path + " -lm 2>" + dir +
                    "/blk_codegen_lu.err";
  ASSERT_EQ(std::system(cmd.c_str()), 0)
      << "C compilation failed; see " << dir << "/blk_codegen_lu.err";
  EXPECT_EQ(std::system(exe.c_str()), 0)
      << "generated point and blocked LU disagree";
}

}  // namespace
}  // namespace blk::ir

namespace blk::ir {
namespace {

// The §5.4 pipeline through the C backend: optgivens output compiles
// and matches the point algorithm when run natively.
TEST(Codegen, CompileAndRunGivensPipeline) {
  Program point = blk::kernels::givens_qr_ir();
  Program opt = point.clone();
  (void)pm::run_spec(opt, "optgivens");

  std::string dir = ::testing::TempDir();
  std::string src_path = dir + "/blk_codegen_givens.c";
  {
    std::ofstream out(src_path);
    out << emit_c(point, "givens_point") << '\n'
        << emit_c(opt, "givens_opt") << '\n' << R"(
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
int main(void) {
  const long m = 23, n = 17;
  double* a = malloc(sizeof(double) * m * n);
  double* b = malloc(sizeof(double) * m * n);
  double* jlb = malloc(sizeof(double) * (m + 1));
  double* jub = malloc(sizeof(double) * (m + 1));
  unsigned long long seed = 9;
  for (long i = 0; i < m * n; ++i) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    a[i] = (double)(seed >> 40) / (double)(1 << 24) - 0.5;
  }
  /* zeros below the diagonal in column 1 exercise the guard */
  for (long i = 2; i < m; i += 3) a[i] = 0.0;
  memcpy(b, a, sizeof(double) * m * n);
  double* cx = malloc(sizeof(double) * m);
  double* sx = malloc(sizeof(double) * m);
  givens_point(m, n, a);
  givens_opt(m, n, b, cx, jlb, jub, sx);
  double worst = 0.0;
  for (long i = 0; i < m * n; ++i) {
    double d = a[i] - b[i];
    if (d < 0) d = -d;
    if (d > worst) worst = d;
  }
  printf("%g\n", worst);
  return worst < 1e-12 ? 0 : 1;
}
)";
  }
  std::string exe = dir + "/blk_codegen_givens";
  std::string cmd = "cc -O1 -o " + exe + " " + src_path + " -lm 2>" + dir +
                    "/blk_codegen_givens.err";
  ASSERT_EQ(std::system(cmd.c_str()), 0)
      << "C compilation failed; see " << dir << "/blk_codegen_givens.err";
  EXPECT_EQ(std::system(exe.c_str()), 0)
      << "generated point and optimized Givens disagree";
}


// ---- Differential corner suite --------------------------------------------
//
// Every parity corner where C and the VM could plausibly disagree gets an
// emit -> compile -> run comparison against the VM on identical seeded
// inputs, bit for bit (the default native flags pin -ffp-contract=off, so
// agreement is exact).  Skipped when the host has no C toolchain.

/// Run `p` on the VM and the native JIT engine under identical inputs and
/// require bitwise-identical stores.
void expect_native_matches_vm(
    const Program& p, const Env& env, std::uint64_t seed,
    const std::map<std::string, double>& diag_boost = {}) {
  interp::ExecEngine vm(p, env, interp::Engine::Vm);
  interp::ExecEngine nat(p, env, interp::Engine::Native);
  ASSERT_EQ(nat.engine(), interp::Engine::Native);
  for (auto* e : {&vm, &nat}) {
    blk::test::seed_inputs(*e, seed, diag_boost);
    auto dt = e->store().scalars.find("DT");
    if (dt != e->store().scalars.end()) dt->second = 0.25;
  }
  vm.run();
  nat.run();
  for (const auto& [name, ta] : vm.store().arrays) {
    const interp::Tensor& tb = nat.store().arrays.at(name);
    ASSERT_EQ(ta.size(), tb.size()) << name;
    EXPECT_EQ(std::memcmp(ta.flat().data(), tb.flat().data(),
                          ta.size() * sizeof(double)),
              0)
        << "array " << name << " differs between VM and native";
  }
  for (const auto& [name, va] : vm.store().scalars) {
    const double vb = nat.store().scalars.at(name);
    EXPECT_EQ(std::memcmp(&va, &vb, sizeof(double)), 0)
        << "scalar " << name << " differs between VM and native";
  }
}

#define SKIP_WITHOUT_TOOLCHAIN() \
  if (!blk::native::available()) GTEST_SKIP() << "no host C toolchain"

TEST(CodegenDifferential, FloorAndCeilDivNegativeNumerators) {
  SKIP_WITHOUT_TOOLCHAIN();
  // I-20 is negative throughout, so BLK_FDIV/BLK_CDIV take their negative
  // branches; a round-toward-zero C division here would hit different
  // elements than the VM and shift the counts.
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {iadd(iconst(9), ifloordiv(isub(ivar("I"),
                                                            iconst(20)),
                                                       3))}),
                    a("A", {iadd(iconst(9),
                                 ifloordiv(isub(ivar("I"), iconst(20)), 3))}) +
                        f(1.0)),
             assign(lv("B", {iadd(iconst(9), iceildiv(isub(ivar("I"),
                                                           iconst(20)),
                                                      3))}),
                    a("B", {iadd(iconst(9),
                                 iceildiv(isub(ivar("I"), iconst(20)), 3))}) +
                        f(1.0))));
  expect_native_matches_vm(p, {{"N", 12}}, 21);
}

TEST(CodegenDifferential, MinMaxBoundedLoops) {
  SKIP_WITHOUT_TOOLCHAIN();
  // Trapezoidal bounds evaluated once at loop entry in both engines.
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.add(loop("I", c(1), v("N"),
             loop("K", imax(c(1), v("I") - 2), imin(v("N"), v("I") + 2),
                  assign(lv("A", {v("K")}),
                         a("A", {v("K")}) + a("B", {v("I")})))));
  expect_native_matches_vm(p, {{"N", 15}}, 22);
}

TEST(CodegenDifferential, ZeroTripLoops) {
  SKIP_WITHOUT_TOOLCHAIN();
  // An ascending loop whose lower bound exceeds N, and a descending loop
  // whose bounds are inverted: neither body may execute (the guarded body
  // would index out of bounds, which the VM traps).
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.add(loop("I", v("N") + 2, v("N"),
             assign(lv("A", {v("N") + 1}), f(99.0))));
  p.add(loop_step("I", c(1), v("N"), c(-1),
                  assign(lv("A", {v("N") + 1}), f(99.0))));
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), a("A", {v("I")}) * f(2.0))));
  expect_native_matches_vm(p, {{"N", 7}}, 23);
}

TEST(CodegenDifferential, ScalarSubscriptsTruncateTowardZero) {
  SKIP_WITHOUT_TOOLCHAIN();
  // (long)3.7 = 3 and (long)-2.7 = -2 in C; the VM's static_cast<long>
  // agrees.  A rounding or floor-based emitter would hit A(-3) instead.
  Program p;
  p.param("N");
  p.scalar("S");
  p.scalar("T");
  p.array_bounds("A", {{.lb = c(0) - v("N"), .ub = v("N")}});
  p.add(assign(lvs("S"), f(3.7)));
  p.add(assign(lv("A", {ivar("S")}), f(1.0)));
  p.add(assign(lvs("T"), f(-2.7)));
  p.add(assign(lv("A", {ivar("T")}), f(2.0)));
  p.add(assign(lvs("S"), s("S") * s("T")));
  expect_native_matches_vm(p, {{"N", 5}}, 24);
}

TEST(CodegenDifferential, GoldenLuPointAndAutoBlocked) {
  SKIP_WITHOUT_TOOLCHAIN();
  expect_native_matches_vm(blk::kernels::lu_point_ir(), {{"N", 37}}, 30,
                           {{"A", 37.0}});
  Program blocked = blk::kernels::lu_point_ir();
  blocked.param("KS");
  analysis::Assumptions hints;
  hints.assert_le(isub(iadd(ivar("K"), ivar("KS")), iconst(1)),
                  isub(ivar("N"), iconst(1)));
  pm::RunReport r = pm::run_spec(blocked, "autoblock(b=KS)", hints);
  ASSERT_EQ(r.passes[0].note, "blocked, 1 splits, 2 interchanges");
  expect_native_matches_vm(blocked, {{"N", 37}, {"KS", 8}}, 30,
                           {{"A", 37.0}});
}

TEST(CodegenDifferential, GoldenPivotedLuPointAndPipelineBlocked) {
  SKIP_WITHOUT_TOOLCHAIN();
  expect_native_matches_vm(blk::kernels::lu_pivot_point_ir(), {{"N", 24}},
                           31);
  Program blocked = blk::kernels::lu_pivot_point_ir();
  analysis::Assumptions hints;
  pm::add_fact(hints, "K+BS-1<=N-1");
  (void)pm::run_spec(blocked,
                     "stripmine(b=BS); split; distribute(commutativity); "
                     "interchange",
                     hints);
  expect_native_matches_vm(blocked, {{"N", 24}, {"BS", 5}}, 31);
}

TEST(CodegenDifferential, GoldenGivensPointAndOptimized) {
  SKIP_WITHOUT_TOOLCHAIN();
  expect_native_matches_vm(blk::kernels::givens_qr_ir(),
                           {{"M", 19}, {"N", 13}}, 32, {{"A", 19.0}});
  Program opt = blk::kernels::givens_qr_ir();
  (void)pm::run_spec(opt, "optgivens");
  expect_native_matches_vm(opt, {{"M", 19}, {"N", 13}}, 32, {{"A", 19.0}});
}

TEST(CodegenDifferential, GoldenConvolutions) {
  SKIP_WITHOUT_TOOLCHAIN();
  const Env env{{"N1", 20}, {"N2", 17}, {"N3", 20}};
  expect_native_matches_vm(blk::kernels::conv_ir(), env, 33);
  expect_native_matches_vm(blk::kernels::aconv_ir(), env, 33);
  Program opt = blk::kernels::conv_ir();
  (void)pm::run_spec(opt, "optconv(u=4)");
  expect_native_matches_vm(opt, env, 33);
}

TEST(CodegenDifferential, GoldenGuardedMatmulAndIfInspected) {
  SKIP_WITHOUT_TOOLCHAIN();
  expect_native_matches_vm(blk::kernels::matmul_guarded_ir(), {{"N", 14}},
                           34);
  Program p = blk::kernels::matmul_guarded_ir();
  Loop& k = p.body[0]->as_loop().body[0]->as_loop();
  blk::transform::if_inspect(p, p.body, k);
  expect_native_matches_vm(p, {{"N", 14}}, 34);
}

TEST(CodegenDifferential, GoldenRecurrenceAndSum) {
  SKIP_WITHOUT_TOOLCHAIN();
  expect_native_matches_vm(blk::kernels::partial_recurrence_ir(),
                           {{"N", 33}}, 35);
  expect_native_matches_vm(blk::kernels::sum_example_ir(),
                           {{"M", 21}, {"N", 21}}, 35);
}

}  // namespace
}  // namespace blk::ir
