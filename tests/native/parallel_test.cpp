// The parallel native backend's determinism contract.
//
// The emitter's promises (DESIGN.md §14): a non-reduction parallel loop is
// bit-identical to the serial native kernel at every thread count, a
// reduction is bit-identical *across runs* at a fixed thread count (the
// fixed-partition tree combine depends only on the trip count and thread
// count, never on scheduling), and a 1-thread parallel kernel is
// bit-identical to serial because thread 0's partial is seeded with the
// incoming accumulator value and combined first.  Scalars written inside a
// parallel loop keep serial last-value semantics via the last-chunk
// write-back.  Every test here runs the same program serially and in
// parallel through the ExecEngine facade and memcmp's the stores.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "interp/interp.hpp"
#include "interp/vm.hpp"
#include "ir/builder.hpp"
#include "ir/codegen.hpp"
#include "kernels/ir_kernels.hpp"
#include "native/engine.hpp"
#include "native/jit.hpp"
#include "pm/pass.hpp"
#include "pm/runner.hpp"
#include "pm/spec.hpp"
#include "testutil.hpp"

namespace blk::native {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;

/// Arrays and scalars bitwise identical between two stores.
void expect_bitwise_equal(const interp::Store& a, const interp::Store& b) {
  ASSERT_EQ(a.arrays.size(), b.arrays.size());
  for (const auto& [name, ta] : a.arrays) {
    const interp::Tensor& tb = b.arrays.at(name);
    ASSERT_EQ(ta.size(), tb.size()) << name;
    EXPECT_EQ(std::memcmp(ta.flat().data(), tb.flat().data(),
                          ta.size() * sizeof(double)),
              0)
        << "array " << name << " differs bitwise";
  }
  for (const auto& [name, va] : a.scalars) {
    const double vb = b.scalars.at(name);
    EXPECT_EQ(std::memcmp(&va, &vb, sizeof(double)), 0)
        << "scalar " << name << " differs bitwise";
  }
}

/// DO I = 1, N:  A(I) = 2*A(I) + B(I)  — independent iterations.
Program map_ir() {
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}),
                    f(2.0) * a("A", {v("I")}) + a("B", {v("I")}), 10)));
  return p;
}

/// DO I = 1, N:  S = S + A(I)*B(I)  — scalar sum reduction.
Program dot_ir() {
  Program p;
  p.param("N");
  p.scalar("S");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lvs("S"), s("S") + a("A", {v("I")}) * a("B", {v("I")}),
                    10)));
  return p;
}

/// DO I = 1, N:  T = A(I); A(I) = T + B(I)  — a scalar temporary written
/// every iteration (serial last-value semantics must survive).
Program scalar_temp_ir() {
  Program p;
  p.param("N");
  p.scalar("T");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lvs("T"), a("A", {v("I")})),
             assign(lv("A", {v("I")}), s("T") + a("B", {v("I")}), 10)));
  return p;
}

ParallelOptions plan_for(const std::string& var, int threads,
                         bool reduction = false,
                         std::vector<std::string> accs = {}) {
  ParallelOptions po;
  po.threads = threads;
  ParallelLoop pl;
  pl.var = var;
  pl.occurrence = 0;
  pl.reduction = reduction;
  pl.combine = ParallelLoop::Combine::Sum;
  pl.accumulators = std::move(accs);
  po.loops.push_back(pl);
  return po;
}

/// Run `p` serially and with `plan`, identically seeded (arrays named in
/// `diag_boost` get that added to their diagonal); return both engines for
/// store comparison.
void run_pair(const ir::Program& p, const ir::Env& env,
              const ParallelOptions& plan, std::uint64_t seed,
              interp::Store** serial_out, interp::Store** par_out,
              std::vector<interp::ExecEngine>& keep,
              const std::map<std::string, double>& diag_boost = {}) {
  keep.emplace_back(p, env, interp::Engine::Native);
  keep.emplace_back(p, env, interp::Engine::Native, &plan);
  interp::ExecEngine& ser = keep[keep.size() - 2];
  interp::ExecEngine& par = keep[keep.size() - 1];
  test::seed_inputs(ser, seed, diag_boost);
  test::seed_inputs(par, seed, diag_boost);
  ser.run();
  par.run();
  *serial_out = &ser.store();
  *par_out = &par.store();
}

TEST(NativeParallel, MapLoopBitIdenticalToSerialAtEveryThreadCount) {
  if (!available()) GTEST_SKIP() << "no host C toolchain";
  const Program p = map_ir();
  for (int nt : {1, 2, 3, 4, 8}) {
    const ParallelOptions plan = plan_for("I", nt);
    std::vector<interp::ExecEngine> keep;
    keep.reserve(2);
    interp::Store* ser = nullptr;
    interp::Store* par = nullptr;
    run_pair(p, {{"N", 1001}}, plan, 5, &ser, &par, keep);
    SCOPED_TRACE("threads=" + std::to_string(nt));
    expect_bitwise_equal(*ser, *par);
  }
}

TEST(NativeParallel, ScalarTempKeepsSerialLastValueSemantics) {
  if (!available()) GTEST_SKIP() << "no host C toolchain";
  const Program p = scalar_temp_ir();
  const ParallelOptions plan = plan_for("I", 4);
  std::vector<interp::ExecEngine> keep;
  keep.reserve(2);
  interp::Store* ser = nullptr;
  interp::Store* par = nullptr;
  run_pair(p, {{"N", 77}}, plan, 3, &ser, &par, keep);
  expect_bitwise_equal(*ser, *par);
}

TEST(NativeParallel, OneThreadReductionBitIdenticalToSerial) {
  if (!available()) GTEST_SKIP() << "no host C toolchain";
  // Thread 0's partial is seeded with the incoming accumulator and the
  // whole range lands in its chunk: the combine is the serial sum.
  const Program p = dot_ir();
  const ParallelOptions plan = plan_for("I", 1, true, {"S"});
  std::vector<interp::ExecEngine> keep;
  keep.reserve(2);
  interp::Store* ser = nullptr;
  interp::Store* par = nullptr;
  run_pair(p, {{"N", 1000}}, plan, 9, &ser, &par, keep);
  expect_bitwise_equal(*ser, *par);
}

TEST(NativeParallel, ReductionBitStableAcrossTenRepeats) {
  if (!available()) GTEST_SKIP() << "no host C toolchain";
  // At a fixed thread count the partition and combine order are pure
  // functions of (trip, threads): every run must produce the same bits.
  const Program p = dot_ir();
  const ParallelOptions plan = plan_for("I", 4, true, {"S"});
  double first = 0.0;
  for (int rep = 0; rep < 10; ++rep) {
    interp::ExecEngine par(p, {{"N", 4099}}, interp::Engine::Native, &plan);
    test::seed_inputs(par, 21);
    par.run();
    const double s = par.store().scalars.at("S");
    if (rep == 0) {
      first = s;
    } else {
      EXPECT_EQ(std::memcmp(&first, &s, sizeof(double)), 0)
          << "rep " << rep << " differs bitwise";
    }
  }
}

TEST(NativeParallel, SmallTripInlinePathMatchesPooledPartition) {
  if (!available()) GTEST_SKIP() << "no host C toolchain";
  // trip < 4*threads takes the inline path; the partition is identical,
  // so the result must match the serial kernel bit-for-bit even when the
  // loop is a reduction.
  const Program p = dot_ir();
  const ParallelOptions plan1 = plan_for("I", 1, true, {"S"});
  std::vector<interp::ExecEngine> keep;
  keep.reserve(2);
  interp::Store* ser = nullptr;
  interp::Store* par = nullptr;
  run_pair(p, {{"N", 7}}, plan1, 13, &ser, &par, keep);
  expect_bitwise_equal(*ser, *par);
}

TEST(NativeParallel, ZeroTripLoopIsSafe) {
  if (!available()) GTEST_SKIP() << "no host C toolchain";
  // Trip count M=0 with a non-empty array: the dispatch must skip the
  // pool entirely and leave the accumulator untouched.
  Program p;
  p.param("N");
  p.param("M");
  p.scalar("S");
  p.array("A", {v("N")});
  p.add(loop("I", c(1), v("M"),
             assign(lvs("S"), s("S") + a("A", {v("I")}), 10)));
  const ParallelOptions plan = plan_for("I", 4, true, {"S"});
  interp::ExecEngine par(p, {{"N", 8}, {"M", 0}}, interp::Engine::Native,
                         &plan);
  test::seed_inputs(par, 1);
  par.store().scalars.at("S") = 42.0;
  par.run();
  EXPECT_EQ(par.store().scalars.at("S"), 42.0);
}

TEST(NativeParallel, CertifiedBlockedLuBitIdenticalToSerial) {
  if (!available()) GTEST_SKIP() << "no host C toolchain";
  // §5.1's parallel trailing update on derived code: autoblock exposes
  // the update J loops, parallelize(check) certifies them (its race
  // re-check throws on any disagreement), and the plan drives the pool.
  Program p = kernels::lu_point_ir();
  p.param("KS");
  analysis::Assumptions hints;
  pm::add_fact(hints, "K+KS-1<=N-1");
  pm::PipelineContext ctx(p, std::move(hints));
  (void)pm::run_pipeline(
      pm::parse_pipeline("autoblock(b=KS); parallelize(check)"), ctx);
  ASSERT_TRUE(ctx.parallel && ctx.parallel->enabled())
      << "no certified parallel loop in blocked LU";
  for (const auto& [n, ks] : {std::pair{33L, 8L}, std::pair{100L, 32L}}) {
    for (int nt : {1, 2, 4}) {
      ParallelOptions plan = *ctx.parallel;
      plan.threads = nt;
      std::vector<interp::ExecEngine> keep;
      keep.reserve(2);
      interp::Store* ser = nullptr;
      interp::Store* par = nullptr;
      run_pair(p, {{"N", n}, {"KS", ks}}, plan, 57, &ser, &par, keep,
               {{"A", static_cast<double>(n)}});
      SCOPED_TRACE("N=" + std::to_string(n) + " KS=" + std::to_string(ks) +
                   " threads=" + std::to_string(nt));
      expect_bitwise_equal(*ser, *par);
    }
  }
}

TEST(NativeParallel, SerialAndParallelVariantsCoexistInCache) {
  if (!available()) GTEST_SKIP() << "no host C toolchain";
  const Program p = map_ir();
  const ParallelOptions plan = plan_for("I", 2);
  Kernel serial(p);
  Kernel par(p, "blk_kernel", nullptr, &plan);
  EXPECT_NE(serial.timings().key, par.timings().key)
      << "parallel plan must salt the cache key";
  EXPECT_NE(par.source().find("/* parallel:"), std::string::npos);
  EXPECT_EQ(serial.source().find("/* parallel:"), std::string::npos);
}

TEST(NativeParallel, PlanSummaryNamesLoopsAndReductions) {
  ParallelOptions po = plan_for("J", 4);
  ParallelLoop red;
  red.var = "I";
  red.occurrence = 2;
  red.reduction = true;
  red.combine = ParallelLoop::Combine::Sum;
  red.accumulators = {"S"};
  po.loops.push_back(red);
  EXPECT_EQ(po.summary(), "threads=4 loops=[J#0 I#2:red(sum:S)]");
}

}  // namespace
}  // namespace blk::native
