// Parallel-safety certifier: verdicts over the paper's kernels, the
// reduction recognizer's corner cases, and the independent race re-check.
#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "kernels/ir_kernels.hpp"
#include "pm/runner.hpp"
#include "pm/spec.hpp"
#include "sa/certify.hpp"
#include "sa/sa.hpp"

namespace blk::sa {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;

/// Require a verdict and return it.
const LoopVerdict& get(const CertifyResult& r, const std::string& var,
                       int occurrence = 0) {
  const LoopVerdict* lv = r.find(var, occurrence);
  if (!lv) {
    ADD_FAILURE() << "no verdict for DO " << var << " #" << occurrence
                  << "\n" << r.to_string();
    static LoopVerdict dummy;
    return dummy;
  }
  return *lv;
}

TEST(Certify, PointLuOuterKIsSerialWithWitness) {
  Program p = blk::kernels::lu_point_ir();
  CertifyResult r = certify(p);
  const LoopVerdict& k = get(r, "K");
  EXPECT_EQ(k.verdict, Verdict::Serial);
  // The witness must name a concrete carried edge on A and the loop.
  EXPECT_NE(k.witness.find("A("), std::string::npos) << k.witness;
  EXPECT_NE(k.witness.find("carried by DO K"), std::string::npos)
      << k.witness;
}

TEST(Certify, PointLuInnerLoopsAreParallel) {
  Program p = blk::kernels::lu_point_ir();
  CertifyResult r = certify(p);
  EXPECT_EQ(get(r, "I", 0).verdict, Verdict::Parallel);  // scale loop
  EXPECT_EQ(get(r, "J").verdict, Verdict::Parallel);     // update columns
  EXPECT_EQ(get(r, "I", 1).verdict, Verdict::Parallel);  // update rows
}

TEST(Certify, ConvolutionInnerLoopIsSumReduction) {
  using Factory = Program (*)();
  for (Factory make : {&blk::kernels::conv_ir, &blk::kernels::aconv_ir}) {
    Program p = make();
    CertifyResult r = certify(p);
    EXPECT_EQ(get(r, "I").verdict, Verdict::Parallel) << r.to_string();
    const LoopVerdict& k = get(r, "K");
    EXPECT_EQ(k.verdict, Verdict::Reduction) << r.to_string();
    EXPECT_EQ(k.op, ReduceOp::Sum);
    EXPECT_EQ(k.accumulator, "F3(I)");
  }
}

TEST(Certify, GuardedMatmulAccumulationIsReduction) {
  Program p = blk::kernels::matmul_guarded_ir();
  CertifyResult r = certify(p);
  EXPECT_EQ(get(r, "J").verdict, Verdict::Parallel);
  const LoopVerdict& k = get(r, "K");
  EXPECT_EQ(k.verdict, Verdict::Reduction) << r.to_string();
  EXPECT_EQ(k.op, ReduceOp::Sum);
  EXPECT_EQ(k.accumulator, "C(I,J)");
  EXPECT_EQ(get(r, "I").verdict, Verdict::Parallel);
}

TEST(Certify, PivotSearchIsArgMaxReduction) {
  Program p = blk::kernels::lu_pivot_point_ir();
  CertifyResult r = certify(p);
  EXPECT_EQ(get(r, "K").verdict, Verdict::Serial);
  const LoopVerdict& search = get(r, "I", 0);
  EXPECT_EQ(search.verdict, Verdict::Reduction) << r.to_string();
  EXPECT_EQ(search.op, ReduceOp::Max);
  EXPECT_EQ(search.accumulator, "IMAX");
  // Row interchange: TAU is privatizable, columns are independent.
  EXPECT_EQ(get(r, "J", 0).verdict, Verdict::Parallel) << r.to_string();
}

TEST(Certify, GivensRotationLoopParallelAfterPrivatization) {
  Program p = blk::kernels::givens_qr_ir();
  CertifyResult r = certify(p);
  EXPECT_EQ(get(r, "L").verdict, Verdict::Serial);
  EXPECT_EQ(get(r, "J").verdict, Verdict::Serial);
  // A1/A2 are iteration-private; rows L and J are provably distinct.
  EXPECT_EQ(get(r, "K").verdict, Verdict::Parallel) << r.to_string();
}

TEST(Certify, VectorReductionOverOuterLoop) {
  // DO J / DO I: A(I) = A(I) + B(J) — every element of A accumulates
  // across J, so J is a (vector) sum reduction and I stays parallel.
  Program p = blk::kernels::sum_example_ir();
  CertifyResult r = certify(p);
  const LoopVerdict& j = get(r, "J");
  EXPECT_EQ(j.verdict, Verdict::Reduction) << r.to_string();
  EXPECT_EQ(j.op, ReduceOp::Sum);
  EXPECT_EQ(j.accumulator, "A(I)");
  EXPECT_EQ(get(r, "I").verdict, Verdict::Parallel);
}

// ---- Reduction recognizer corner cases -------------------------------------

Program min_program() {
  Program p;
  p.param("N");
  p.scalar("XMIN");
  p.array("X", {v("N")});
  p.add(loop("I", c(1), v("N"),
             when(cmp(a("X", {v("I")}), CmpOp::LT, s("XMIN")),
                  assign(lvs("XMIN"), a("X", {v("I")})))));
  return p;
}

TEST(Certify, MinAccumulationViaIf) {
  Program p = min_program();
  CertifyResult r = certify(p);
  const LoopVerdict& i = get(r, "I");
  EXPECT_EQ(i.verdict, Verdict::Reduction) << r.to_string();
  EXPECT_EQ(i.op, ReduceOp::Min);
  EXPECT_EQ(i.accumulator, "XMIN");
}

TEST(Certify, MaxAccumulationWithAbs) {
  Program p;
  p.param("N");
  p.scalar("XMAX");
  p.array("X", {v("N")});
  p.add(loop("I", c(1), v("N"),
             when(cmp(vun(UnOp::Abs, a("X", {v("I")})), CmpOp::GT,
                      vun(UnOp::Abs, s("XMAX"))),
                  assign(lvs("XMAX"), a("X", {v("I")})))));
  CertifyResult r = certify(p);
  const LoopVerdict& i = get(r, "I");
  EXPECT_EQ(i.verdict, Verdict::Reduction) << r.to_string();
  EXPECT_EQ(i.op, ReduceOp::Max);
}

TEST(Certify, ReductionVariableReadAfterLoopStaysReduction) {
  Program p;
  p.param("N");
  p.scalar("S");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lvs("S"), s("S") + a("A", {v("I")}))));
  p.add(assign(lv("B", {c(1)}), s("S")));  // consume S after the loop
  CertifyResult r = certify(p);
  const LoopVerdict& i = get(r, "I");
  EXPECT_EQ(i.verdict, Verdict::Reduction) << r.to_string();
  EXPECT_EQ(i.op, ReduceOp::Sum);
  EXPECT_EQ(i.accumulator, "S");
}

TEST(Certify, AccumulatorReReadMidBodyIsSerial) {
  // The partial-sum loop: S feeds B(I) every iteration, so iterations
  // cannot be reordered even though the S update looks like a reduction.
  Program p;
  p.param("N");
  p.scalar("S");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lvs("S"), s("S") + a("A", {v("I")})),
             assign(lv("B", {v("I")}), s("S"))));
  CertifyResult r = certify(p);
  EXPECT_EQ(get(r, "I").verdict, Verdict::Serial) << r.to_string();
}

TEST(Certify, ProductAccumulation) {
  Program p;
  p.param("N");
  p.scalar("PROD");
  p.array("A", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lvs("PROD"), s("PROD") * a("A", {v("I")}))));
  CertifyResult r = certify(p);
  const LoopVerdict& i = get(r, "I");
  EXPECT_EQ(i.verdict, Verdict::Reduction) << r.to_string();
  EXPECT_EQ(i.op, ReduceOp::Product);
}

TEST(Certify, SubtractedAccumulatorIsNotAReduction) {
  // S = A(I) - S flips the sign every iteration: order matters.
  Program p;
  p.param("N");
  p.scalar("S");
  p.array("A", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lvs("S"), a("A", {v("I")}) - s("S"))));
  CertifyResult r = certify(p);
  EXPECT_EQ(get(r, "I").verdict, Verdict::Serial) << r.to_string();
}

TEST(Certify, RecurrenceThroughDifferentElementsIsSerial) {
  // A(I) = A(I-1) + 1: a true recurrence, not a reduction.
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.add(loop("I", c(2), v("N"),
             assign(lv("A", {v("I")}), a("A", {v("I") - 1}) + f(1.0))));
  CertifyResult r = certify(p);
  const LoopVerdict& i = get(r, "I");
  EXPECT_EQ(i.verdict, Verdict::Serial);
  EXPECT_NE(i.witness.find("carried by DO I"), std::string::npos);
}

// ---- Race re-check ---------------------------------------------------------

// The §5.1 acceptance contrast: blocking turns point LU's serial outer
// nest into certified-parallel update loops plus a recognized dot-product
// reduction — the paper's argument that the blocked form exposes the
// parallelism, checked end-to-end by the certifier and the race re-check.
TEST(Certify, BlockedLuUpdateLoopsCertifyParallel) {
  Program p = blk::kernels::lu_point_ir();
  p.param("KS");
  analysis::Assumptions hints;
  hints.assert_le(v("K") + v("KS") - 1, v("N") - 1);
  pm::RunReport rep = pm::run_spec(p, "autoblock(b=KS)", hints);
  ASSERT_EQ(rep.passes[0].note, "blocked, 1 splits, 2 interchanges");

  CertifyResult r = certify(p, {.ctx = &hints});
  // Within-block factorization stays serial (it is the point algorithm).
  EXPECT_EQ(get(r, "K").verdict, Verdict::Serial);
  EXPECT_EQ(get(r, "KK", 0).verdict, Verdict::Serial);
  // The independent update loops are certified parallel: the scale loop
  // and both levels of the multi-column panel update.
  EXPECT_EQ(get(r, "I", 0).verdict, Verdict::Parallel);
  EXPECT_EQ(get(r, "J", 0).verdict, Verdict::Parallel);
  EXPECT_EQ(get(r, "I", 1).verdict, Verdict::Parallel);
  EXPECT_EQ(get(r, "J", 1).verdict, Verdict::Parallel);
  // The trailing update's innermost KK is the dot-product accumulation.
  const LoopVerdict& kk = get(r, "KK", 1);
  EXPECT_EQ(kk.verdict, Verdict::Reduction);
  EXPECT_EQ(kk.op, ReduceOp::Sum);
  EXPECT_EQ(kk.accumulator, "A(I,J)");

  // Independent proof: the race checker accepts every parallel verdict.
  verify::Report races = check_races(p, r, &hints);
  EXPECT_TRUE(races.ok()) << races.to_string();
}

TEST(Certify, RaceCheckAgreesOnKernelVerdicts) {
  using Factory = Program (*)();
  for (Factory make :
       {&blk::kernels::lu_point_ir, &blk::kernels::lu_pivot_point_ir,
        &blk::kernels::conv_ir, &blk::kernels::aconv_ir,
        &blk::kernels::givens_qr_ir, &blk::kernels::matmul_guarded_ir,
        &blk::kernels::sum_example_ir}) {
    Program p = make();
    CertifyResult r = certify(p);
    verify::Report races = check_races(p, r);
    EXPECT_TRUE(races.ok()) << races.to_string() << r.to_string();
  }
}

TEST(Certify, RaceCheckCatchesForgedParallelVerdict) {
  // Forge a `parallel` verdict for the serial outer K loop of point LU;
  // the section-overlap proof must fail and report the disagreement.
  Program p = blk::kernels::lu_point_ir();
  CertifyResult r = certify(p);
  for (auto& lv : r.loops)
    if (lv.var == "K") lv.verdict = Verdict::Parallel;
  verify::Report races = check_races(p, r);
  EXPECT_FALSE(races.ok());
  ASSERT_FALSE(races.diags.empty());
  EXPECT_EQ(races.diags[0].code, "parallel-cert-race");
}

TEST(Certify, RaceCheckCatchesForgedVerdictOverDescendingLoop) {
  // DO I / DO K / A(K) = A(K) + 1.0: every I iteration rewrites all of A,
  // so a forged `parallel` on DO I must be caught whichever way K counts.
  // Counting down used to give the inverted section A(N:1), which the
  // overlap test proved disjoint from itself.
  set_certify_mutator_for_testing([](CertifyResult& r) {
    for (auto& lv : r.loops)
      if (lv.var == "I") lv.verdict = Verdict::Parallel;
  });
  for (long step : {1L, -1L}) {
    Program p;
    p.param("N");
    p.array("A", {v("N")});
    IExprPtr lo = c(1), hi = v("N");
    if (step < 0) std::swap(lo, hi);
    p.add(loop("I", c(1), v("N"),
               loop_step("K", lo, hi, c(step),
                         assign(lv("A", {v("K")}),
                                a("A", {v("K")}) + f(1.0)))));
    CertifyResult r = certify(p);
    verify::Report races = check_races(p, r);
    EXPECT_FALSE(races.ok()) << "step " << step << "\n" << r.to_string();
  }
  set_certify_mutator_for_testing(nullptr);
}

TEST(Certify, RaceCheckSkipsWritesUnderEmptyLoops) {
  // DO K = 6, 3 never runs, so every dependence through B(J) is
  // infeasible and DO I certifies parallel; the race re-check must not
  // flag the write that never happens, and lint still warns the loop.
  Program p;
  p.param("N");
  p.array("B", {v("N")});
  p.add(loop_step("I", v("N"), c(1), c(-1),
                  loop("J", c(1), v("N"),
                       loop("K", c(6), c(3),
                            assign(lv("B", {v("J")}), f(3.0))))));
  analysis::Assumptions facts;
  facts.assert_ge(v("N"), c(1));
  const SaResult res = analyze(p, {.ctx = &facts});
  EXPECT_EQ(get(res.verdicts, "I").verdict, Verdict::Parallel);
  EXPECT_TRUE(res.report.ok()) << res.report.to_string();
  bool zero_trip = false;
  for (const auto& d : res.report.diags) {
    EXPECT_NE(d.code, "parallel-cert-race") << d.to_string();
    zero_trip = zero_trip || d.code == "zero-trip-loop";
  }
  EXPECT_TRUE(zero_trip) << res.report.to_string();
}

TEST(Certify, RaceCheckKeepsWritesUnderSymbolicStepLoops) {
  // DO I = 6, 3, S runs when S < 0, and so does DO K = I, 0 inside
  // DO I = 1, N, S when N < 1.  Lint's context reads a symbolic step as
  // ascending and proves both loops empty, and the certifier finds DO J
  // parallel from the same contradictory ranges; the race re-check gives
  // a symbolic step no range, so it must not skip the write to B(1) and
  // still reports the race.
  auto body = [] {
    return assign(lv("B", {c(1)}), a("B", {c(1)}) + f(1.0));
  };
  std::vector<StmtPtr> nests;
  nests.push_back(
      loop_step("I", c(6), c(3), v("S"), loop("J", c(1), v("N"), body())));
  nests.push_back(loop_step(
      "I", c(1), v("N"), v("S"),
      loop("J", c(1), v("N"), loop("K", v("I"), c(0), body()))));
  for (auto& nest : nests) {
    Program p;
    p.param("N");
    p.param("S");
    p.array("B", {v("N")});
    p.add(std::move(nest));
    const SaResult res = analyze(p, {});
    EXPECT_EQ(get(res.verdicts, "J").verdict, Verdict::Parallel);
    bool race = false;
    for (const auto& d : res.report.diags)
      race = race || d.code == "parallel-cert-race";
    EXPECT_TRUE(race) << res.report.to_string();
  }
}

TEST(Certify, ScalarPrivateToTheInnerLoopIsPrivateToTheOuterOne) {
  // DO I / DO J / T = A(J,I) / B(J,I) = T*2.0: T is written before it is
  // read in every J iteration and referenced nowhere else, so the
  // certifier's rule (analysis::private_scalars, shared with interchange
  // and unroll-and-jam) privatizes it for DO I as well.
  Program p;
  p.param("N");
  p.scalar("T");
  p.array("A", {v("N"), v("N")});
  p.array("B", {v("N"), v("N")});
  p.add(loop("I", c(1), v("N"),
             loop("J", c(1), v("N"),
                  assign(lvs("T"), a("A", {v("J"), v("I")})),
                  assign(lv("B", {v("J"), v("I")}), s("T") * f(2.0)))));
  CertifyResult r = certify(p);
  EXPECT_EQ(get(r, "I").verdict, Verdict::Parallel) << r.to_string();
  EXPECT_EQ(get(r, "J").verdict, Verdict::Parallel) << r.to_string();
  verify::Report races = check_races(p, r);
  EXPECT_TRUE(races.ok()) << races.to_string();
  // The plan still takes DO J: parallelize's last-value rule needs T
  // assigned at the top level of the planned loop's body.
  pm::PipelineContext ctx(p);
  (void)pm::run_pipeline(pm::parse_pipeline("parallelize(check)"), ctx);
  ASSERT_TRUE(ctx.parallel && ctx.parallel->enabled());
  ASSERT_EQ(ctx.parallel->loops.size(), 1u);
  EXPECT_EQ(ctx.parallel->loops[0].var, "J");
  EXPECT_EQ(ctx.parallel->loops[0].occurrence, 0);
}

TEST(Certify, VerdictReportUsesStableCodes) {
  Program p = blk::kernels::lu_point_ir();
  verify::Report rep = verdict_report(certify(p));
  ASSERT_EQ(rep.diags.size(), 4u);  // K, I, J, I
  int serial = 0, parallel = 0;
  for (const auto& d : rep.diags) {
    EXPECT_EQ(d.severity, verify::Severity::Note);
    if (d.code == "certify-serial") ++serial;
    if (d.code == "certify-parallel") ++parallel;
  }
  EXPECT_EQ(serial, 1);
  EXPECT_EQ(parallel, 3);
}

}  // namespace
}  // namespace blk::sa
