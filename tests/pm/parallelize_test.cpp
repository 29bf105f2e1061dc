// The parallelize stage: certified plan construction (which loops make
// it in, which are refused), the outermost-selection rule, and — the
// safety keystone — a sabotaged certifier being caught by the
// independent race re-check, failing the pipeline instead of shipping a
// data race to the native backend.
#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/codegen.hpp"
#include "ir/error.hpp"
#include "ir/printer.hpp"
#include "kernels/ir_kernels.hpp"
#include "pm/runner.hpp"
#include "pm/spec.hpp"
#include "sa/certify.hpp"
#include "testutil.hpp"

namespace blk::pm {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;

/// Run `spec` over `p` and return the context so the plan is inspectable.
RunReport run_with_ctx(Program& /*p*/, const std::string& spec,
                       PipelineContext& ctx) {
  return run_pipeline(parse_pipeline(spec), ctx);
}

TEST(Parallelize, IndependentLoopEntersThePlan) {
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), f(2.0) * a("B", {v("I")}), 10)));
  PipelineContext ctx(p);
  run_with_ctx(p, "parallelize(check, threads=4)", ctx);
  ASSERT_TRUE(ctx.parallel.has_value());
  ASSERT_TRUE(ctx.parallel->enabled());
  EXPECT_EQ(ctx.parallel->threads, 4);
  ASSERT_EQ(ctx.parallel->loops.size(), 1u);
  EXPECT_EQ(ctx.parallel->loops[0].var, "I");
  EXPECT_EQ(ctx.parallel->loops[0].occurrence, 0);
  EXPECT_FALSE(ctx.parallel->loops[0].reduction);
}

TEST(Parallelize, ScalarSumReductionEntersAsReduction) {
  Program p;
  p.param("N");
  p.scalar("S");
  p.array("A", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lvs("S"), s("S") + a("A", {v("I")}), 10)));
  PipelineContext ctx(p);
  run_with_ctx(p, "parallelize", ctx);
  ASSERT_TRUE(ctx.parallel && ctx.parallel->enabled());
  ASSERT_EQ(ctx.parallel->loops.size(), 1u);
  EXPECT_TRUE(ctx.parallel->loops[0].reduction);
  EXPECT_EQ(ctx.parallel->loops[0].combine, ParallelLoop::Combine::Sum);
  ASSERT_EQ(ctx.parallel->loops[0].accumulators.size(), 1u);
  EXPECT_EQ(ctx.parallel->loops[0].accumulators[0], "S");
}

TEST(Parallelize, OutermostSelectionSkipsNestedLoops) {
  // DO J (parallel) / DO I (parallel): only J enters; running both would
  // nest parallel regions.
  Program p;
  p.param("N");
  p.array("A", {v("N"), v("N")});
  p.add(loop("J", c(1), v("N"),
             loop("I", c(1), v("N"),
                  assign(lv("A", {v("I"), v("J")}), f(1.0), 10))));
  PipelineContext ctx(p);
  run_with_ctx(p, "parallelize", ctx);
  ASSERT_TRUE(ctx.parallel && ctx.parallel->enabled());
  ASSERT_EQ(ctx.parallel->loops.size(), 1u);
  EXPECT_EQ(ctx.parallel->loops[0].var, "J");
}

TEST(Parallelize, ArrayAccumulatorReductionStaysSerial) {
  // DO K / DO I / DO J: A(I,J) += ... is a reduction into an array
  // location — the deterministic scalar-partials scheme does not cover
  // it, so the K level must not enter the plan as a reduction.
  Program p;
  p.param("N");
  p.array("A", {v("N"), v("N")});
  p.array("B", {v("N"), v("N")});
  p.add(loop("K", c(1), v("N"),
             loop("J", c(1), v("N"),
                  loop("I", c(1), v("N"),
                       assign(lv("A", {v("I"), v("J")}),
                              a("A", {v("I"), v("J")}) +
                                  a("B", {v("I"), v("K")}) *
                                      a("B", {v("K"), v("J")}),
                              10)))));
  PipelineContext ctx(p);
  run_with_ctx(p, "parallelize", ctx);
  ASSERT_TRUE(ctx.parallel.has_value());
  for (const auto& pl : ctx.parallel->loops)
    EXPECT_NE(pl.var, "K") << "array-accumulator reduction selected";
}

TEST(Parallelize, ConditionallyWrittenScalarDisqualifiesTheLoop) {
  // T is only written under the IF: the last chunk may never write it,
  // so the write-back cannot reproduce serial last-value semantics.
  Program p;
  p.param("N");
  p.scalar("T");
  p.array("A", {v("N")});
  p.add(loop("I", c(1), v("N"),
             when(cmp(a("A", {v("I")}), CmpOp::GT, f(0.0)),
                  assign(lvs("T"), a("A", {v("I")}))),
             assign(lv("A", {v("I")}), f(2.0) * a("A", {v("I")}), 10)));
  PipelineContext ctx(p);
  run_with_ctx(p, "parallelize", ctx);
  ASSERT_TRUE(ctx.parallel.has_value());
  EXPECT_FALSE(ctx.parallel->enabled())
      << "plan: " << ctx.parallel->summary();
}

TEST(Parallelize, SkewSpecExposesWavefrontToThePlan) {
  // The full §14 chain as one spec: skew the stencil, sink the outer
  // loop, and parallelize — the plan must contain exactly the wavefront
  // outer loop's inner companion... i.e. the (now inner) I loop's parent,
  // the skewed variable, stays serial while I enters the plan.
  Program p;
  p.param("N");
  p.array_bounds("A", {{.lb = c(0), .ub = v("N")},
                       {.lb = c(0), .ub = v("N")}});
  p.add(loop("I", c(1), v("N"),
             loop("J", c(1), v("N"),
                  assign(lv("A", {v("I"), v("J")}),
                         f(0.25) * (a("A", {v("I") - 1, v("J")}) +
                                    a("A", {v("I"), v("J") - 1})),
                         10))));
  PipelineContext ctx(p);
  run_with_ctx(p, "skew(f=1); interchange; parallelize(check)", ctx);
  ASSERT_TRUE(ctx.parallel && ctx.parallel->enabled());
  ASSERT_EQ(ctx.parallel->loops.size(), 1u);
  EXPECT_EQ(ctx.parallel->loops[0].var, "I");
  EXPECT_EQ(ctx.parallel->loops[0].occurrence, 0);
  EXPECT_FALSE(ctx.parallel->loops[0].reduction);
}

TEST(Parallelize, SabotagedVerdictIsCaughtByTheRaceRecheck) {
  // DO I: A(I) = 1; A(I-1) = 2 — iterations I and I+1 both write A(I),
  // so the loop is serial(witness).  Flip its verdict to parallel behind
  // the certifier's back: parallelize(check) must refuse the pipeline —
  // this is the guarantee that a certifier bug cannot reach the thread
  // pool.
  Program p;
  p.param("N");
  p.array_bounds("A", {{.lb = c(0), .ub = v("N")}});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), f(1.0), 10),
             assign(lv("A", {v("I") - 1}), f(2.0), 20)));
  {
    auto honest = sa::certify(p);
    ASSERT_EQ(honest.loops.size(), 1u);
    ASSERT_EQ(honest.loops[0].verdict, sa::Verdict::Serial);
  }
  sa::set_certify_mutator_for_testing([](sa::CertifyResult& r) {
    for (auto& lv : r.loops) lv.verdict = sa::Verdict::Parallel;
  });
  PipelineContext ctx(p);
  EXPECT_THROW(run_with_ctx(p, "parallelize(check)", ctx), Error);
  // Without the re-check the lie goes through — which is exactly why the
  // CLI and benches always spell it parallelize(check).
  PipelineContext unchecked(p);
  run_with_ctx(p, "parallelize", unchecked);
  EXPECT_TRUE(unchecked.parallel && unchecked.parallel->enabled());
  sa::set_certify_mutator_for_testing(nullptr);
  PipelineContext honest_ctx(p);
  run_with_ctx(p, "parallelize(check)", honest_ctx);
  EXPECT_FALSE(honest_ctx.parallel->enabled());
}

}  // namespace
}  // namespace blk::pm
