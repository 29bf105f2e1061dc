// VerifiedPipeline tests: the paper's golden derivations pass translation
// validation end-to-end; seeded-illegal passes are flagged.
#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/error.hpp"
#include "ir/printer.hpp"
#include "kernels/ir_kernels.hpp"
#include "pm/runner.hpp"
#include "pm/spec.hpp"
#include "transform/ifinspect.hpp"
#include "transform/interchange.hpp"
#include "verify/pipeline.hpp"

namespace blk::verify {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;

TEST(VerifiedPipeline, BlockLuDerivationVerifies) {
  // §5.1 all the way to "2+": strip-mine, index-set split, distribute,
  // interchange, unroll-and-jam, scalar-replace — every step validated.
  Program p = kernels::lu_point_ir();
  p.param("KS");
  analysis::Assumptions hints;
  hints.assert_le(v("K") + v("KS") - 1, v("N") - 1);

  VerifiedPipeline vp(p, {.ctx = &hints});
  pm::RunReport r = pm::run_spec(p, "autoblockplus(b=KS, u=2)", hints);
  EXPECT_EQ(r.passes[0].note.rfind("blocked", 0), 0u) << r.passes[0].note;
  EXPECT_FALSE(vp.steps().empty());
  EXPECT_TRUE(vp.ok()) << vp.to_string() << print(p.body);
}

TEST(VerifiedPipeline, ConvolutionDerivationVerifies) {
  // §3.2: trapezoid splitting, normalization, unroll-and-jam, scalar
  // replacement on the seismic convolution.
  Program p = kernels::conv_ir();
  VerifiedPipeline vp(p);
  pm::RunReport r = pm::run_spec(p, "optconv(u=4)");
  EXPECT_EQ(r.passes[0].note, "4 pieces, 1 normalized, 4 jammed");
  EXPECT_FALSE(vp.steps().empty());
  EXPECT_TRUE(vp.ok()) << vp.to_string() << print(p.body);
}

TEST(VerifiedPipeline, GivensDerivationVerifies) {
  // §5.4 Fig. 9 -> Fig. 10: scalar expansion, index-set split,
  // IF-inspection, then interchanges of the executor nest.
  Program p = kernels::givens_qr_ir();
  VerifiedPipeline vp(p);
  pm::PipelineContext ctx(p);
  (void)pm::run_pipeline(pm::parse_pipeline("optgivens"), ctx);
  ASSERT_NE(ctx.range_loop, nullptr);
  EXPECT_EQ(ctx.range_loop->var, "K");  // the update loop, now outermost
  EXPECT_FALSE(vp.steps().empty());
  EXPECT_TRUE(vp.ok()) << vp.to_string() << print(p.body);
}

TEST(VerifiedPipeline, GivensRegisterBlockingVerifies) {
  // T5's "optgivens+": the K jam privatizes A1P/A2P per copy and scalar
  // replacement keeps A(L,K) across each recorded J range.
  Program p = kernels::givens_qr_ir();
  VerifiedPipeline vp(p);
  pm::RunReport r = pm::run_spec(
      p, "optgivens; focus(var=K, index=1); registerblock(u=4)");
  EXPECT_EQ(r.passes.back().note, "7 scalar groups");
  EXPECT_TRUE(vp.ok()) << vp.to_string() << print(p.body);
}

TEST(VerifiedPipeline, MatmulIfInspectionVerifies) {
  // §4: inspector/executor construction on the guarded matmul.
  Program p = kernels::matmul_guarded_ir();
  VerifiedPipeline vp(p);
  Loop& k = p.body[0]->as_loop().body[0]->as_loop();
  auto res = transform::if_inspect(p, p.body, k);
  EXPECT_NE(res.executor, nullptr);
  EXPECT_FALSE(vp.steps().empty());
  EXPECT_TRUE(vp.ok()) << vp.to_string() << print(p.body);
}

TEST(VerifiedPipeline, FlagsIllegalInterchange) {
  Program p;
  p.param("N");
  p.array_bounds("A", {{.lb = iconst(0), .ub = ivar("N")},
                       {.lb = iconst(0), .ub = iadd(ivar("N"), iconst(1))}});
  p.add(loop("I", c(2), v("N"),
             loop("J", c(1), v("N") - 1,
                  assign(lv("A", {v("I"), v("J")}),
                         a("A", {v("I") - 1, v("J") + 1})))));
  VerifiedPipeline vp(p, {});
  transform::interchange(p.body, p.body[0]->as_loop(), /*check=*/false);
  ASSERT_EQ(vp.steps().size(), 1u);
  EXPECT_EQ(vp.steps()[0].pass, "interchange");
  EXPECT_TRUE(vp.steps()[0].committed);
  EXPECT_EQ(vp.steps()[0].policy, Policy::Full);
  EXPECT_FALSE(vp.ok());
  EXPECT_THROW(vp.throw_if_failed(), blk::Error);
  bool mentions = false;
  for (const auto& d : vp.combined().diags)
    if (d.message.find("interchange") != std::string::npos &&
        d.code == "dep-broken")
      mentions = true;
  EXPECT_TRUE(mentions) << vp.to_string();
}

TEST(VerifiedPipeline, RefusedPassRecordedUnverified) {
  // A legality refusal throws out of the pass; the pipeline records the
  // aborted attempt without verifying (the pass restored the IR itself).
  Program p;
  p.param("N");
  p.array_bounds("A", {{.lb = iconst(0), .ub = ivar("N")},
                       {.lb = iconst(0), .ub = iadd(ivar("N"), iconst(1))}});
  p.add(loop("I", c(2), v("N"),
             loop("J", c(1), v("N") - 1,
                  assign(lv("A", {v("I"), v("J")}),
                         a("A", {v("I") - 1, v("J") + 1})))));
  VerifiedPipeline vp(p, {});
  EXPECT_THROW(
      transform::interchange(p.body, p.body[0]->as_loop(), /*check=*/true),
      blk::Error);
  ASSERT_EQ(vp.steps().size(), 1u);
  EXPECT_FALSE(vp.steps()[0].committed);
  EXPECT_TRUE(vp.steps()[0].report.diags.empty());
  EXPECT_TRUE(vp.ok());
}

TEST(VerifiedPipeline, ObserverRestoredOnDestruction) {
  EXPECT_EQ(transform::pass_observer(), nullptr);
  {
    Program p;
    VerifiedPipeline vp(p);
    EXPECT_EQ(transform::pass_observer(), &vp);
  }
  EXPECT_EQ(transform::pass_observer(), nullptr);
}

}  // namespace
}  // namespace blk::verify
