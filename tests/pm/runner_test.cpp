// Pipeline runner: primitive specs reproduce the composite passes
// bit-identically, stage products thread between passes, and per-pass
// stats are recorded.
#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/error.hpp"
#include "ir/printer.hpp"
#include "kernels/ir_kernels.hpp"
#include "pm/runner.hpp"
#include "pm/spec.hpp"
#include "testutil.hpp"
#include "verify/pipeline.hpp"

namespace blk::pm {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;

analysis::Assumptions full_block_hint() {
  analysis::Assumptions hints;
  hints.assert_le(v("K") + v("KS") - 1, v("N") - 1);
  return hints;
}

// §5.1: the primitive pipeline derives the same block LU (Fig. 6) as the
// autoblock composite, bit-identically.
TEST(PipelineRunner, BlockLuSpecMatchesAutoBlockDriver) {
  Program via_driver = blk::kernels::lu_point_ir();
  RunReport composite =
      run_spec(via_driver, "autoblock(b=KS)", full_block_hint());
  EXPECT_EQ(composite.passes[0].note, "blocked, 1 splits, 2 interchanges");

  Program via_spec = blk::kernels::lu_point_ir();
  RunReport report = run_spec(
      via_spec, "stripmine(b=KS); split; distribute; interchange",
      full_block_hint());

  EXPECT_EQ(print(via_spec.body), print(via_driver.body));
  ASSERT_EQ(report.passes.size(), 4u);
  EXPECT_EQ(report.passes[1].note, "1 splits, distributable");
  EXPECT_EQ(report.passes[2].note, "2 pieces");
  EXPECT_EQ(report.passes[3].note, "2 interchanges");
}

// §5.2 acceptance: pivoted LU blocks under the commutativity-armed spec,
// identically to autoblock(commutativity); without commutativity neither
// spelling blocks, and both leave the same (split, undistributed) IR.
TEST(PipelineRunner, PivotedBlockLuSpecMatchesDriverBitIdentically) {
  analysis::Assumptions hints;
  hints.assert_le(v("K") + v("BS") - 1, v("N") - 1);

  for (bool commutativity : {true, false}) {
    const std::string flag = commutativity ? "(commutativity)" : "";
    Program via_driver = blk::kernels::lu_pivot_point_ir();
    RunReport composite = run_spec(
        via_driver,
        commutativity ? "autoblock(b=BS, commutativity)" : "autoblock(b=BS)",
        hints);
    EXPECT_EQ(composite.passes[0].note.rfind("blocked", 0) == 0,
              commutativity)
        << composite.passes[0].note;

    Program via_spec = blk::kernels::lu_pivot_point_ir();
    (void)run_spec(
        via_spec,
        "stripmine(b=BS); split; distribute" + flag + "; interchange", hints);

    EXPECT_EQ(print(via_spec.body), print(via_driver.body))
        << "commutativity=" << commutativity;
  }
}

// Naming commutativity on *any* stage arms it pipeline-wide: the split
// stage needs it too (§5.2's progress measure), so arming only distribute
// must still block.
TEST(PipelineRunner, CommutativityOnOneStageArmsWholePipeline) {
  analysis::Assumptions hints;
  hints.assert_le(v("K") + v("BS") - 1, v("N") - 1);

  Program with = blk::kernels::lu_pivot_point_ir();
  RunReport r_with = run_spec(
      with, "stripmine(b=BS); split(commutativity); distribute; interchange",
      hints);
  EXPECT_FALSE(r_with.passes[2].skipped);

  // Without the flag anywhere, pivoted LU must refuse to distribute and
  // the downstream stages report skipped.
  Program without = blk::kernels::lu_pivot_point_ir();
  RunReport r_without = run_spec(
      without, "stripmine(b=BS); split; distribute; interchange", hints);
  EXPECT_TRUE(r_without.passes[2].skipped);
  EXPECT_TRUE(r_without.passes[3].skipped);
}

// The derived program computes what the point algorithm computes.
TEST(PipelineRunner, SpecDerivedBlockLuIsEquivalent) {
  Program point = blk::kernels::lu_point_ir();
  Program blocked = blk::kernels::lu_point_ir();
  (void)run_spec(blocked, "stripmine(b=KS); split; distribute; interchange",
                 full_block_hint());
  for (auto [n, ks] : {std::pair<long, long>{16, 4}, {17, 5}, {8, 16}}) {
    ir::Env env{{"N", n}, {"KS", ks}};
    EXPECT_EQ(0.0, blk::test::run_and_diff(point, blocked, env, 13,
                                           {{"A", static_cast<double>(n)}}))
        << "N=" << n << " KS=" << ks;
  }
}

// The whole pipeline runs clean under translation validation.
TEST(PipelineRunner, SpecRunVerifiesUnderVerifiedPipeline) {
  Program p = blk::kernels::lu_point_ir();
  p.param("KS");
  verify::VerifiedPipeline vp(p);
  (void)run_spec(p, "stripmine(b=KS); split; distribute; interchange",
                 full_block_hint());
  EXPECT_FALSE(vp.steps().empty());
  EXPECT_TRUE(vp.ok()) << vp.to_string();
}

// unrolljam takes the §3.1 triangular jam where the inner loop's bound
// tracks the unrolled variable, as registerblock does; the rectangular
// jam refuses that shape.
TEST(PipelineRunner, UnrolljamPicksTheTriangularJamByShape) {
  Program point;
  point.param("N");
  point.array("A", {v("N")});
  point.array("B", {v("N"), v("N")});
  point.add(loop("I", c(1), v("N"),
                 loop("J", v("I"), v("N"),
                      assign(lv("A", {v("J")}),
                             a("A", {v("J")}) + a("B", {v("I"), v("J")})))));
  Program p = point.clone();
  verify::VerifiedPipeline vp(p);
  (void)run_spec(p, "unrolljam(u=2)");
  EXPECT_TRUE(vp.ok()) << vp.to_string();
  EXPECT_NE(print(p.body), print(point.body));
  for (long n : {13L, 2L})
    EXPECT_EQ(0.0, blk::test::run_and_diff(point, p, {{"N", n}}, 5))
        << "N=" << n << "\n" << print(p.body);
}

// focus retargets; composite autoblock equals the primitive spelling.
TEST(PipelineRunner, CompositeAutoblockMatchesPrimitiveSpelling) {
  Program a = blk::kernels::lu_point_ir();
  (void)run_spec(a, "autoblock(b=KS)", full_block_hint());
  Program b = blk::kernels::lu_point_ir();
  (void)run_spec(b, "stripmine(b=KS); split; distribute; interchange",
                 full_block_hint());
  EXPECT_EQ(print(a.body), print(b.body));
}

TEST(PipelineRunner, FocusSelectsLoopByVarAndIndex) {
  Program p = blk::kernels::lu_point_ir();
  PipelineContext ctx(p);
  Pipeline pipe = parse_pipeline("focus(var=I, index=1)");
  (void)run_pipeline(pipe, ctx);
  ASSERT_NE(ctx.focus, nullptr);
  EXPECT_EQ(ctx.focus->var, "I");

  Pipeline bad = parse_pipeline("focus(var=Q)");
  PipelineContext ctx2(p);
  EXPECT_THROW((void)run_pipeline(bad, ctx2), blk::Error);
}

// Per-pass observability: wall time, IR statement delta, cache counters.
TEST(PipelineRunner, StatsRecordIrDeltaAndCacheTraffic) {
  Program p = blk::kernels::lu_point_ir();
  RunReport report = run_spec(
      p, "stripmine(b=KS); split; distribute; interchange",
      full_block_hint());

  const PassStat& strip = report.passes[0];
  EXPECT_EQ(strip.invocation, "stripmine(b=KS)");
  EXPECT_GT(strip.stmts_after, strip.stmts_before);
  EXPECT_GE(strip.seconds, 0.0);

  const PassStat& split = report.passes[1];
  EXPECT_GT(split.analysis_misses, 0u);
  EXPECT_GT(split.analysis_hits, 0u);  // memoization pays within the stage

  EXPECT_GT(report.analysis.build_seconds, 0.0);
  EXPECT_GT(report.total_seconds, 0.0);

  std::string json = report_json(report, "lu_point", "spec");
  EXPECT_NE(json.find("\"stmts_before\""), std::string::npos);
  EXPECT_NE(json.find("\"analysis_hits\""), std::string::npos);
  EXPECT_NE(json.find("stripmine(b=KS)"), std::string::npos);
}

// The registry covers every primitive and driver the issue names.
TEST(PipelineRunner, RegistryCoversTheCatalogue) {
  for (const char* name :
       {"stripmine", "interchange", "split", "splitat", "split-trapezoid",
        "distribute", "fuse", "unrolljam", "scalarrepl", "scalarexpand",
        "ifinspect", "simplify-bounds", "normalize", "reverse", "focus",
        "autoblock", "autoblockplus", "registerblock", "optconv",
        "optgivens", "certify"}) {
    EXPECT_NE(Registry::instance().lookup(name), nullptr) << name;
  }
}

// The certify stage records every loop's parallel-safety verdict in the
// context for later stages (and for blk-opt's reporting), and its
// race re-check accepts the certification.
TEST(PipelineRunner, CertifyPassRecordsVerdictsInContext) {
  Program p = blk::kernels::lu_point_ir();
  PipelineContext ctx(p);
  RunReport report = run_pipeline(parse_pipeline("certify(check)"), ctx);

  // Pre-order: DO K, the scaling DO I, the update DO I, the update DO J.
  ASSERT_EQ(ctx.verdicts.size(), 4u);
  EXPECT_EQ(ctx.verdicts[0].var, "K");
  EXPECT_EQ(ctx.verdicts[0].verdict, sa::Verdict::Serial);
  for (std::size_t i = 1; i < 4; ++i)
    EXPECT_EQ(ctx.verdicts[i].verdict, sa::Verdict::Parallel)
        << ctx.verdicts[i].to_string();

  ASSERT_EQ(report.passes.size(), 1u);
  EXPECT_EQ(report.passes[0].note, "3 parallel, 0 reduction, 1 serial");
}

// Verdicts refresh across structural stages: after blocking, the update
// loops the paper parallelizes are certified parallel.
TEST(PipelineRunner, CertifyAfterBlockingSeesTheBlockedLoops) {
  Program p = blk::kernels::lu_point_ir();
  PipelineContext ctx(p, full_block_hint());
  run_pipeline(parse_pipeline(
                   "stripmine(b=KS); split; distribute; interchange; "
                   "certify(check)"),
               ctx);
  EXPECT_GT(ctx.verdicts.size(), 3u);  // blocking multiplies the levels
  std::size_t parallel = 0;
  for (const auto& lv : ctx.verdicts)
    if (lv.verdict == sa::Verdict::Parallel) ++parallel;
  EXPECT_GE(parallel, 2u);
}

}  // namespace
}  // namespace blk::pm
