// AnalysisManager: memoization, invalidation on pass end, lifetime of
// handed-out graphs, and the uncached baseline mode.
#include <gtest/gtest.h>

#include <thread>

#include "analysis/manager.hpp"
#include "ir/builder.hpp"
#include "kernels/ir_kernels.hpp"
#include "transform/instrument.hpp"
#include "transform/split.hpp"
#include "transform/stripmine.hpp"

namespace blk::analysis {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;

// Back-to-back identical queries build the graph exactly once — the
// dedup that split.cpp's scan/shape sites rely on.
TEST(AnalysisManager, BackToBackDepGraphQueriesBuildOnce) {
  Program p = blk::kernels::lu_point_ir();
  Loop& k = p.body[0]->as_loop();

  AnalysisManager am;
  ScopedAnalysisManager scope(am);
  DepGraphPtr g1 = dep_graph_for(p.body, k);
  DepGraphPtr g2 = dep_graph_for(p.body, k);
  EXPECT_EQ(g1.get(), g2.get());
  EXPECT_EQ(am.stats().dep_misses, 1u);
  EXPECT_EQ(am.stats().dep_hits, 1u);
  EXPECT_GT(am.stats().build_seconds, 0.0);
}

// Distinct assumption contexts are distinct keys.
TEST(AnalysisManager, AssumptionContextIsPartOfTheKey) {
  Program p = blk::kernels::lu_point_ir();
  Loop& k = p.body[0]->as_loop();

  AnalysisManager am;
  ScopedAnalysisManager scope(am);
  Assumptions ctx;
  ctx.assert_le(v("K") + v("KS") - 1, v("N") - 1);
  DepGraphPtr plain = dep_graph_for(p.body, k, nullptr);
  DepGraphPtr hinted = dep_graph_for(p.body, k, &ctx);
  EXPECT_NE(plain.get(), hinted.get());
  EXPECT_EQ(am.stats().dep_misses, 2u);

  // Adding a fact to the same context object changes the key (fact count
  // guards in-place mutation).
  ctx.assert_le(v("KS"), v("N"));
  (void)dep_graph_for(p.body, k, &ctx);
  EXPECT_EQ(am.stats().dep_misses, 3u);
}

// Every pass end (committed or aborted) invalidates: trial-undo restores
// values, not node identities.
TEST(AnalysisManager, PassEndInvalidatesCachedGraphs) {
  Program p = blk::kernels::lu_point_ir();
  Loop& k = p.body[0]->as_loop();

  AnalysisManager am;
  ScopedAnalysisManager scope(am);
  DepGraphPtr before = dep_graph_for(p.body, k);
  {
    transform::PassScope pass("test-pass", p.body);
  }
  EXPECT_GE(am.stats().invalidations, 1u);
  DepGraphPtr after = dep_graph_for(p.body, k);
  EXPECT_NE(before.get(), after.get());
  EXPECT_EQ(am.stats().dep_misses, 2u);
}

// A graph handed out before an invalidation must stay alive for clients
// still iterating it (split holds its graph across trial splits).
TEST(AnalysisManager, HandedOutGraphSurvivesInvalidation) {
  Program p = blk::kernels::lu_point_ir();
  Loop& k = p.body[0]->as_loop();

  AnalysisManager am;
  ScopedAnalysisManager scope(am);
  DepGraphPtr g = dep_graph_for(p.body, k);
  std::size_t edges_before = g->edges().size();
  am.invalidate();
  EXPECT_EQ(g->edges().size(), edges_before);  // still valid to read
}

// With no manager installed, the entry points compute fresh.
TEST(AnalysisManager, NoManagerFallsBackToFreshBuild) {
  Program p = blk::kernels::lu_point_ir();
  Loop& k = p.body[0]->as_loop();
  ASSERT_EQ(current_analysis_manager(), nullptr);
  DepGraphPtr g1 = dep_graph_for(p.body, k);
  DepGraphPtr g2 = dep_graph_for(p.body, k);
  ASSERT_TRUE(g1 && g2);
  EXPECT_NE(g1.get(), g2.get());
}

// caching=false is the benchmark baseline: counts misses, never hits.
TEST(AnalysisManager, UncachedModeAlwaysMisses) {
  Program p = blk::kernels::lu_point_ir();
  Loop& k = p.body[0]->as_loop();

  AnalysisManager am(/*caching=*/false);
  ScopedAnalysisManager scope(am);
  (void)dep_graph_for(p.body, k);
  (void)dep_graph_for(p.body, k);
  EXPECT_EQ(am.stats().dep_hits, 0u);
  EXPECT_EQ(am.stats().dep_misses, 2u);
  EXPECT_GT(am.stats().build_seconds, 0.0);
}

// End-to-end: Procedure IndexSetSplit's repeated graph builds actually
// coalesce when a manager is installed.
TEST(AnalysisManager, IndexSetSplitHitsTheCache) {
  Program p = blk::kernels::lu_point_ir();
  p.param("KS");
  Loop& strip = transform::strip_mine(p, p.body[0]->as_loop(), ivar("KS"));

  Assumptions hints;
  hints.assert_le(v("K") + v("KS") - 1, v("N") - 1);

  AnalysisManager am;
  ScopedAnalysisManager scope(am);
  auto rep = transform::index_set_split(p.body, strip, hints);
  EXPECT_TRUE(rep.distributable);
  EXPECT_GT(am.stats().dep_hits, 0u)
      << "split's back-to-back graph builds should be deduplicated";
}

// Installing is per thread: a manager on this thread is invisible on
// another.
TEST(AnalysisManager, InstallationIsThreadLocal) {
  AnalysisManager am;
  ScopedAnalysisManager scope(am);
  ASSERT_EQ(current_analysis_manager(), &am);
  AnalysisManager* seen = &am;
  std::thread([&] { seen = current_analysis_manager(); }).join();
  EXPECT_EQ(seen, nullptr);
}

}  // namespace
}  // namespace blk::analysis
