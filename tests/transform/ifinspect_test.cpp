// IF-inspection tests (§4): the Fig. 4 matmul transformation.
#include <gtest/gtest.h>

#include <random>

#include "interp/interp.hpp"
#include "ir/builder.hpp"
#include "ir/error.hpp"
#include "ir/printer.hpp"
#include "kernels/ir_kernels.hpp"
#include "testutil.hpp"
#include "transform/ifinspect.hpp"

namespace blk::transform {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;

/// Seed B with a deterministic zero/nonzero pattern of given density.
void plant_guards(interp::Interpreter& in, double density,
                  std::uint64_t seed) {
  auto& b = in.store().arrays.at("B");
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (double& x : b.flat()) x = coin(rng) < density ? 1.0 : 0.0;
}

TEST(IfInspect, MatmulStructureMatchesFig4) {
  Program p = blk::kernels::matmul_guarded_ir();
  Loop& j = p.body[0]->as_loop();
  Loop& k = j.body[0]->as_loop();
  auto res = if_inspect(p, p.body, k);
  ASSERT_NE(res.inspector, nullptr);
  ASSERT_NE(res.range_loop, nullptr);
  ASSERT_NE(res.executor, nullptr);
  // The J loop now holds: KC=0, FLAG=0, inspector K loop, flush IF, and
  // the KN/K executor nest.
  ASSERT_EQ(j.body.size(), 5u);
  EXPECT_EQ(res.range_loop->var, "KN");
  EXPECT_EQ(to_string(res.range_loop->ub), "KC");
  // Clamped to the inspected loop's range, which holds every record.
  EXPECT_EQ(to_string(res.executor->lb), "MAX(KLB(KN),1)");
  EXPECT_EQ(to_string(res.executor->ub), "MIN(KUB(KN),N)");
  // The work (inner I loop) moved into the executor.
  ASSERT_EQ(res.executor->body.size(), 1u);
  EXPECT_EQ(res.executor->body[0]->as_loop().var, "I");
  // The inspector's guard records bounds instead of doing work.
  std::string out = print(p.body);
  EXPECT_NE(out.find("KC = KC + 1"), std::string::npos) << out;
  EXPECT_NE(out.find("KLB(KC) = K"), std::string::npos) << out;
  EXPECT_NE(out.find("KUB(KC) = K-1"), std::string::npos) << out;
}

class IfInspectEquivalence : public ::testing::TestWithParam<double> {};

TEST_P(IfInspectEquivalence, MatmulSemantics) {
  const double density = GetParam();
  Program p = blk::kernels::matmul_guarded_ir();
  Program q = p.clone();
  Loop& k = q.body[0]->as_loop().body[0]->as_loop();
  if_inspect(q, q.body, k);

  for (long n : {5L, 12L}) {
    interp::Interpreter ia(p, {{"N", n}});
    interp::Interpreter ib(q, {{"N", n}});
    blk::test::seed_inputs(ia, 9);
    blk::test::seed_inputs(ib, 9);
    plant_guards(ia, density, 77);
    plant_guards(ib, density, 77);
    ia.run();
    ib.run();
    EXPECT_EQ(interp::max_abs_diff(ia.store(), ib.store()), 0.0)
        << "density " << density << " n " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, IfInspectEquivalence,
                         ::testing::Values(0.0, 0.025, 0.1, 0.5, 1.0));

TEST(IfInspect, GuardTrueOnLastIterationClosesRange) {
  // All-true guard: one range [1, N]; the post-loop flush must fire.
  Program p = blk::kernels::matmul_guarded_ir();
  Program q = p.clone();
  Loop& k = q.body[0]->as_loop().body[0]->as_loop();
  if_inspect(q, q.body, k);
  interp::Interpreter ia(p, {{"N", 6}});
  interp::Interpreter ib(q, {{"N", 6}});
  blk::test::seed_inputs(ia, 10);
  blk::test::seed_inputs(ib, 10);
  for (double& x : ia.store().arrays.at("B").flat()) x = 1.0;
  for (double& x : ib.store().arrays.at("B").flat()) x = 1.0;
  ia.run();
  ib.run();
  EXPECT_EQ(interp::max_abs_diff(ia.store(), ib.store()), 0.0);
}

TEST(IfInspect, RequiresGuardedBody) {
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.add(loop("K", c(1), v("N"), assign(lv("A", {v("K")}), f(1.0))));
  EXPECT_THROW((void)if_inspect(p, p.body, p.body[0]->as_loop()),
               blk::Error);
}

TEST(IfInspect, RequiresTrailingWorkLoop) {
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.add(loop("K", c(1), v("N"),
             when(cmp(a("A", {v("K")}), CmpOp::NE, f(0.0)),
                  assign(lv("A", {v("K")}), f(1.0)))));
  EXPECT_THROW((void)if_inspect(p, p.body, p.body[0]->as_loop()),
               blk::Error);
}

TEST(IfInspect, RejectsWorkThatFeedsItsOwnGuard) {
  // The work loop writes the guard array at the guard's own element:
  // moving it after the inspection would change which ranges are found.
  Program p;
  p.param("N");
  p.array("B", {v("N")});
  p.array("C", {v("N"), v("N")});
  p.add(loop("K", c(1), v("N") - 1,
             when(cmp(a("B", {v("K")}), CmpOp::NE, f(0.0)),
                  loop("I", c(1), v("N"),
                       assign(lv("B", {v("K") + 1}), f(0.0))))));
  EXPECT_THROW((void)if_inspect(p, p.body, p.body[0]->as_loop()),
               blk::Error);
}

TEST(IfInspect, GuardReadsDisjointFromWorkAreAccepted) {
  // Work writes C; guard reads B: fine.
  Program p = blk::kernels::matmul_guarded_ir();
  Loop& k = p.body[0]->as_loop().body[0]->as_loop();
  EXPECT_NO_THROW((void)if_inspect(p, p.body, k));
}

TEST(IfInspect, ScalarPrepFeedingWorkIsRejected) {
  // Guarded body = [W = ..., work reading W]: the scalar W is overwritten
  // per iteration, so delaying the work would read stale values.  The
  // dependence check must refuse (the Givens pipeline first expands the
  // scalar, see below).
  Program p;
  p.param("N");
  p.array("B", {v("N")});
  p.array("C", {v("N"), v("N")});
  p.scalar("W");
  p.add(loop(
      "K", c(1), v("N"),
      when(cmp(a("B", {v("K")}), CmpOp::NE, f(0.0)),
           assign(lvs("W"), a("B", {v("K")}) * f(2.0)),
           loop("I", c(1), v("N"),
                assign(lv("C", {v("I"), v("K")}),
                       a("C", {v("I"), v("K")}) + s("W"))))));
  EXPECT_THROW((void)if_inspect(p, p.body, p.body[0]->as_loop()),
               blk::Error);
}

TEST(IfInspect, ExpandedPrepStaysInInspector) {
  // Same shape after scalar expansion (W -> WX(K)): prep stays under the
  // guard, the work moves, and semantics hold — the Fig. 10 Givens recipe.
  Program p;
  p.param("N");
  p.array("B", {v("N")});
  p.array("C", {v("N"), v("N")});
  p.array("WX", {v("N")});
  p.add(loop(
      "K", c(1), v("N"),
      when(cmp(a("B", {v("K")}), CmpOp::NE, f(0.0)),
           assign(lv("WX", {v("K")}), a("B", {v("K")}) * f(2.0)),
           loop("I", c(1), v("N"),
                assign(lv("C", {v("I"), v("K")}),
                       a("C", {v("I"), v("K")}) + a("WX", {v("K")}))))));
  Program orig = p.clone();
  Loop& k = p.body[0]->as_loop();
  auto res = if_inspect(p, p.body, k);
  // The WX assignment remains inside the inspector's THEN branch.
  If& guard = res.inspector->body[0]->as_if();
  ASSERT_GE(guard.then_body.size(), 2u);
  EXPECT_EQ(guard.then_body[0]->kind(), SKind::Assign);

  interp::Interpreter ia(orig, {{"N", 8}});
  interp::Interpreter ib(p, {{"N", 8}});
  blk::test::seed_inputs(ia, 12);
  blk::test::seed_inputs(ib, 12);
  plant_guards(ia, 0.4, 5);
  plant_guards(ib, 0.4, 5);
  ia.run();
  ib.run();
  EXPECT_EQ(interp::max_abs_diff(ia.store(), ib.store()), 0.0);
}

}  // namespace
}  // namespace blk::transform
