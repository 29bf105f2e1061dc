// The §5.4 optgivens pass: Fig. 9 -> Fig. 10 fully automatically.
#include <gtest/gtest.h>

#include "interp/interp.hpp"
#include "ir/error.hpp"
#include "ir/builder.hpp"
#include "ir/printer.hpp"
#include "kernels/ir_kernels.hpp"
#include "pm/runner.hpp"
#include "pm/spec.hpp"
#include "testutil.hpp"
#include "transform/ifinspect.hpp"
#include "transform/interchange.hpp"

namespace blk::transform {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;

TEST(GivensDriver, DerivesFig10Structure) {
  Program p = blk::kernels::givens_qr_ir();
  pm::PipelineContext ctx(p);
  (void)pm::run_pipeline(pm::parse_pipeline("optgivens"), ctx);
  EXPECT_EQ(ctx.interchanges, 2);
  std::string out = print(p.body);
  // Scalar expansion of the rotation coefficients.
  EXPECT_NE(out.find("CX(J) = A(L,L)/DEN"), std::string::npos) << out;
  EXPECT_NE(out.find("SX(J) = A(J,L)/DEN"), std::string::npos) << out;
  // IF-inspection bookkeeping.
  EXPECT_NE(out.find("JLB(JC) = J"), std::string::npos);
  EXPECT_NE(out.find("JUB(JC) = J-1"), std::string::npos);
  // The K = L iteration stays in the guard (index-set split at L)...
  EXPECT_NE(out.find("DO K = L, MIN(N,L)"), std::string::npos);
  // ...and the trailing columns run K-outermost over the recorded ranges.
  EXPECT_NE(out.find("DO K = MAX(L,MIN(N,L)+1), N\n    DO JN = 1, JC\n"
                     "      DO J = MAX(JLB(JN),L+1), MIN(JUB(JN),M)"),
            std::string::npos)
      << out;
  // The executor's temporaries were privatized.
  EXPECT_NE(out.find("A1P"), std::string::npos);
}

class GivensDriverEquivalence
    : public ::testing::TestWithParam<std::tuple<long, long>> {};

TEST_P(GivensDriverEquivalence, MatchesPointAlgorithm) {
  auto [m, n] = GetParam();
  Program p = blk::kernels::givens_qr_ir();
  Program orig = p.clone();
  (void)pm::run_spec(p, "optgivens");
  ir::Env env{{"M", m}, {"N", n}};
  EXPECT_EQ(0.0, blk::test::run_and_diff(orig, p, env, 97))
      << "M=" << m << " N=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GivensDriverEquivalence,
    ::testing::Combine(::testing::Values(2L, 5L, 9L, 16L),
                       ::testing::Values(1L, 3L, 8L, 14L)));

TEST(GivensDriver, GuardedZerosHandled) {
  // Zeros below the diagonal exercise the inspector's range bookkeeping.
  Program p = blk::kernels::givens_qr_ir();
  Program orig = p.clone();
  (void)pm::run_spec(p, "optgivens");
  const long m = 12, n = 8;
  interp::Interpreter ia(orig, {{"M", m}, {"N", n}});
  interp::Interpreter ib(p, {{"M", m}, {"N", n}});
  for (auto* in : {&ia, &ib}) {
    auto& t = in->store().arrays.at("A");
    interp::fill_random(t, 31);
    for (long i = 2; i <= m; i += 2) {
      std::vector<long> ix{i, 1};
      t.at(ix) = 0.0;
    }
  }
  ia.run();
  ib.run();
  EXPECT_EQ(interp::max_abs_diff(ia.store(), ib.store()), 0.0);
}

TEST(GivensDriver, RejectsWrongShape) {
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.add(loop("I", c(1), v("N"), assign(lv("A", {v("I")}), f(1.0))));
  EXPECT_THROW((void)pm::run_spec(p, "optgivens"), blk::Error);
}

TEST(Privatization, LiveOutScalarBlocksInterchange) {
  // T is written per (I,J) iteration and read AFTER the nest: its final
  // value depends on iteration order, so interchange must refuse even
  // though T looks privatizable inside.
  Program p;
  p.param("N");
  p.array("A", {v("N"), v("N")});
  p.array("R", {c(1)});
  p.scalar("T");
  p.add(loop("I", c(1), v("N"),
             loop("J", c(1), v("N"),
                  assign(lvs("T"), vindex(v("I")) + vindex(v("J")) *
                                       f(1000.0)),
                  assign(lv("A", {v("I"), v("J")}), s("T")))));
  p.add(make_assign({.name = "R", .subs = {iconst(1)}}, vscalar("T")));
  EXPECT_FALSE(interchange_legal(p.body, p.body[0]->as_loop()));
}

TEST(Privatization, UpwardExposedScalarBlocksInterchange) {
  // T is defined before use inside the K loop, but R(I,J) reads it before
  // that loop runs: the value the previous (I,J) iteration left behind.
  // Interchange would change which iteration that is, so T is not private.
  Program p;
  p.param("N");
  p.array("A", {v("N"), v("N"), v("N")});
  p.array("R", {v("N"), v("N")});
  p.scalar("T");
  p.add(loop("I", c(1), v("N"),
             loop("J", c(1), v("N"),
                  assign(lv("R", {v("I"), v("J")}), s("T")),
                  loop("K", c(1), v("N"),
                       assign(lvs("T"), a("A", {v("K"), v("J"), v("I")})),
                       assign(lv("A", {v("K"), v("J"), v("I")}),
                              s("T") + f(1.0))))));
  EXPECT_FALSE(interchange_legal(p.body, p.body[0]->as_loop()));
}

TEST(Privatization, DeadTemporaryAllowsInterchange) {
  // Same nest without the live-out read: the temporary is private and
  // interchange proceeds.
  Program p;
  p.param("N");
  p.array("A", {v("N"), v("N")});
  p.scalar("T");
  p.add(loop("I", c(1), v("N"),
             loop("J", c(1), v("N"),
                  assign(lvs("T"), vindex(v("I")) + vindex(v("J")) *
                                       f(1000.0)),
                  assign(lv("A", {v("I"), v("J")}), s("T")))));
  Program q = p.clone();
  EXPECT_TRUE(interchange_legal(q.body, q.body[0]->as_loop()));
  interchange(q.body, q.body[0]->as_loop());
  EXPECT_PROGRAMS_EQUIVALENT(p, q, (ir::Env{{"N", 6}}), 99);
}

}  // namespace
}  // namespace blk::transform
