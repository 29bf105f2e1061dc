// Interpreter tests: execution semantics, runtime index forms, tracing.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "interp/interp.hpp"
#include "ir/builder.hpp"
#include "ir/error.hpp"
#include "kernels/ir_kernels.hpp"
#include "testutil.hpp"

namespace blk::interp {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;

TEST(Tensor, OffsetsAreColumnMajor) {
  Tensor t({1, 1}, {3, 4}, 0);
  std::vector<long> i11{1, 1}, i21{2, 1}, i12{1, 2};
  EXPECT_EQ(t.offset(i11), 0u);
  EXPECT_EQ(t.offset(i21), 1u);   // next row: adjacent
  EXPECT_EQ(t.offset(i12), 3u);   // next column: stride = rows
  EXPECT_EQ(t.size(), 12u);
}

TEST(Tensor, NegativeLowerBounds) {
  Tensor t({-5}, {0}, 0);
  EXPECT_EQ(t.size(), 6u);
  std::vector<long> lo{-5}, hi{0};
  EXPECT_EQ(t.offset(lo), 0u);
  EXPECT_EQ(t.offset(hi), 5u);
}

TEST(Tensor, BoundsChecked) {
  Tensor t({1}, {4}, 0);
  std::vector<long> bad{5};
  EXPECT_THROW((void)t.at(bad), Error);
  std::vector<long> bad2{0};
  EXPECT_THROW((void)t.at(bad2), Error);
  std::vector<long> wrong_rank{1, 1};
  EXPECT_THROW((void)t.at(wrong_rank), Error);
}

TEST(Tensor, EmptyDimensionHoldsNoElements) {
  // Fortran's rule: X(2:1) has extent zero, so any access is out of range.
  Tensor t({2, 1}, {1, 3}, 0);
  EXPECT_EQ(t.size(), 0u);
  for (long i : {0L, 1L, 2L}) {
    std::vector<long> idx{i, 1};
    EXPECT_THROW((void)t.at(idx), Error) << i;
  }
}

Program triangular_sum() {
  // DO I=1,N / DO J=1,I / S(I) = S(I) + A(J)
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.array("S", {v("N")});
  p.add(loop("I", c(1), v("N"),
             loop("J", c(1), v("I"),
                  assign(lv("S", {v("I")}),
                         a("S", {v("I")}) + a("A", {v("J")})))));
  return p;
}

TEST(Interp, TriangularLoopExecutesExpectedCount) {
  Program p = triangular_sum();
  Interpreter in(p, {{"N", 10}});
  for (auto& [name, t] : in.store().arrays)
    for (double& x : t.flat()) x = 1.0;
  in.run();
  // S(I) = 1 + I (initial 1 plus I additions of 1).
  auto& s = in.store().arrays.at("S");
  for (long i = 1; i <= 10; ++i) {
    std::vector<long> idx{i};
    EXPECT_EQ(s.at(idx), 1.0 + static_cast<double>(i));
  }
  EXPECT_EQ(in.statements_executed(), 55u);
}

TEST(Interp, NegativeStepRunsDownward) {
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  // DO I = N,1,-1 / A(I) = I
  p.add(loop_step("I", v("N"), c(1), isub(c(0), c(1)),
                  assign(lv("A", {v("I")}), vindex(v("I")))));
  Interpreter in(p, {{"N", 5}});
  in.run();
  std::vector<long> idx{3};
  EXPECT_EQ(in.store().arrays.at("A").at(idx), 3.0);
}

TEST(Interp, ZeroTripLoopRunsNothing) {
  Program p;
  p.param("N");
  p.array("A", {c(4)});
  p.add(loop("I", c(3), c(2), assign(lv("A", {v("I")}), f(1.0))));
  Interpreter in(p, {{"N", 4}});
  in.run();
  EXPECT_EQ(in.statements_executed(), 0u);
}

TEST(Interp, ScalarFallbackInIndexExpressions) {
  // KC is a runtime scalar used as a subscript and a loop bound.
  Program p;
  p.scalar("KC");
  p.array("A", {c(10)});
  p.add(assign(lvs("KC"), f(3.0)));
  p.add(assign(lv("A", {ivar("KC")}), f(7.0)));
  p.add(loop("I", c(1), ivar("KC"), assign(lv("A", {v("I")}), f(1.0))));
  Interpreter in(p, {});
  in.run();
  auto& a = in.store().arrays.at("A");
  std::vector<long> i3{3};
  EXPECT_EQ(a.at(i3), 1.0);  // loop overwrote the 7.0
  std::vector<long> i4{4};
  EXPECT_EQ(a.at(i4), 0.0);  // loop stopped at KC=3
}

TEST(Interp, ArrayElemLoopBounds) {
  // DO K = KLB(1), KUB(1): IF-inspection's executor form.
  Program p;
  p.array("KLB", {c(4)});
  p.array("KUB", {c(4)});
  p.array("A", {c(10)});
  p.add(assign(lv("KLB", {c(1)}), f(2.0)));
  p.add(assign(lv("KUB", {c(1)}), f(5.0)));
  p.add(loop("K", ielem("KLB", c(1)), ielem("KUB", c(1)),
             assign(lv("A", {v("K")}), f(1.0))));
  Interpreter in(p, {});
  in.run();
  auto& a = in.store().arrays.at("A");
  double total = 0;
  for (double x : a.flat()) total += x;
  EXPECT_EQ(total, 4.0);  // K = 2..5
}

TEST(Interp, IfConditionBranches) {
  Program p;
  p.scalar("X");
  p.scalar("Y");
  using blk::ir::dsl::cmp;
  StmtList then_body, else_body;
  then_body.push_back(assign(lvs("Y"), f(1.0)));
  else_body.push_back(assign(lvs("Y"), f(2.0)));
  p.add(assign(lvs("X"), f(-3.0)));
  p.add(make_if(cmp(s("X"), CmpOp::LT, f(0.0)), std::move(then_body),
                std::move(else_body)));
  Interpreter in(p, {});
  in.run();
  EXPECT_EQ(in.store().scalars.at("Y"), 1.0);
}

TEST(Interp, SequentialLoopVarReuse) {
  // Two consecutive loops share a variable name (post-distribution shape).
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.add(loop("I", c(1), v("N"), assign(lv("A", {v("I")}), f(1.0))));
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), a("A", {v("I")}) + f(1.0))));
  Interpreter in(p, {{"N", 4}});
  in.run();
  std::vector<long> idx{4};
  EXPECT_EQ(in.store().arrays.at("A").at(idx), 2.0);
}

TEST(Interp, OutOfBoundsSubscriptThrows) {
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.add(loop("I", c(1), iadd(v("N"), c(1)),
             assign(lv("A", {v("I")}), f(0.0))));
  Interpreter in(p, {{"N", 3}});
  EXPECT_THROW(in.run(), Error);
}

TEST(Interp, UndeclaredNamesThrow) {
  Program p;
  p.add(assign(lvs("X"), f(1.0)));  // X never declared: stores fine (scalar
                                    // map is permissive on write)...
  Program q;
  q.add(assign(lvs("Y"), s("Z")));  // ...but reading undeclared Z throws
  q.scalar("Y");
  Interpreter in(q, {});
  EXPECT_THROW(in.run(), Error);
}

TEST(Interp, TraceSeesEveryArrayAccess) {
  Program p = triangular_sum();
  Interpreter in(p, {{"N", 6}});
  TraceBuffer tb;
  in.run(&tb);
  std::uint64_t reads = 0, writes = 0;
  for (const TraceRecord& r : tb.records()) (r.is_write ? writes : reads) += 1;
  // Per iteration: read S(I), read A(J), write S(I): 21 iterations.
  EXPECT_EQ(reads, 42u);
  EXPECT_EQ(writes, 21u);
}

TEST(Interp, DistinctArraysGetDistinctAddressRanges) {
  Program p = triangular_sum();
  Interpreter in(p, {{"N", 8}});
  TraceBuffer tb;
  in.run(&tb);
  std::set<std::uint64_t> addrs;
  for (const TraceRecord& r : tb.records()) addrs.insert(r.addr);
  // 8 elements of S + 8 of A touched, at 16 distinct addresses.
  EXPECT_EQ(addrs.size(), 16u);
}

TEST(Interp, RunSeededIsDeterministic) {
  Program p = triangular_sum();
  Store s1 = run_seeded(p, {{"N", 12}}, 7);
  Store s2 = run_seeded(p, {{"N", 12}}, 7);
  EXPECT_EQ(max_abs_diff(s1, s2), 0.0);
}

TEST(Interp, MaxAbsDiffDetectsChange) {
  Program p = triangular_sum();
  Store s1 = run_seeded(p, {{"N", 12}}, 7);
  Store s2 = run_seeded(p, {{"N", 12}}, 8);
  EXPECT_GT(max_abs_diff(s1, s2), 0.0);
}

TEST(Interp, LuPointProducesFiniteFactors) {
  Program p = blk::kernels::lu_point_ir();
  Interpreter in(p, {{"N", 16}});
  blk::test::seed_inputs(in, 3, {{"A", 16.0}});
  in.run();
  for (double x : in.store().arrays.at("A").flat())
    EXPECT_TRUE(std::isfinite(x));
}

}  // namespace
}  // namespace blk::interp
