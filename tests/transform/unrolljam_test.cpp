// Unroll-and-jam tests: rectangular and triangular variants, remainder
// handling, jam legality.
#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/error.hpp"
#include "ir/printer.hpp"
#include "kernels/ir_kernels.hpp"
#include "testutil.hpp"
#include "transform/blocking.hpp"
#include "transform/unrolljam.hpp"

namespace blk::transform {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;

/// Rectangular matmul-like nest: C(I,J) += A(J,K)*B(K,I) reshaped so the
/// unrolled loop J carries reuse.
Program rect_nest() {
  Program p;
  p.param("N");
  p.param("M");
  p.array("A", {v("N"), v("M")});
  p.array("B", {v("M")});
  p.add(loop("J", c(1), v("N"),
             loop("I", c(1), v("M"),
                  assign(lv("A", {v("J"), v("I")}),
                         a("A", {v("J"), v("I")}) + a("B", {v("I")})))));
  return p;
}

TEST(UnrollJam, RectangularStructure) {
  Program p = rect_nest();
  unroll_and_jam(p, p.body[0]->as_loop(), 2);
  ASSERT_EQ(p.body.size(), 2u);  // main + remainder
  Loop& main = p.body[0]->as_loop();
  EXPECT_EQ(main.const_step(), 2);
  EXPECT_EQ(to_string(main.ub), "N-1");
  // Jammed: one inner loop containing both unrolled statements.
  ASSERT_EQ(main.body.size(), 1u);
  Loop& inner = main.body[0]->as_loop();
  EXPECT_EQ(inner.body.size(), 2u);
  EXPECT_NE(print(main.body).find("A(J+1,I)"), std::string::npos);
  // Remainder restarts where the main loop stopped.
  Loop& rem = p.body[1]->as_loop();
  EXPECT_EQ(to_string(rem.lb), "1+FLOOR(MAX(N,0)/2)*2");
}

class UnrollJamEquivalence
    : public ::testing::TestWithParam<std::tuple<long, long>> {};

TEST_P(UnrollJamEquivalence, RectangularSemantics) {
  auto [n, factor] = GetParam();
  Program p = rect_nest();
  Program q = p.clone();
  unroll_and_jam(q, q.body[0]->as_loop(), factor);
  EXPECT_PROGRAMS_EQUIVALENT(p, q, (ir::Env{{"N", n}, {"M", 6}}), 31);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UnrollJamEquivalence,
    ::testing::Combine(::testing::Values(1L, 2L, 3L, 7L, 8L, 13L),
                       ::testing::Values(2L, 3L, 4L)));

TEST(UnrollJam, RequiresFactorAtLeastTwo) {
  Program p = rect_nest();
  EXPECT_THROW(unroll_and_jam(p, p.body[0]->as_loop(), 1), blk::Error);
}

TEST(UnrollJam, RejectsTriangularInnerBound) {
  // Inner bound depends on the unrolled variable: rectangular jam fails.
  Program p;
  p.param("N");
  p.array("A", {v("N"), v("N")});
  p.add(loop("J", c(1), v("N"),
             loop("I", v("J"), v("N"),
                  assign(lv("A", {v("J"), v("I")}), f(1.0)))));
  EXPECT_THROW(unroll_and_jam(p, p.body[0]->as_loop(), 2), blk::Error);
}

TEST(UnrollJam, IllegalJamDetected) {
  // A(I,J) = A(I-1,J+1) has a (<,>) dependence: jamming I reverses it.
  Program p;
  p.param("N");
  p.array_bounds("A", {{.lb = c(0), .ub = iadd(v("N"), c(1))},
                       {.lb = c(0), .ub = iadd(v("N"), c(1))}});
  p.add(loop("I", c(1), v("N"),
             loop("J", c(1), v("N"),
                  assign(lv("A", {v("I"), v("J")}),
                         a("A", {v("I") - 1, v("J") + 1})))));
  EXPECT_FALSE(unroll_and_jam_legal(p.body, p.body[0]->as_loop(), 2));
  EXPECT_THROW(unroll_and_jam(p, p.body[0]->as_loop(), 2), blk::Error);
}

/// DO K / DO J / T = A(J,K); A(J,K) = CX(J)*T: T is defined before use in
/// every J iteration, the shape of Fig. 10's rotation temporaries.
Program private_temp_nest() {
  Program p;
  p.param("N");
  p.param("M");
  p.array("A", {v("M"), v("N")});
  p.array("CX", {v("M")});
  p.scalar("T");
  p.add(loop("K", c(1), v("N"),
             loop("J", c(1), v("M"),
                  assign(lvs("T"), a("A", {v("J"), v("K")})),
                  assign(lv("A", {v("J"), v("K")}),
                         a("CX", {v("J")}) * s("T")))));
  return p;
}

TEST(UnrollJam, PrivateScalarsGetATemporaryPerCopy) {
  Program p = private_temp_nest();
  Program q = p.clone();
  EXPECT_TRUE(unroll_and_jam_legal(q.body, q.body[0]->as_loop(), 4));
  unroll_and_jam(q, q.body[0]->as_loop(), 4);
  const std::string out = print(q.body[0]->as_loop().body);
  for (const char* copy : {"T = A(J,K)", "T1 = A(J,K+1)", "T2 = A(J,K+2)",
                           "T3 = A(J,K+3)", "A(J,K+3) = CX(J)*T3"})
    EXPECT_NE(out.find(copy), std::string::npos) << copy << "\n" << out;
  for (const char* t : {"T1", "T2", "T3"}) EXPECT_TRUE(q.is_temporary(t));
  for (long n : {1L, 3L, 4L, 7L})
    EXPECT_PROGRAMS_EQUIVALENT(p, q, (ir::Env{{"N", n}, {"M", 5}}), 35);
}

TEST(UnrollJam, UpwardExposedScalarIsNotPrivate) {
  // B(K) reads the T the previous K iteration's J loop left behind: no
  // copy may take its own T, and the shared one forbids the jam.
  Program p = private_temp_nest();
  p.array("B", {v("N")});
  Loop& k = p.body[0]->as_loop();
  k.body.insert(k.body.begin(), make_assign({.name = "B", .subs = {ivar("K")}},
                                            vscalar("T")));
  EXPECT_FALSE(unroll_and_jam_legal(p.body, k, 2));
  EXPECT_THROW(unroll_and_jam(p, k, 2), blk::Error);
}

/// Triangular nest: DO I / DO J = I, M, the §3.1 shape.
Program tri_nest() {
  Program p;
  p.param("N");
  p.param("M");
  p.array("A", {v("N"), iadd(v("M"), c(1))});
  p.array("B", {iadd(v("M"), c(1))});
  p.add(loop("I", c(1), v("N"),
             loop("J", v("I"), v("M"),
                  assign(lv("A", {v("I"), v("J")}),
                         a("A", {v("I"), v("J")}) + a("B", {v("J")})))));
  return p;
}

TEST(UnrollJamTriangular, Structure) {
  Program p = tri_nest();
  unroll_and_jam_triangular(p, p.body[0]->as_loop(), 4);
  ASSERT_EQ(p.body.size(), 2u);
  Loop& main = p.body[0]->as_loop();
  EXPECT_EQ(main.const_step(), 4);
  ASSERT_EQ(main.body.size(), 2u);  // triangular head + rectangular part
  Loop& head = main.body[0]->as_loop();
  EXPECT_EQ(head.var, "IT");
  EXPECT_EQ(to_string(head.ub), "I+2");
  Loop& rect = main.body[1]->as_loop();
  EXPECT_EQ(rect.var, "J");
  EXPECT_EQ(to_string(rect.lb), "I+3");
  EXPECT_EQ(rect.body.size(), 4u);  // four unrolled copies
}

/// The other triangular shape: DO I / DO J = 1, I+M-9, the upper bound
/// tracking I (beta = M-9 runs negative, so some rows are empty and the
/// shared J range starts late).
Program upper_tri_nest() {
  Program p;
  p.param("N");
  p.param("M");
  p.array("A", {v("N"), iadd(v("N"), v("M"))});
  p.array("B", {iadd(v("N"), v("M"))});
  p.add(loop("I", c(1), v("N"),
             loop("J", c(1), v("I") + v("M") - 9,
                  assign(lv("A", {v("I"), v("J")}),
                         a("A", {v("I"), v("J")}) + a("B", {v("J")})))));
  return p;
}

TEST(UnrollJamTriangular, UpperBoundStructure) {
  Program p = upper_tri_nest();
  unroll_and_jam_triangular(p, p.body[0]->as_loop(), 4);
  ASSERT_EQ(p.body.size(), 2u);
  Loop& main = p.body[0]->as_loop();
  ASSERT_EQ(main.body.size(), 2u);  // rectangular part + triangular tail
  Loop& rect = main.body[0]->as_loop();
  EXPECT_EQ(to_string(rect.ub), "I+M-9");
  EXPECT_EQ(rect.body.size(), 4u);  // four unrolled copies
  Loop& tail = main.body[1]->as_loop();
  EXPECT_EQ(tail.var, "IT");
  EXPECT_EQ(to_string(tail.lb), "I+1");
  EXPECT_EQ(to_string(tail.ub), "I+3");
  EXPECT_EQ(to_string(tail.body[0]->as_loop().ub), "IT+M-9");
}

class TriangularUJEquivalence
    : public ::testing::TestWithParam<std::tuple<long, long, long>> {};

TEST_P(TriangularUJEquivalence, Semantics) {
  auto [n, m, factor] = GetParam();
  for (Program (*nest)() : {tri_nest, upper_tri_nest}) {
    Program p = nest();
    Program q = p.clone();
    unroll_and_jam_triangular(q, q.body[0]->as_loop(), factor);
    EXPECT_PROGRAMS_EQUIVALENT(p, q, (ir::Env{{"N", n}, {"M", m}}), 32);
  }
}

// N = 1 and 3 give trips shorter than the factor.
INSTANTIATE_TEST_SUITE_P(
    Sweep, TriangularUJEquivalence,
    ::testing::Combine(::testing::Values(1L, 3L, 8L, 11L),
                       ::testing::Values(2L, 9L, 14L),
                       ::testing::Values(2L, 3L, 4L)));

TEST(UnrollJamTriangular, RequiresUnitSlope) {
  Program p;
  p.param("N");
  p.param("M");
  p.array("A", {imul(c(2), v("N")), v("M")});
  p.add(loop("I", c(1), v("N"),
             loop("J", imul(c(2), v("I")), v("M"),
                  assign(lv("A", {v("I"), v("J")}), f(1.0)))));
  EXPECT_THROW(
      unroll_and_jam_triangular(p, p.body[0]->as_loop(), 2),
      blk::Error);
}

TEST(UnrollJamTriangular, RequiresUnitInnerStep) {
  // DO J = I, M, 2: the split J ranges would restart off its stride.
  Program p = tri_nest();
  p.body[0]->as_loop().body[0]->as_loop().step = c(2);
  EXPECT_THROW(
      unroll_and_jam_triangular(p, p.body[0]->as_loop(), 2),
      blk::Error);
}

TEST(UnrollJam, NormalizeMakesRhomboidJammable) {
  // Rhomboidal nest: DO I / DO K = I, I+4 -- after normalization the K
  // loop is rectangular and plain unroll-and-jam applies (the paper's
  // convolution treatment).
  Program p;
  p.param("N");
  p.array_bounds("A", {{.lb = c(1), .ub = iadd(v("N"), c(4))}});
  p.array("S", {v("N")});
  p.add(loop("I", c(1), v("N"),
             loop("K", v("I"), iadd(v("I"), c(4)),
                  assign(lv("S", {v("I")}),
                         a("S", {v("I")}) + a("A", {v("K")})))));
  Program q = p.clone();
  Loop& i = q.body[0]->as_loop();
  normalize_loop(q.body, i.body[0]->as_loop());
  EXPECT_EQ(to_string(i.body[0]->as_loop().lb), "0");
  EXPECT_EQ(to_string(i.body[0]->as_loop().ub), "4");
  unroll_and_jam(q, i, 2);
  for (long n : {1L, 5L, 10L})
    EXPECT_PROGRAMS_EQUIVALENT(p, q, (ir::Env{{"N", n}}), 33);
}

}  // namespace
}  // namespace blk::transform
