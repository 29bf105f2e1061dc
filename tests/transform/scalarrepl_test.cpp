// Scalar replacement and scalar expansion tests.
#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/error.hpp"
#include "ir/printer.hpp"
#include "testutil.hpp"
#include "transform/scalarrepl.hpp"

namespace blk::transform {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;

/// Reduction with an invariant accumulator: S(I) over the K loop.
Program reduction() {
  Program p;
  p.param("N");
  p.array("S", {v("N")});
  p.array("A", {v("N"), v("N")});
  p.add(loop("I", c(1), v("N"),
             loop("K", c(1), v("N"),
                  assign(lv("S", {v("I")}),
                         a("S", {v("I")}) + a("A", {v("I"), v("K")})))));
  return p;
}

TEST(ScalarReplace, HoistsInvariantAccumulator) {
  Program p = reduction();
  Loop& k = p.body[0]->as_loop().body[0]->as_loop();
  int n = scalar_replace(p, p.body, k);
  EXPECT_EQ(n, 1);
  std::string out = print(p.body);
  // Load before, store after, scalar inside.
  EXPECT_NE(out.find("T0 = S(I)"), std::string::npos) << out;
  EXPECT_NE(out.find("T0 = T0 + A(I,K)"), std::string::npos) << out;
  EXPECT_NE(out.find("S(I) = T0"), std::string::npos) << out;
}

TEST(ScalarReplace, SemanticsPreserved) {
  Program p = reduction();
  Program q = p.clone();
  Loop& k = q.body[0]->as_loop().body[0]->as_loop();
  scalar_replace(q, q.body, k);
  for (long n : {1L, 4L, 9L})
    EXPECT_PROGRAMS_EQUIVALENT(p, q, (ir::Env{{"N", n}}), 41);
}

TEST(ScalarReplace, ReadOnlyGroupGetsNoStore) {
  // B(J) is read-only in the I loop: load hoisted, no store after.
  Program p;
  p.param("N");
  p.array("A", {v("N"), v("N")});
  p.array("B", {v("N")});
  p.add(loop("J", c(1), v("N"),
             loop("I", c(1), v("N"),
                  assign(lv("A", {v("I"), v("J")}),
                         a("A", {v("I"), v("J")}) + a("B", {v("J")})))));
  Program orig = p.clone();
  Loop& i = p.body[0]->as_loop().body[0]->as_loop();
  EXPECT_EQ(scalar_replace(p, p.body, i), 1);
  std::string out = print(p.body);
  EXPECT_NE(out.find("T0 = B(J)"), std::string::npos);
  EXPECT_EQ(out.find("B(J) = T0"), std::string::npos);  // no store-back
  EXPECT_PROGRAMS_EQUIVALENT(orig, p, (ir::Env{{"N", 7}}), 42);
}

TEST(ScalarReplace, RefusesWhenAliasUnprovable) {
  // A(J) invariant in I, but A(I) also written: J vs I may collide.
  Program p;
  p.param("N");
  p.param("J");
  p.array("A", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), a("A", {v("J")}))));
  Loop& i = p.body[0]->as_loop();
  EXPECT_EQ(scalar_replace(p, p.body, i), 0);
}

TEST(ScalarReplace, AllowsProvablyDisjointRefs) {
  // The LU trailing-update shape: A(I,J) invariant in KK; A(I,KK) and
  // A(KK,J) provably disjoint from it via loop ranges (KK <= K+KS-1 < J,
  // KK <= I-1 < I).
  Program p;
  p.param("N");
  p.param("K");
  p.param("KS");
  p.array("A", {v("N"), v("N")});
  p.add(loop(
      "J", v("K") + v("KS"), v("N"),
      loop("I", v("K") + 1, v("N"),
           loop("KK", v("K"),
                imin(imin(v("K") + v("KS") - 1, v("N") - 1), v("I") - 1),
                assign(lv("A", {v("I"), v("J")}),
                       a("A", {v("I"), v("J")}) -
                           a("A", {v("I"), v("KK")}) *
                               a("A", {v("KK"), v("J")}))))));
  Program orig = p.clone();
  Loop& kk =
      p.body[0]->as_loop().body[0]->as_loop().body[0]->as_loop();
  EXPECT_EQ(scalar_replace(p, p.body, kk), 1);
  std::string out = print(p.body);
  EXPECT_NE(out.find("T0 = A(I,J)"), std::string::npos) << out;
  for (long ks : {2L, 3L}) {
    ir::Env env{{"N", 9}, {"K", 2}, {"KS", ks}};
    EXPECT_PROGRAMS_EQUIVALENT(orig, p, env, 43);
  }
}

TEST(ScalarReplace, SubscriptScalarWrittenInTheLoopVaries) {
  // JC = 1 / DO I = 1, N / X(JC) = X(JC) + 1.0 / JC = JC + 1: X(JC) names
  // a new element every iteration.  Hoisting it would store X(N+1).
  Program p;
  p.param("N");
  p.array("X", {v("N")});
  p.scalar("JC");
  p.add(assign(lvs("JC"), f(1.0)));
  p.add(loop("I", c(1), v("N"),
             assign(lv("X", {v("JC")}), a("X", {v("JC")}) + f(1.0)),
             assign(lvs("JC"), s("JC") + f(1.0))));
  Program q = p.clone();
  EXPECT_EQ(scalar_replace(q, q.body, q.body[1]->as_loop()), 0)
      << print(q.body);
  EXPECT_PROGRAMS_EQUIVALENT(p, q, (ir::Env{{"N", 5}}), 47);
}

TEST(ScalarReplace, IndexArrayWrittenInTheLoopVaries) {
  // The inspector's shape: JLB(JC) = J with JC counting up.
  Program p;
  p.param("N");
  p.array("JLB", {v("N")});
  p.array("X", {v("N")});
  p.scalar("JC");
  p.add(loop("J", c(1), v("N"),
             assign(lvs("JC"), s("JC") + f(1.0)),
             assign(lv("JLB", {v("JC")}), vindex(v("J"))),
             assign(lv("X", {ielem("JLB", v("JC"))}), f(2.0))));
  Program q = p.clone();
  EXPECT_EQ(scalar_replace(q, q.body, q.body[0]->as_loop()), 0)
      << print(q.body);
}

TEST(ScalarReplace, MultipleGroups) {
  // Two invariant elements in the same loop.
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.array("C", {v("N")});
  p.param("J");
  p.add(loop("I", c(1), v("N"),
             assign(lv("C", {v("I")}),
                    a("A", {v("J")}) + a("B", {v("J")}))));
  Loop& i = p.body[0]->as_loop();
  EXPECT_EQ(scalar_replace(p, p.body, i), 2);
}

TEST(ScalarExpand, GivensCoefficients) {
  // Expand C assigned per-J into CX(J) (the §5.4 preparation step).
  Program p;
  p.param("M");
  p.array("A", {v("M")});
  p.scalar("C");
  p.add(loop("J", c(2), v("M"),
             assign(lvs("C"), a("A", {v("J")})),
             assign(lv("A", {v("J")}), s("C") * f(2.0))));
  Program orig = p.clone();
  Loop& j = p.body[0]->as_loop();
  std::string arr = scalar_expand(p, p.body, j, "C");
  EXPECT_EQ(arr, "CX");
  EXPECT_TRUE(p.has_array("CX"));
  std::string out = print(p.body);
  EXPECT_NE(out.find("CX(J) = A(J)"), std::string::npos) << out;
  EXPECT_NE(out.find("A(J) = CX(J)*2"), std::string::npos) << out;
  EXPECT_PROGRAMS_EQUIVALENT(orig, p, (ir::Env{{"M", 8}}), 44);
}

TEST(ScalarExpand, RequiresDeclaredScalar) {
  Program p = reduction();
  Loop& i = p.body[0]->as_loop();
  EXPECT_THROW((void)scalar_expand(p, p.body, i, "NOPE"), blk::Error);
}

TEST(ScalarExpand, ArrayDimensionCoversEnclosingSweep) {
  // J runs L+1..M inside L = 1..N: CX must span [2, M].
  Program p;
  p.param("N");
  p.param("M");
  p.array("A", {v("M"), v("N")});
  p.scalar("C");
  p.add(loop("L", c(1), v("N"),
             loop("J", v("L") + 1, v("M"),
                  assign(lvs("C"), a("A", {v("J"), v("L")})),
                  assign(lv("A", {v("J"), v("L")}), s("C")))));
  Loop& j = p.body[0]->as_loop().body[0]->as_loop();
  scalar_expand(p, p.body, j, "C");
  const ArrayDecl& d = p.array_decl("CX");
  EXPECT_EQ(to_string(d.dims[0].lb), "2");
  EXPECT_EQ(to_string(d.dims[0].ub), "M");
}

TEST(ScalarCarried, FirstOrderRecurrenceRotates) {
  // A(I) = A(I-1)*0.5 + B(I): the carried value moves through a scalar.
  Program p;
  p.param("N");
  p.array_bounds("A", {{.lb = c(0), .ub = v("N")}});
  p.array("B", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}),
                    a("A", {v("I") - 1}) * f(0.5) + a("B", {v("I")}))));
  Program orig = p.clone();
  Loop& i = p.body[0]->as_loop();
  EXPECT_EQ(scalar_replace_carried(p, p.body, i), 1);
  std::string out = print(p.body);
  EXPECT_NE(out.find("R0 = A(0)"), std::string::npos) << out;
  EXPECT_NE(out.find("A(I) = R0*0.5 + B(I)"), std::string::npos) << out;
  EXPECT_NE(out.find("R0 = A(I)"), std::string::npos) << out;
  // Exact, including the empty-loop case the guard protects.
  for (long n : {1L, 2L, 9L})
    EXPECT_PROGRAMS_EQUIVALENT(orig, p, (ir::Env{{"N", n}}), 71);
}

TEST(ScalarCarried, GuardPreventsOutOfBoundsPreload) {
  // With N = 0 the loop is empty; the preheader load A(0) must not run
  // when the array starts at 1.
  Program p;
  p.param("N");
  p.array("A", {iadd(v("N"), c(1))});  // 1-based: A(0) does not exist
  p.array("B", {iadd(v("N"), c(1))});
  p.add(loop("I", c(2), v("N"),
             assign(lv("A", {v("I")}),
                    a("A", {v("I") - 1}) + a("B", {v("I")}))));
  Program orig = p.clone();
  Loop& i = p.body[0]->as_loop();
  ASSERT_EQ(scalar_replace_carried(p, p.body, i), 1);
  // N = 1: empty loop; unguarded A(1) preload would be fine, but N = 0
  // would make even B undersized — run N = 1 and N = 6 through both.
  for (long n : {1L, 6L})
    EXPECT_PROGRAMS_EQUIVALENT(orig, p, (ir::Env{{"N", n}}), 72);
}

TEST(ScalarCarried, NonRecurrentPatternsDecline) {
  // Distance 2 (not 1): declined.
  Program p;
  p.param("N");
  p.array_bounds("A", {{.lb = isub(c(0), c(1)), .ub = v("N")}});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), a("A", {v("I") - 2}))));
  EXPECT_EQ(scalar_replace_carried(p, p.body, p.body[0]->as_loop()), 0);
  // No write at all: declined.
  Program q;
  q.param("N");
  q.array("A", {v("N")});
  q.array("B", {v("N")});
  q.add(loop("I", c(2), v("N"),
             assign(lv("B", {v("I")}), a("A", {v("I") - 1}))));
  Loop& qi = q.body[0]->as_loop();
  // B's write has no carried read; A has no write.
  EXPECT_EQ(scalar_replace_carried(q, q.body, qi), 0);
}

TEST(ScalarCarried, TwoDimensionalColumnRecurrence) {
  // A(I,J) = A(I-1,J) down a fixed column: rotates too.
  Program p;
  p.param("N");
  p.param("J");
  p.array_bounds("A", {{.lb = c(0), .ub = v("N")},
                       {.lb = c(1), .ub = v("N")}});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I"), v("J")}),
                    a("A", {v("I") - 1, v("J")}) * f(0.25))));
  Program orig = p.clone();
  ASSERT_EQ(scalar_replace_carried(p, p.body, p.body[0]->as_loop()), 1);
  for (long n : {2L, 7L}) {
    ir::Env env{{"N", n}, {"J", 2}};
    EXPECT_PROGRAMS_EQUIVALENT(orig, p, env, 73);
  }
}

}  // namespace
}  // namespace blk::transform
