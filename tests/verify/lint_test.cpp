// IR lint tests: structural fold-in, out-of-bounds sections, zero-trip
// loops, use-before-def scalars.
#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "kernels/ir_kernels.hpp"
#include "testutil.hpp"
#include "verify/lint.hpp"

namespace blk::verify {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;

[[nodiscard]] bool has_code(const Report& r, const std::string& code) {
  for (const auto& d : r.diags)
    if (d.code == code) return true;
  return false;
}

[[nodiscard]] const Diagnostic* find_code(const Report& r,
                                          const std::string& code) {
  for (const auto& d : r.diags)
    if (d.code == code) return &d;
  return nullptr;
}

TEST(Lint, KernelFactoriesLintClean) {
  using Factory = Program (*)();
  const Factory factories[] = {
      blk::kernels::lu_point_ir, blk::kernels::lu_pivot_point_ir,
      blk::kernels::givens_qr_ir, blk::kernels::matmul_guarded_ir,
      blk::kernels::conv_ir, blk::kernels::aconv_ir};
  for (Factory f : factories) {
    Program p = f();
    Report r = lint(p);
    EXPECT_TRUE(r.ok()) << r.to_string();
  }
  for (const char* file :
       {"lu_sorensen.f", "householder.f", "householder_wy.f"}) {
    Program p = blk::test::example(file);
    Report r = lint(p);
    EXPECT_TRUE(r.ok()) << file << "\n" << r.to_string();
  }
}

TEST(Lint, CatchesProvableOutOfBounds) {
  // B(I+1) with I sweeping 1..N exceeds B's declared extent 1..N.
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), a("B", {v("I") + 1}))));
  Report r = lint(p);
  EXPECT_FALSE(r.ok()) << r.to_string();
  const Diagnostic* d = find_code(r, "oob-subscript");
  ASSERT_NE(d, nullptr) << r.to_string();
  EXPECT_EQ(d->severity, Severity::Error);
  EXPECT_EQ(d->subscript, 1);
  EXPECT_NE(d->message.find("exceeds upper bound"), std::string::npos);
  EXPECT_NE(d->where.find("DO I"), std::string::npos);
}

TEST(Lint, DescendingLoopOverrunIsReported) {
  // DO K = N+1, 1, -1 counts down from N+1: A(K) spans 1:N+1, like its
  // ascending twin, not the inverted (and so empty-looking) N+1:1.
  for (long step : {1L, -1L}) {
    Program p;
    p.param("N");
    p.array("A", {v("N")});
    IExprPtr lo = c(1), hi = v("N") + 1;
    if (step < 0) std::swap(lo, hi);
    p.add(loop_step("K", lo, hi, c(step), assign(lv("A", {v("K")}), f(0.0))));
    analysis::Assumptions ctx;
    ctx.assert_ge(v("N"), c(1));
    Report r = lint(p, {.ctx = &ctx});
    const Diagnostic* d = find_code(r, "oob-subscript");
    ASSERT_NE(d, nullptr) << "step " << step << "\n" << r.to_string();
    EXPECT_NE(d->message.find("spans 1:N+1"), std::string::npos)
        << d->message;
  }
}

TEST(Lint, CatchesBelowLowerBound) {
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.add(loop("I", c(1), v("N"), assign(lv("A", {v("I") - 1}), f(0.0))));
  Report r = lint(p);
  EXPECT_FALSE(r.ok());
  const Diagnostic* d = find_code(r, "oob-subscript");
  ASSERT_NE(d, nullptr) << r.to_string();
  EXPECT_NE(d->message.find("below lower bound"), std::string::npos);
}

TEST(Lint, GuardedOutOfBoundsIsWarning) {
  // The same violation under an IF: the guard may exclude the extreme
  // iterations, so this demotes to a warning.
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.add(loop("I", c(1), v("N"),
             when(cmp(a("B", {v("I")}), CmpOp::GT, f(0.0)),
                  assign(lv("A", {v("I") + 1}), f(0.0)))));
  Report r = lint(p);
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_TRUE(has_code(r, "oob-subscript-guarded")) << r.to_string();
}

TEST(Lint, SecondDimensionReported) {
  Program p;
  p.param("N");
  p.array("A", {v("N"), v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I"), v("I") + 2}), f(0.0))));
  Report r = lint(p);
  const Diagnostic* d = find_code(r, "oob-subscript");
  ASSERT_NE(d, nullptr) << r.to_string();
  EXPECT_EQ(d->subscript, 2);
}

TEST(Lint, AssumptionsUnlockBoundsProofs) {
  // A(I+K) with I <= N-K is in bounds only given the caller's fact.
  Program p;
  p.param("N");
  p.param("K");
  p.array("A", {v("N")});
  p.add(loop("I", c(1), v("N") - v("K"),
             assign(lv("A", {v("I") + v("K")}), f(0.0))));
  Report clean = lint(p);
  EXPECT_TRUE(clean.ok()) << clean.to_string();

  // Pedantic mode reports the unproven lower bound (I+K >= 1 needs K >= 0).
  Report pedantic = lint(p, {.ctx = nullptr, .pedantic = true});
  EXPECT_TRUE(has_code(pedantic, "unproven-bounds")) << pedantic.to_string();
  analysis::Assumptions ctx;
  ctx.assert_ge(v("K"), c(0));
  Report proven = lint(p, {.ctx = &ctx, .pedantic = true});
  EXPECT_FALSE(has_code(proven, "unproven-bounds")) << proven.to_string();
}

TEST(Lint, WarnsZeroTripLoop) {
  Program p;
  p.param("N");
  p.array("A", {c(2)});
  // DO I = 5, 1 never executes; the wild subscript inside must not be
  // reported as an error (the access never happens).
  p.add(loop("I", c(5), c(1), assign(lv("A", {v("I")}), f(0.0))));
  Report r = lint(p);
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_TRUE(has_code(r, "zero-trip-loop")) << r.to_string();
  EXPECT_FALSE(has_code(r, "oob-subscript"));
}

TEST(Lint, WarnsUseBeforeDefScalar) {
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.scalar("S");
  p.add(loop("I", c(1), v("N"), assign(lv("A", {v("I")}), s("S")),
             assign(lvs("S"), a("A", {v("I")}))));
  Report r = lint(p);
  EXPECT_TRUE(has_code(r, "use-before-def")) << r.to_string();

  // Write-then-read is fine; a never-written scalar is an external input.
  Program q;
  q.param("N");
  q.array("B", {v("N")});
  q.scalar("T");
  q.add(loop("I", c(1), v("N"), assign(lvs("T"), a("B", {v("I")})),
             assign(lv("B", {v("I")}), s("T"))));
  EXPECT_FALSE(has_code(lint(q), "use-before-def"));
}

TEST(Lint, FoldsStructuralDiagnostics) {
  // Rank mismatch arrives through lint as a `structure` error naming the
  // offending subscript position.
  Program p;
  p.param("N");
  p.array("A", {v("N"), v("N")});
  p.add(loop("I", c(1), v("N"), assign(lv("A", {v("I")}), f(1.0))));
  Report r = lint(p);
  EXPECT_FALSE(r.ok());
  const Diagnostic* d = find_code(r, "structure");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("rank mismatch"), std::string::npos);
  EXPECT_NE(d->message.find("position 2"), std::string::npos);
}

}  // namespace
}  // namespace blk::verify
