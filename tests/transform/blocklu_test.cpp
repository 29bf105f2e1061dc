// The paper's headline results as tests:
//  - §5.1: block LU without pivoting is derived fully automatically and
//    matches Fig. 6 (golden print + numeric identity with the point form);
//    the hand-coded block "1" (Sorensen), written as IR, matches too.
//  - §5.2: with commutativity knowledge the pivoting variant distributes;
//    without it, it does not.  The blocked factorization still pivots.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "ir/builder.hpp"
#include "ir/printer.hpp"
#include "kernels/ir_kernels.hpp"
#include "pm/runner.hpp"
#include "pm/spec.hpp"
#include "testutil.hpp"

namespace blk::transform {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;

analysis::Assumptions full_block_hint() {
  analysis::Assumptions hints;
  hints.assert_le(v("K") + v("KS") - 1, v("N") - 1);
  return hints;
}

/// Run `spec` over `p` and return its last stage's note (the composite
/// passes report "blocked, ..." or "not blocked, ...").
std::string run_note(Program& p, std::string_view spec,
                     const analysis::Assumptions& hints = full_block_hint()) {
  return pm::run_spec(p, spec, hints).passes.back().note;
}

bool blocked(const std::string& note) { return note.rfind("blocked", 0) == 0; }

Program derive_block_lu() {
  Program p = blk::kernels::lu_point_ir();
  p.param("KS");
  pm::PipelineContext ctx(p, full_block_hint());
  pm::RunReport r = pm::run_pipeline(pm::parse_pipeline("autoblock(b=KS)"),
                                     ctx);
  EXPECT_EQ(r.passes[0].note, "blocked, 1 splits, 2 interchanges");
  EXPECT_EQ(ctx.pieces.size(), 2u);
  return p;
}

TEST(BlockLu, DerivedStructureMatchesFig6) {
  Program p = derive_block_lu();
  // Fig. 6 with exact MIN guards on the ragged final block (the paper's
  // figure assumes KS | N-1; the derived form is correct for every N).
  EXPECT_EQ(print(p.body),
            "DO K = 1, N-1, KS\n"
            "  DO KK = K, MIN(K+KS-1,N-1)\n"
            "    DO I = KK+1, N\n"
            "      20: A(I,KK) = A(I,KK)/A(KK,KK)\n"
            "    ENDDO\n"
            "    DO J = KK+1, MIN(K+KS-1,N-1)\n"
            "      DO I = KK+1, N\n"
            "        10: A(I,J) = A(I,J) - A(I,KK)*A(KK,J)\n"
            "      ENDDO\n"
            "    ENDDO\n"
            "  ENDDO\n"
            "  DO J = MIN(K+KS-1,N-1)+1, N\n"
            "    DO I = K+1, N\n"
            "      DO KK = K, MIN(I-1,K+KS-1,N-1)\n"
            "        10: A(I,J) = A(I,J) - A(I,KK)*A(KK,J)\n"
            "      ENDDO\n"
            "    ENDDO\n"
            "  ENDDO\n"
            "ENDDO\n");
}

class BlockLuEquivalence
    : public ::testing::TestWithParam<std::tuple<long, long>> {};

TEST_P(BlockLuEquivalence, IdenticalToPointAlgorithm) {
  auto [n, ks] = GetParam();
  Program point = blk::kernels::lu_point_ir();
  Program blocked = derive_block_lu();
  ir::Env env{{"N", n}, {"KS", ks}};
  EXPECT_EQ(0.0, blk::test::run_and_diff(point, blocked, env, 13,
                                         {{"A", static_cast<double>(n)}}))
      << "N=" << n << " KS=" << ks;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockLuEquivalence,
    ::testing::Combine(::testing::Values(1L, 2L, 5L, 13L, 29L, 40L),
                       ::testing::Values(1L, 2L, 4L, 7L, 32L)));

TEST(BlockLu, DerivedBlockedVersionDoesSameWork) {
  // Statement-execution counts agree: blocking reorders, never recomputes.
  Program point = blk::kernels::lu_point_ir();
  Program blocked = derive_block_lu();
  interp::Interpreter ia(point, {{"N", 24}});
  interp::Interpreter ib(blocked, {{"N", 24}, {"KS", 5}});
  blk::test::seed_inputs(ia, 14, {{"A", 24.0}});
  blk::test::seed_inputs(ib, 14, {{"A", 24.0}});
  ia.run();
  ib.run();
  EXPECT_EQ(ia.statements_executed(), ib.statements_executed());
}

TEST(BlockLu, WithoutHintsStillSafeJustLessBlocked) {
  // No full-block hint: the split decision may fail, but whatever happens
  // must preserve semantics.
  Program p = blk::kernels::lu_point_ir();
  Program point = p.clone();
  p.param("KS");
  (void)run_note(p, "autoblock(b=KS)", {});
  for (long n : {11L, 18L}) {
    ir::Env env{{"N", n}, {"KS", 4}};
    EXPECT_EQ(0.0, blk::test::run_and_diff(point, p, env, 15,
                                           {{"A", static_cast<double>(n)}}));
  }
}

/// Run `p` on the VM with A set to the column-major `a0`; returns A.
std::vector<double> factor(const Program& p, ir::Env env,
                           const std::vector<double>& a0) {
  interp::ExecEngine e(p, std::move(env));
  std::span<double> a = e.store().arrays.at("A").flat();
  std::ranges::copy(a0, a.begin());
  e.run();
  return {a.begin(), a.end()};
}

/// max |(L*U - A0)(i,j)| / n for the unit-lower L and upper U packed in
/// the n x n column-major `f`.
double reconstruction_error(const std::vector<double>& f,
                            const std::vector<double>& a0, long n) {
  auto at = [n](const std::vector<double>& m, long i, long j) {
    return m[static_cast<std::size_t>(j * n + i)];
  };
  double worst = 0.0;
  for (long j = 0; j < n; ++j)
    for (long i = 0; i < n; ++i) {
      double s = i <= j ? at(f, i, j) : at(f, i, j) * at(f, j, j);
      for (long k = 0; k < std::min(i, j); ++k) s += at(f, i, k) * at(f, k, j);
      worst = std::max(worst, std::abs(s - at(a0, i, j)));
    }
  return worst / static_cast<double>(n);
}

// The hand-coded block algorithm "1" (Sorensen's), written as IR: the one
// T3 variant the compiler cannot derive.
class LuVariants : public ::testing::TestWithParam<std::tuple<long, long>> {
};

TEST_P(LuVariants, AllVariantsMatchPoint) {
  // It performs the point algorithm's operations per element in the same
  // order, so the factors agree bitwise.
  auto [n, ks] = GetParam();
  ir::Env env{{"N", n}, {"KS", ks}};
  EXPECT_EQ(0.0, blk::test::run_and_diff(blk::kernels::lu_point_ir(),
                                         blk::kernels::lu_sorensen_ir(), env,
                                         51, {{"A", static_cast<double>(n)}}))
      << "N=" << n << " KS=" << ks;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LuVariants,
    ::testing::Combine(::testing::Values(1L, 2L, 5L, 17L, 33L, 64L, 100L),
                       ::testing::Values(1L, 4L, 8L, 32L)));

TEST(Lu, ResidualAgainstOriginal) {
  const long n = 64;
  interp::ExecEngine seed(blk::kernels::lu_point_ir(), {{"N", n}});
  blk::test::seed_inputs(seed, 52, {{"A", static_cast<double>(n)}});
  const std::span<const double> flat = seed.store().arrays.at("A").flat();
  const std::vector<double> a0(flat.begin(), flat.end());
  for (const Program& p :
       {blk::kernels::lu_point_ir(), blk::kernels::lu_sorensen_ir()}) {
    std::vector<double> f = factor(p, {{"N", n}, {"KS", 16}}, a0);
    EXPECT_LE(reconstruction_error(f, a0, n), 1e-12 * static_cast<double>(n));
  }
}

TEST(Lu, KnownTinyFactorization) {
  // [[4,3],[6,3]] = [[1,0],[1.5,1]] * [[4,3],[0,-1.5]], column-major.
  EXPECT_EQ(factor(blk::kernels::lu_point_ir(), {{"N", 2}}, {4, 6, 3, 3}),
            (std::vector<double>{4, 1.5, 3, -1.5}));
}

TEST(Lu, BlockLargerThanMatrix) {
  // One ragged block covers everything.
  ir::Env env{{"N", 10}, {"KS", 64}};
  EXPECT_EQ(0.0, blk::test::run_and_diff(blk::kernels::lu_point_ir(),
                                         blk::kernels::lu_sorensen_ir(), env,
                                         53, {{"A", 10.0}}));
}

TEST(Lu, DegenerateSizes) {
  // 1x1: nothing to eliminate, so A is its own factorization.
  for (const Program& p :
       {blk::kernels::lu_point_ir(), blk::kernels::lu_sorensen_ir()})
    EXPECT_EQ(factor(p, {{"N", 1}, {"KS", 4}}, {3.5}),
              std::vector<double>{3.5});
}

// ---- §5.2: LU with partial pivoting -----------------------------------

/// Fig. 8: the pivoted block LU ("1"), derivable with commutativity.
Program derive_pivot_block_lu() {
  Program p = blk::kernels::lu_pivot_point_ir();
  p.param("KS");
  EXPECT_TRUE(blocked(run_note(p, "autoblock(b=KS, commutativity)")));
  return p;
}

/// Every multiplier |L(i,j)| of the packed n x n factors is at most 1.
void expect_multipliers_bounded(const std::vector<double>& f, long n) {
  for (long j = 0; j < n; ++j)
    for (long i = j + 1; i < n; ++i)
      EXPECT_LE(std::abs(f[static_cast<std::size_t>(j * n + i)]), 1.0 + 1e-12)
          << "L(" << i << "," << j << ")";
}

class LuPivotVariants
    : public ::testing::TestWithParam<std::tuple<long, long>> {};

TEST_P(LuPivotVariants, BlockVariantsMatchPoint) {
  // General matrices: the panel is fully updated before each pivot search,
  // so the block form picks the same pivots and produces the same factors.
  auto [n, ks] = GetParam();
  ir::Env env{{"N", n}, {"KS", ks}};
  EXPECT_EQ(0.0, blk::test::run_and_diff(blk::kernels::lu_pivot_point_ir(),
                                         derive_pivot_block_lu(), env, 61))
      << "N=" << n << " KS=" << ks;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LuPivotVariants,
    ::testing::Combine(::testing::Values(1L, 2L, 6L, 19L, 40L, 65L),
                       ::testing::Values(1L, 4L, 8L, 32L)));

TEST(LuPivot, PivotingActuallyPivots) {
  // A tiny leading pivot: |2.0| is the largest in column 1, so row 2 moves
  // to the top (U's first row is A0's second) and every multiplier is
  // bounded by 1 — the point of pivoting.
  const std::vector<double> a0{1e-12, 2.0, -1.0, 1.0, 1.0, 3.0, 2.0, 1.0, 1.0};
  Program plus = blk::kernels::lu_pivot_point_ir();
  plus.param("KS");
  ASSERT_TRUE(
      blocked(run_note(plus, "autoblockplus(b=KS, u=2, commutativity)")));
  for (const Program& p : {blk::kernels::lu_pivot_point_ir(), plus.clone()}) {
    std::vector<double> f = factor(p, {{"N", 3}, {"KS", 2}}, a0);
    EXPECT_EQ(f[0], 2.0);
    EXPECT_EQ(f[3], 1.0);
    EXPECT_EQ(f[6], 1.0);
    expect_multipliers_bounded(f, 3);
  }
}

TEST(LuPivot, MultipliersBoundedForRandomMatrix) {
  const long n = 40;
  interp::ExecEngine e(derive_pivot_block_lu(), {{"N", n}, {"KS", 8}});
  blk::test::seed_inputs(e, 63);
  e.run();
  const std::span<const double> f = e.store().arrays.at("A").flat();
  expect_multipliers_bounded({f.begin(), f.end()}, n);
}

TEST(LuPivot, SingularLikeColumnsStillTerminate) {
  // Upper triangular: every pivot is already on the diagonal, so nothing
  // is swapped and the factors are the input itself (L = I, U = A0).
  const long n = 4;
  std::vector<double> a0(n * n);
  for (long j = 0; j < n; ++j)
    for (long i = 0; i <= j; ++i) a0[static_cast<std::size_t>(j * n + i)] = 1;
  for (const Program& p :
       {blk::kernels::lu_pivot_point_ir(), derive_pivot_block_lu()})
    EXPECT_EQ(factor(p, {{"N", n}, {"KS", 2}}, a0), a0);
}

TEST(BlockLuPivot, NotDistributableByDependenceAlone) {
  // Strip-mine and split: the swap<->update recurrence remains one SCC.
  Program p = blk::kernels::lu_pivot_point_ir();
  p.param("KS");
  EXPECT_FALSE(blocked(run_note(p, "autoblock(b=KS)")));
}

TEST(BlockLuPivot, CommutativityKnowledgeUnlocksBlocking) {
  Program p = blk::kernels::lu_pivot_point_ir();
  Program point = blk::kernels::lu_pivot_point_ir();
  p.param("KS");
  pm::PipelineContext ctx(p, full_block_hint());
  pm::RunReport r = pm::run_pipeline(
      pm::parse_pipeline("autoblock(b=KS, commutativity)"), ctx);
  ASSERT_TRUE(blocked(r.passes[0].note));
  ASSERT_GE(ctx.pieces.size(), 2u);

  // Fig. 8: first piece keeps the point algorithm (pivot search, swap,
  // scale, block-column update); the delayed update runs second.  The
  // values produced equal the point algorithm's (§5.2: "the final values
  // are identical").
  for (long n : {9L, 17L, 24L}) {
    for (long ks : {2L, 4L, 7L}) {
      ir::Env env{{"N", n}, {"KS", ks}};
      EXPECT_EQ(0.0, blk::test::run_and_diff(point, p, env, 16))
          << "N=" << n << " KS=" << ks;
    }
  }
}

TEST(BlockLuPivot, PivotChoicesMatchPointAlgorithm) {
  // The blocked pivoting factorization must pick the same pivot rows: the
  // panel columns are fully updated before each pivot search.
  Program p = blk::kernels::lu_pivot_point_ir();
  Program point = blk::kernels::lu_pivot_point_ir();
  p.param("KS");
  (void)run_note(p, "autoblock(b=KS, commutativity)");

  interp::Interpreter ia(point, {{"N", 15}});
  interp::Interpreter ib(p, {{"N", 15}, {"KS", 4}});
  blk::test::seed_inputs(ia, 17);
  blk::test::seed_inputs(ib, 17);
  ia.run();
  ib.run();
  EXPECT_EQ(ia.store().scalars.at("IMAX"), ib.store().scalars.at("IMAX"));
  EXPECT_EQ(interp::max_abs_diff(ia.store(), ib.store()), 0.0);
}

TEST(BlockLuPlus, DerivesThePaperTwoPlusVariant) {
  // autoblockplus = Fig. 6 + unroll-and-jam + scalar replacement: the
  // "2+" code of table T3, derived fully automatically.
  Program p = blk::kernels::lu_point_ir();
  p.param("KS");
  ASSERT_TRUE(blocked(run_note(p, "autoblockplus(b=KS, u=2)")));
  std::string out = print(p.body);
  // The trailing J loop is jammed by 2 with register accumulators.
  EXPECT_NE(out.find(", N-1, 2"), std::string::npos) << out;
  EXPECT_NE(out.find("T2 = T2 - A(I,KK)*A(KK,J)"), std::string::npos)
      << out;
  EXPECT_NE(out.find("T3 = T3 - A(I,KK)*A(KK,J+1)"), std::string::npos);
  // The panel's invariant pivot loads were hoisted too.
  EXPECT_NE(out.find("T0 = A(KK,KK)"), std::string::npos);
}

class BlockLuPlusEquivalence
    : public ::testing::TestWithParam<std::tuple<long, long, long>> {};

TEST_P(BlockLuPlusEquivalence, IdenticalToPointAlgorithm) {
  auto [n, ks, uf] = GetParam();
  Program point = blk::kernels::lu_point_ir();
  Program plus = blk::kernels::lu_point_ir();
  plus.param("KS");
  ASSERT_TRUE(blocked(
      run_note(plus, "autoblockplus(b=KS, u=" + std::to_string(uf) + ")")));
  ir::Env env{{"N", n}, {"KS", ks}};
  EXPECT_EQ(0.0, blk::test::run_and_diff(point, plus, env, 19,
                                         {{"A", static_cast<double>(n)}}))
      << "N=" << n << " KS=" << ks << " UF=" << uf;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockLuPlusEquivalence,
    ::testing::Combine(::testing::Values(7L, 23L, 40L),
                       ::testing::Values(3L, 8L),
                       ::testing::Values(2L, 3L, 4L)));

TEST(BlockLuPlus, PivotedVariantAlsoDerives) {
  // "1+": the pivoted pipeline with commutativity + register blocking.
  Program point = blk::kernels::lu_pivot_point_ir();
  Program plus = blk::kernels::lu_pivot_point_ir();
  plus.param("KS");
  ASSERT_TRUE(
      blocked(run_note(plus, "autoblockplus(b=KS, u=2, commutativity)")));
  for (long n : {11L, 26L}) {
    ir::Env env{{"N", n}, {"KS", 4}};
    EXPECT_EQ(0.0, blk::test::run_and_diff(point, plus, env, 20));
  }
}

}  // namespace
}  // namespace blk::transform
