// QR tests: the Givens kernels (§5.4, table T5) and the Householder
// programs (§5.3): the point algorithm tools/examples/householder.f and its
// compact-WY BLOCK DO form householder_wy.f, which a compiler cannot derive
// from it (§6).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "kernels/qr_givens.hpp"
#include "testutil.hpp"

namespace blk::kernels {
namespace {

/// max |(R^T R - A0^T A0)(i,j)| / n: orthogonal transformations preserve
/// the Gram matrix, so this checks a QR factorization without forming Q.
double qr_gram_residual(const Matrix& factored, const Matrix& a0) {
  const std::size_t n = factored.cols();
  double worst = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      // (R^T R)(i,j) = sum_k R(k,i) R(k,j), k <= min(i,j).
      double g1 = 0.0;
      for (std::size_t k = 0; k <= std::min(i, j); ++k)
        g1 += factored(k, i) * factored(k, j);
      double g0 = 0.0;
      for (std::size_t k = 0; k < a0.rows(); ++k) g0 += a0(k, i) * a0(k, j);
      worst = std::max(worst, std::abs(g1 - g0));
    }
  }
  return worst / static_cast<double>(n);
}

/// Factor `a` in place with tools/examples/`file` on the VM, the BLOCK DO
/// factor BS_K bound to `ks`; returns TAU.  R is on and above the
/// diagonal, the reflectors below it.
std::vector<double> householder(const std::string& file, Matrix& a,
                                long ks = 1) {
  const ir::Program p = blk::test::example(file);
  interp::ExecEngine e(p, {{"M", static_cast<long>(a.rows())},
                           {"N", static_cast<long>(a.cols())},
                           {"BS_K", ks}});
  std::span<double> flat = e.store().arrays.at("A").flat();
  std::ranges::copy(a.flat(), flat.begin());
  e.run();
  std::ranges::copy(flat, a.flat().begin());
  std::span<const double> tau = e.store().arrays.at("TAU").flat();
  return {tau.begin(), tau.end()};
}

class GivensShapes
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(GivensShapes, OptimizedMatchesPoint) {
  auto [m, n] = GetParam();
  Matrix a0(m, n);
  fill_random(a0, 71);
  Matrix p = a0, o = a0;
  givens_qr_point(p);
  givens_qr_opt(o);
  // Identical rotation sequence => identical R (up to roundoff noise from
  // the different accumulation orders in row L).
  EXPECT_LE(givens_residual(o, p), 1e-10)
      << "m=" << m << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GivensShapes,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{4},
                                         std::size_t{16}, std::size_t{33},
                                         std::size_t{64}),
                       ::testing::Values(std::size_t{1}, std::size_t{4},
                                         std::size_t{16}, std::size_t{32})));

TEST(Givens, ZerosBelowDiagonal) {
  Matrix a(20, 12);
  fill_random(a, 72);
  givens_qr_point(a);
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = j + 1; i < a.rows(); ++i)
      EXPECT_NEAR(a(i, j), 0.0, 1e-12) << i << "," << j;
  Matrix b(20, 12);
  fill_random(b, 72);
  givens_qr_opt(b);
  for (std::size_t j = 0; j < b.cols(); ++j)
    for (std::size_t i = j + 1; i < b.rows(); ++i)
      EXPECT_NEAR(b(i, j), 0.0, 1e-12);
}

TEST(Givens, PreservesColumnGram) {
  // Orthogonal transforms preserve A^T A; check against the R factor.
  Matrix a0(24, 10);
  fill_random(a0, 73);
  Matrix r = a0;
  givens_qr_opt(r);
  EXPECT_LE(qr_gram_residual(r, a0), 1e-10);
}

TEST(Givens, SparseColumnSkipsRotations) {
  // Zeros below the diagonal in column 0: the guard must skip them and the
  // result must equal the dense path's (which sees the same zeros).
  Matrix a(16, 8);
  fill_random(a, 74);
  for (std::size_t i = 1; i < 16; i += 2) a(i, 0) = 0.0;
  Matrix b = a;
  givens_qr_point(a);
  givens_qr_opt(b);
  EXPECT_LE(givens_residual(b, a), 1e-11);
}

class HouseholderShapes
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(HouseholderShapes, BlockMatchesPoint) {
  auto [m, ks] = GetParam();
  const std::size_t n = m >= 8 ? m - 3 : m;
  Matrix a0(m, n);
  fill_random(a0, 75);
  Matrix p = a0, b = a0;
  const std::vector<double> taup = householder("householder.f", p);
  const std::vector<double> taub =
      householder("householder_wy.f", b, static_cast<long>(ks));
  // The reflectors are identical; the blocked application reassociates the
  // trailing update, so compare with a roundoff tolerance.
  const double tol = 1e-10 * static_cast<double>(m);
  EXPECT_LE(max_abs_diff(p, b), tol) << "m=" << m << " ks=" << ks;
  for (std::size_t k = 0; k < taup.size(); ++k)
    EXPECT_NEAR(taup[k], taub[k], 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HouseholderShapes,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{5},
                                         std::size_t{16}, std::size_t{30},
                                         std::size_t{64}),
                       ::testing::Values(std::size_t{1}, std::size_t{4},
                                         std::size_t{8}, std::size_t{32})));

TEST(Householder, GramPreserved) {
  Matrix a0(40, 24);
  fill_random(a0, 76);
  Matrix f = a0;
  (void)householder("householder_wy.f", f, 8);
  EXPECT_LE(qr_gram_residual(f, a0), 1e-9);
}

TEST(Householder, RDiagonalSignConvention) {
  // beta = -sign(alpha)*norm: R(0,0) opposes the sign of A(0,0).
  Matrix a(8, 4);
  fill_random(a, 77);
  a(0, 0) = 3.0;
  Matrix f = a;
  (void)householder("householder.f", f);
  EXPECT_LT(f(0, 0), 0.0);
}

TEST(Householder, ZeroColumnGetsZeroTau) {
  Matrix a(6, 3);
  fill_random(a, 78);
  for (std::size_t i = 1; i < 6; ++i) a(i, 0) = 0.0;  // already reduced
  Matrix f = a;
  const std::vector<double> tau = householder("householder.f", f);
  EXPECT_EQ(tau[0], 0.0);
  EXPECT_EQ(f(0, 0), a(0, 0));
}

}  // namespace
}  // namespace blk::kernels
