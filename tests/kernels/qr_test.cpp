// QR tests: the Givens programs (§5.4, table T5) — the point algorithm
// givens_qr_ir() and the compiler's Fig. 10 derivation of it, register-
// blocked as bench_paper's T5 "+" row — and the Householder programs
// (§5.3): the point algorithm tools/examples/householder.f and its
// compact-WY BLOCK DO form householder_wy.f, which a compiler cannot
// derive from it (§6).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "kernels/ir_kernels.hpp"
#include "kernels/matrix.hpp"
#include "native/engine.hpp"
#include "pm/runner.hpp"
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

/// Run the program `p` on the M x N matrix `a` in place (M, N bound to its
/// shape).
void run_on(const ir::Program& p, Matrix& a,
            interp::Engine engine = interp::Engine::Vm) {
  interp::ExecEngine e(p,
                       {{"M", static_cast<long>(a.rows())},
                        {"N", static_cast<long>(a.cols())}},
                       engine);
  std::span<double> flat = e.store().arrays.at("A").flat();
  std::ranges::copy(a.flat(), flat.begin());
  e.run();
  std::ranges::copy(flat, a.flat().begin());
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

/// bench_paper's T5 "+" row: Fig. 10 with K unroll-and-jammed by 4 and
/// A(L,K) scalar-replaced across each recorded J range.  Derived once: M
/// and N stay symbolic, so one native compile serves every shape.
const ir::Program& derived_givens() {
  static const ir::Program p = [] {
    ir::Program q = givens_qr_ir();
    (void)pm::run_spec(q,
                       "optgivens; focus(var=K, index=1); registerblock(u=4)");
    return q;
  }();
  return p;
}

bool bitwise_equal(const Matrix& x, const Matrix& y) {
  return std::memcmp(x.flat().data(), y.flat().data(),
                     x.flat().size_bytes()) == 0;
}

class GivensShapes
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(GivensShapes, OptimizedMatchesPoint) {
  auto [m, n] = GetParam();
  Matrix a0(m, n);
  fill_random(a0, 71);
  Matrix p = a0, o = a0;
  run_on(givens_qr_ir(), p);
  run_on(derived_givens(), o);
  // The same rotations in the same order per element: bitwise equal R.
  EXPECT_TRUE(bitwise_equal(o, p)) << "VM, m=" << m << " n=" << n;
  if (native::available()) {
    Matrix nat = a0;
    run_on(derived_givens(), nat, interp::Engine::Native);
    EXPECT_TRUE(bitwise_equal(nat, p)) << "native, m=" << m << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GivensShapes,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{4},
                                         std::size_t{16}, std::size_t{33},
                                         std::size_t{64}),
                       ::testing::Values(std::size_t{1}, std::size_t{4},
                                         std::size_t{16}, std::size_t{32})));

TEST(Givens, ZerosBelowDiagonal) {
  const ir::Program point = givens_qr_ir();
  for (const ir::Program* prog : {&point, &derived_givens()}) {
    Matrix a(20, 12);
    fill_random(a, 72);
    run_on(*prog, a);
    for (std::size_t j = 0; j < a.cols(); ++j)
      for (std::size_t i = j + 1; i < a.rows(); ++i)
        EXPECT_NEAR(a(i, j), 0.0, 1e-12) << i << "," << j;
  }
}

TEST(Givens, PreservesColumnGram) {
  // Orthogonal transforms preserve A^T A; check against the R factor.
  Matrix a0(24, 10);
  fill_random(a0, 73);
  Matrix r = a0;
  run_on(derived_givens(), r);
  EXPECT_LE(qr_gram_residual(r, a0), 1e-10);
}

TEST(Givens, SparseColumnSkipsRotations) {
  // Zeros below the diagonal in column 0: the guard must skip them, and
  // the inspector's ranges must cover exactly the rotations that ran.
  Matrix a(16, 8);
  fill_random(a, 74);
  for (std::size_t i = 1; i < 16; i += 2) a(i, 0) = 0.0;
  Matrix b = a;
  run_on(givens_qr_ir(), a);
  run_on(derived_givens(), b);
  EXPECT_TRUE(bitwise_equal(b, a));
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
