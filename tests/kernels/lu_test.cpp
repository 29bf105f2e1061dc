// LU (no pivoting) kernel tests: every variant of §5.1's table T3 must
// produce the same factors.
#include <gtest/gtest.h>

#include "kernels/lu.hpp"

namespace blk::kernels {
namespace {

class LuVariants
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(LuVariants, AllVariantsMatchPoint) {
  auto [n, ks] = GetParam();
  Matrix a0 = random_diag_dominant(n, 51);
  Matrix p = a0, s = a0, d = a0, o = a0;
  lu_point(p);
  lu_block_sorensen(s, ks);
  lu_block_derived(d, ks);
  lu_block_opt(o, ks);
  const double tol = 1e-11 * static_cast<double>(n);
  EXPECT_LE(max_abs_diff(p, s), tol) << "sorensen n=" << n << " ks=" << ks;
  EXPECT_LE(max_abs_diff(p, d), tol) << "derived n=" << n << " ks=" << ks;
  EXPECT_LE(max_abs_diff(p, o), tol) << "opt n=" << n << " ks=" << ks;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LuVariants,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{5}, std::size_t{17},
                                         std::size_t{33}, std::size_t{64},
                                         std::size_t{100}),
                       ::testing::Values(std::size_t{1}, std::size_t{4},
                                         std::size_t{8}, std::size_t{32})));

TEST(Lu, ResidualAgainstOriginal) {
  const std::size_t n = 64;
  Matrix a0 = random_diag_dominant(n, 52);
  Matrix f = a0;
  lu_point(f);
  EXPECT_LE(lu_residual(f, a0), 1e-12 * static_cast<double>(n));
  Matrix g = a0;
  lu_block_opt(g, 16);
  EXPECT_LE(lu_residual(g, a0), 1e-12 * static_cast<double>(n));
}

TEST(Lu, KnownTinyFactorization) {
  // [[4,3],[6,3]] = [[1,0],[1.5,1]] * [[4,3],[0,-1.5]]
  Matrix a(2, 2);
  a(0, 0) = 4;
  a(0, 1) = 3;
  a(1, 0) = 6;
  a(1, 1) = 3;
  lu_point(a);
  EXPECT_DOUBLE_EQ(a(1, 0), 1.5);
  EXPECT_DOUBLE_EQ(a(1, 1), -1.5);
  EXPECT_DOUBLE_EQ(a(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 3.0);
}

TEST(Lu, BlockLargerThanMatrix) {
  Matrix a0 = random_diag_dominant(10, 53);
  Matrix p = a0, d = a0;
  lu_point(p);
  lu_block_derived(d, 64);  // one ragged block covers everything
  EXPECT_LE(max_abs_diff(p, d), 1e-12);
}

TEST(Lu, DegenerateSizes) {
  Matrix a1 = random_diag_dominant(1, 54);
  Matrix b1 = a1;
  lu_point(a1);
  lu_block_opt(b1, 4);
  EXPECT_EQ(max_abs_diff(a1, b1), 0.0);

  Matrix a0(0, 0);
  EXPECT_NO_THROW(lu_point(a0));
  EXPECT_NO_THROW(lu_block_derived(a0, 4));
}

TEST(Lu, DerivedMatchesPointBitwiseOnBlockColumns) {
  // The derived form performs the identical operation sequence per
  // element, so the factor columns inside each block agree exactly.
  const std::size_t n = 24, ks = 8;
  Matrix a0 = random_diag_dominant(n, 55);
  Matrix p = a0, d = a0;
  lu_point(p);
  lu_block_derived(d, ks);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(p(i, j), d(i, j)) << i << "," << j;
}

}  // namespace
}  // namespace blk::kernels
