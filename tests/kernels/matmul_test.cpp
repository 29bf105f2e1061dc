// Guarded-matmul tests (§4's table T2 subjects): the C++ guarded and
// guard-inside UJ kernels and the compiler's derived UJ+IF program.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "interp/vm.hpp"
#include "kernels/ir_kernels.hpp"
#include "kernels/matmul.hpp"
#include "pm/runner.hpp"

namespace blk::kernels {
namespace {

/// Dense reference: C += A * B.
void reference(const Matrix& a, const Matrix& b, Matrix& c) {
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t k = 0; k < n; ++k)
      for (std::size_t i = 0; i < n; ++i)
        c(i, j) += a(i, k) * b(k, j);
}

/// T2's derived UJ+IF (the spec bench_paper times): IF-inspection of K,
/// then unroll-and-jam of the executor's K loop by 4.
const ir::Program& derived_uj_if() {
  static const ir::Program p = [] {
    ir::Program q = matmul_guarded_ir();
    (void)pm::run_spec(q, "focus(var=K); ifinspect; focus(var=K, index=1); "
                          "unrolljam(u=4)");
    return q;
  }();
  return p;
}

/// C += A * B through the program `p` on the VM.
void run_matmul(const ir::Program& p, const Matrix& a, const Matrix& b,
                Matrix& c) {
  interp::ExecEngine e(p, {{"N", static_cast<long>(a.rows())}});
  auto& arrays = e.store().arrays;
  std::ranges::copy(a.flat(), arrays.at("A").flat().begin());
  std::ranges::copy(b.flat(), arrays.at("B").flat().begin());
  std::ranges::copy(c.flat(), arrays.at("C").flat().begin());
  e.run();
  std::ranges::copy(arrays.at("C").flat(), c.flat().begin());
}

class GuardedMatmul
    : public ::testing::TestWithParam<std::tuple<double, std::size_t>> {};

TEST_P(GuardedMatmul, AllVariantsAgree) {
  auto [freq, run_len] = GetParam();
  const std::size_t n = 48;
  Matrix a(n, n);
  fill_random(a, 11);
  Matrix b = make_guard_matrix(n, freq, run_len, 12);

  Matrix c0(n, n), c1(n, n), c2(n, n), c3(n, n);
  fill_random(c0, 13);
  c1 = c0;
  c2 = c0;
  c3 = c0;

  reference(a, b, c0);
  matmul_guarded(a, b, c1);
  matmul_uj_guard_inside(a, b, c2);
  run_matmul(derived_uj_if(), a, b, c3);

  EXPECT_LE(max_abs_diff(c0, c1), 1e-11);
  EXPECT_LE(max_abs_diff(c0, c2), 1e-11);
  EXPECT_LE(max_abs_diff(c0, c3), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GuardedMatmul,
    ::testing::Combine(::testing::Values(0.0, 0.025, 0.1, 0.5, 1.0),
                       ::testing::Values(std::size_t{1}, std::size_t{8},
                                         std::size_t{32})));

TEST(GuardMatrix, DensityApproximatesFrequency) {
  const std::size_t n = 512;
  for (double freq : {0.025, 0.1, 0.3}) {
    Matrix b = make_guard_matrix(n, freq, 8, 21);
    std::size_t nz = 0;
    for (double x : b.flat())
      if (x != 0.0) ++nz;
    double density = static_cast<double>(nz) / static_cast<double>(n * n);
    EXPECT_NEAR(density, freq, freq * 0.35) << "freq " << freq;
  }
}

TEST(GuardMatrix, RunLengthProducesRuns) {
  const std::size_t n = 256;
  Matrix b = make_guard_matrix(n, 0.2, 8, 22);
  // Count maximal runs; with run_len 8 the average run must be well over 1.
  std::size_t runs = 0, nz = 0;
  for (std::size_t j = 0; j < n; ++j) {
    bool open = false;
    for (std::size_t k = 0; k < n; ++k) {
      if (b(k, j) != 0.0) {
        ++nz;
        if (!open) {
          ++runs;
          open = true;
        }
      } else {
        open = false;
      }
    }
  }
  ASSERT_GT(runs, 0u);
  EXPECT_GT(static_cast<double>(nz) / static_cast<double>(runs), 4.0);
}

TEST(GuardedMatmul, AllZeroGuardDoesNothing) {
  const std::size_t n = 16;
  Matrix a(n, n);
  fill_random(a, 31);
  Matrix b(n, n);  // zero
  Matrix c(n, n);
  fill_random(c, 32);
  Matrix before = c;
  matmul_guarded(a, b, c);
  EXPECT_EQ(max_abs_diff(before, c), 0.0);
  run_matmul(derived_uj_if(), a, b, c);
  EXPECT_EQ(max_abs_diff(before, c), 0.0);
}

TEST(GuardedMatmul, RemainderColumnsHandled) {
  // n not divisible by the unroll factor: K remainder paths execute.
  for (std::size_t n : {5u, 7u, 9u, 13u}) {
    Matrix a(n, n);
    fill_random(a, 41);
    Matrix b = make_guard_matrix(n, 1.0, 1, 42);  // fully dense
    Matrix c0(n, n), c1(n, n);
    reference(a, b, c0);
    run_matmul(derived_uj_if(), a, b, c1);
    EXPECT_LE(max_abs_diff(c0, c1), 1e-12) << n;
  }
}

class DerivedUjIf : public ::testing::TestWithParam<long> {};

TEST_P(DerivedUjIf, BitwiseEqualToGuardedOnTheVm) {
  const long n = GetParam();
  const ir::Program point = matmul_guarded_ir();
  const ir::Program& derived = derived_uj_if();
  for (double density : {0.0, 0.025, 1.0})
    for (std::size_t run_len : {1u, 8u}) {
      const Matrix b = make_guard_matrix(static_cast<std::size_t>(n),
                                         density, run_len, 42);
      auto run = [&](const ir::Program& p) {
        interp::ExecEngine e(p, {{"N", n}});
        interp::seed_store(e.store(), 41);
        std::ranges::copy(b.flat(), e.store().arrays.at("B").flat().begin());
        e.run();
        return std::move(e.store());
      };
      const interp::Store want = run(point), got = run(derived);
      for (const auto& [name, t] : want.arrays) {
        const auto w = t.flat(), g = got.arrays.at(name).flat();
        EXPECT_EQ(std::memcmp(w.data(), g.data(), w.size_bytes()), 0)
            << name << " differs: N " << n << ", density " << density
            << ", run length " << run_len;
      }
    }
}

// 5, 7, 9 and 13 leave K remainders after the jam by 4.
INSTANTIATE_TEST_SUITE_P(Sizes, DerivedUjIf,
                         ::testing::Values(5L, 7L, 9L, 13L, 24L));

}  // namespace
}  // namespace blk::kernels
