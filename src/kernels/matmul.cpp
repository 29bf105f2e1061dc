#include "kernels/matmul.hpp"

#include <algorithm>
#include <random>

namespace blk::kernels {

Matrix make_guard_matrix(std::size_t n, double frequency,
                         std::size_t run_len, std::uint64_t seed) {
  if (run_len == 0) run_len = 1;
  Matrix b(n, n);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const double run_prob = frequency / static_cast<double>(run_len);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = 0; k < n; ++k) {
      if (coin(rng) < run_prob) {
        for (std::size_t r = 0; r < run_len && k < n; ++r, ++k)
          b(k, j) = 1.0;
        --k;  // outer loop increments past the run's last element
      }
    }
  }
  return b;
}

void matmul_guarded(const Matrix& a, const Matrix& b, Matrix& c) {
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = 0; k < n; ++k) {
      const double bkj = b(k, j);
      if (bkj == 0.0) continue;
      const double* ak = a.col(k);
      double* cj = c.col(j);
      for (std::size_t i = 0; i < n; ++i) cj[i] += ak[i] * bkj;
    }
  }
}

void matmul_uj_guard_inside(const Matrix& a, const Matrix& b, Matrix& c) {
  constexpr std::size_t uf = 4;
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double* cj = c.col(j);
    std::size_t k = 0;
    for (; k + uf <= n; k += uf) {
      // The guard must be evaluated per unrolled K inside the I loop:
      // jamming moved the I loop outside the guards (the unsafe-reference
      // problem of §4 solved the slow way).
      for (std::size_t i = 0; i < n; ++i) {
        double s = cj[i];
        for (std::size_t m = 0; m < uf; ++m) {
          const double bkj = b(k + m, j);
          if (bkj != 0.0) s += a(i, k + m) * bkj;
        }
        cj[i] = s;
      }
    }
    for (; k < n; ++k) {
      const double bkj = b(k, j);
      if (bkj == 0.0) continue;
      const double* ak = a.col(k);
      for (std::size_t i = 0; i < n; ++i) cj[i] += ak[i] * bkj;
    }
  }
}

}  // namespace blk::kernels
