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

void matmul_uj_ifinspect(const Matrix& a, const Matrix& b, Matrix& c) {
  constexpr std::size_t uf = 4;
  const std::size_t n = a.rows();
  std::vector<std::size_t> klb(n + 1), kub(n + 1);
  for (std::size_t j = 0; j < n; ++j) {
    // Inspector: record the maximal runs of nonzero B(K,J).
    std::size_t kc = 0;
    bool open = false;
    for (std::size_t k = 0; k < n; ++k) {
      if (b(k, j) != 0.0) {
        if (!open) {
          klb[kc] = k;
          open = true;
        }
      } else if (open) {
        kub[kc++] = k - 1;
        open = false;
      }
    }
    if (open) kub[kc++] = n - 1;

    // Executor: unroll-and-jam K inside each range, guard-free.
    double* cj = c.col(j);
    for (std::size_t r = 0; r < kc; ++r) {
      std::size_t k = klb[r];
      const std::size_t hi = kub[r];
      for (; k + uf <= hi + 1; k += uf) {
        const double b0 = b(k, j), b1 = b(k + 1, j), b2 = b(k + 2, j),
                     b3 = b(k + 3, j);
        const double* a0 = a.col(k);
        const double* a1 = a.col(k + 1);
        const double* a2 = a.col(k + 2);
        const double* a3 = a.col(k + 3);
        for (std::size_t i = 0; i < n; ++i)
          cj[i] += a0[i] * b0 + a1[i] * b1 + a2[i] * b2 + a3[i] * b3;
      }
      for (; k <= hi; ++k) {
        const double bkj = b(k, j);
        const double* ak = a.col(k);
        for (std::size_t i = 0; i < n; ++i) cj[i] += ak[i] * bkj;
      }
    }
  }
}

}  // namespace blk::kernels
