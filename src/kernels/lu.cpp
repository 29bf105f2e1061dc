#include "kernels/lu.hpp"

#include <algorithm>

namespace blk::kernels {

void lu_point(Matrix& a) {
  const std::size_t n = a.rows();
  if (n == 0) return;
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const double pivot = a(k, k);
    double* ak = a.col(k);
    for (std::size_t i = k + 1; i < n; ++i) ak[i] /= pivot;
    for (std::size_t j = k + 1; j < n; ++j) {
      const double akj = a(k, j);
      double* aj = a.col(j);
      for (std::size_t i = k + 1; i < n; ++i) aj[i] -= ak[i] * akj;
    }
  }
}

void lu_block_sorensen(Matrix& a, std::size_t ks) {
  const std::size_t n = a.rows();
  if (n == 0) return;
  for (std::size_t kb = 0; kb + 1 < n; kb += ks) {
    const std::size_t ke = std::min(kb + ks - 1, n - 2);
    // Panel factorization: point LU restricted to columns kb..ke.
    for (std::size_t kk = kb; kk <= ke; ++kk) {
      const double pivot = a(kk, kk);
      double* akk = a.col(kk);
      for (std::size_t i = kk + 1; i < n; ++i) akk[i] /= pivot;
      for (std::size_t j = kk + 1; j <= ke; ++j) {
        const double av = a(kk, j);
        double* aj = a.col(j);
        for (std::size_t i = kk + 1; i < n; ++i) aj[i] -= akk[i] * av;
      }
    }
    if (ke + 1 >= n) break;
    // Trailing update, one column at a time: apply the panel's KS delayed
    // eliminations to column j in point order (triangular solve and
    // rank-update fused into one sweep per multiplier column).
    for (std::size_t j = ke + 1; j < n; ++j) {
      double* aj = a.col(j);
      for (std::size_t kk = kb; kk <= ke; ++kk) {
        const double av = aj[kk];
        const double* akk = a.col(kk);
        for (std::size_t i = kk + 1; i < n; ++i) aj[i] -= akk[i] * av;
      }
    }
  }
}

void lu_block_derived(Matrix& a, std::size_t ks) {
  const std::size_t n = a.rows();
  if (n == 0) return;
  // Fig. 6, zero-based.  First nest: the point algorithm confined to the
  // block's columns; second nest: trailing columns with KK innermost.
  for (std::size_t kb = 0; kb + 1 < n; kb += ks) {
    const std::size_t ke = std::min(kb + ks - 1, n - 2);
    for (std::size_t kk = kb; kk <= ke; ++kk) {
      const double pivot = a(kk, kk);
      double* akk = a.col(kk);
      for (std::size_t i = kk + 1; i < n; ++i) akk[i] /= pivot;
      const std::size_t jhi = std::min(kb + ks - 1, n - 1);
      for (std::size_t j = kk + 1; j <= jhi; ++j) {
        const double av = a(kk, j);
        double* aj = a.col(j);
        for (std::size_t i = kk + 1; i < n; ++i) aj[i] -= akk[i] * av;
      }
    }
    for (std::size_t j = kb + ks; j < n; ++j) {
      double* aj = a.col(j);
      for (std::size_t i = kb + 1; i < n; ++i) {
        const std::size_t khi = std::min(ke, i - 1);
        double t = aj[i];
        for (std::size_t kk = kb; kk <= khi; ++kk)
          t -= a(i, kk) * aj[kk];
        aj[i] = t;
      }
    }
  }
}

void lu_block_opt(Matrix& a, std::size_t ks) {
  const std::size_t n = a.rows();
  if (n == 0) return;
  for (std::size_t kb = 0; kb + 1 < n; kb += ks) {
    const std::size_t ke = std::min(kb + ks - 1, n - 2);
    // Panel: identical to the derived block algorithm's first nest.
    for (std::size_t kk = kb; kk <= ke; ++kk) {
      const double pivot = a(kk, kk);
      double* akk = a.col(kk);
      for (std::size_t i = kk + 1; i < n; ++i) akk[i] /= pivot;
      const std::size_t jhi = std::min(kb + ks - 1, n - 1);
      for (std::size_t j = kk + 1; j <= jhi; ++j) {
        const double av = a(kk, j);
        double* aj = a.col(j);
        for (std::size_t i = kk + 1; i < n; ++i) aj[i] -= akk[i] * av;
      }
    }
    // Trailing nest after trapezoidal unroll-and-jam of J (factor 4) and
    // scalar replacement of the A(I,J) accumulators.
    std::size_t j = kb + ks;
    for (; j + 3 < n; j += 4) {
      double* c0 = a.col(j);
      double* c1 = a.col(j + 1);
      double* c2 = a.col(j + 2);
      double* c3 = a.col(j + 3);
      for (std::size_t i = kb + 1; i < n; ++i) {
        const std::size_t khi = std::min(ke, i - 1);
        double t0 = c0[i], t1 = c1[i], t2 = c2[i], t3 = c3[i];
        for (std::size_t kk = kb; kk <= khi; ++kk) {
          const double aik = a(i, kk);
          t0 -= aik * c0[kk];
          t1 -= aik * c1[kk];
          t2 -= aik * c2[kk];
          t3 -= aik * c3[kk];
        }
        c0[i] = t0;
        c1[i] = t1;
        c2[i] = t2;
        c3[i] = t3;
      }
    }
    for (; j < n; ++j) {  // remainder columns
      double* cj = a.col(j);
      for (std::size_t i = kb + 1; i < n; ++i) {
        const std::size_t khi = std::min(ke, i - 1);
        double t = cj[i];
        for (std::size_t kk = kb; kk <= khi; ++kk) t -= a(i, kk) * cj[kk];
        cj[i] = t;
      }
    }
  }
}

double lu_residual(const Matrix& factors, const Matrix& a0) {
  const std::size_t n = factors.rows();
  double worst = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t lim = std::min(i, j);
      double s = 0.0;
      for (std::size_t k = 0; k < lim; ++k)
        s += factors(i, k) * factors(k, j);
      // L(i,i) = 1 contributes U(i,j) when i <= j; otherwise L(i,j)*U(j,j).
      s += (i <= j) ? factors(i, j) : factors(i, j) * factors(j, j);
      const double d = std::abs(s - a0(i, j));
      worst = std::max(worst, d);
    }
  }
  return worst / static_cast<double>(n);
}

}  // namespace blk::kernels
