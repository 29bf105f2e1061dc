#include "kernels/qr_givens.hpp"

#include <algorithm>
#include <cmath>

namespace blk::kernels {

void givens_qr_point(Matrix& a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  for (std::size_t l = 0; l < n; ++l) {
    for (std::size_t j = l + 1; j < m; ++j) {
      if (a(j, l) == 0.0) continue;
      const double den =
          std::sqrt(a(l, l) * a(l, l) + a(j, l) * a(j, l));
      const double c = a(l, l) / den;
      const double s = a(j, l) / den;
      for (std::size_t k = l; k < n; ++k) {
        const double a1 = a(l, k);
        const double a2 = a(j, k);
        a(l, k) = c * a1 + s * a2;   // long-stride row accesses: the
        a(j, k) = -s * a1 + c * a2;  // cache problem of Fig. 9
      }
    }
  }
}

void givens_qr_opt(Matrix& a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  std::vector<double> cs(m), sn(m);
  std::vector<std::size_t> jlb(m), jub(m);
  for (std::size_t l = 0; l < n; ++l) {
    // First distributed loop: generate rotations, apply them to column L
    // only, record the executed J ranges (IF-inspection).
    std::size_t jc = 0;
    bool open = false;
    for (std::size_t j = l + 1; j < m; ++j) {
      if (a(j, l) != 0.0) {
        const double den =
            std::sqrt(a(l, l) * a(l, l) + a(j, l) * a(j, l));
        const double c = a(l, l) / den;
        const double s = a(j, l) / den;
        cs[j] = c;  // scalar expansion of C and S
        sn[j] = s;
        const double a1 = a(l, l);
        const double a2 = a(j, l);
        a(l, l) = c * a1 + s * a2;  // index-set split of K at L: the K = L
        a(j, l) = -s * a1 + c * a2; // iteration runs here
        if (!open) {
          jlb[jc] = j;
          open = true;
        }
      } else if (open) {
        jub[jc++] = j - 1;
        open = false;
      }
    }
    if (open) jub[jc++] = m - 1;
    // No rotation ran: the second loop would only reload and store A(L,K),
    // and for L >= M (more columns than rows) that row does not exist.
    if (jc == 0) continue;

    // Second loop: K outermost, J innermost over the recorded ranges —
    // stride-one down column K, with A(L,K) scalar-replaced across J.
    // K is additionally unroll-and-jammed by 4: each column's rotation
    // chain is serial in J, so jamming runs four independent chains and
    // shares the C(J)/S(J) loads.
    std::size_t k = l + 1;
    for (; k + 3 < n; k += 4) {
      double* k0 = a.col(k);
      double* k1 = a.col(k + 1);
      double* k2 = a.col(k + 2);
      double* k3 = a.col(k + 3);
      double t0 = k0[l], t1 = k1[l], t2 = k2[l], t3 = k3[l];
      for (std::size_t r = 0; r < jc; ++r) {
        const std::size_t hi = jub[r];
        for (std::size_t j = jlb[r]; j <= hi; ++j) {
          const double c = cs[j];
          const double s = sn[j];
          double a2;
          a2 = k0[j]; k0[j] = -s * t0 + c * a2; t0 = c * t0 + s * a2;
          a2 = k1[j]; k1[j] = -s * t1 + c * a2; t1 = c * t1 + s * a2;
          a2 = k2[j]; k2[j] = -s * t2 + c * a2; t2 = c * t2 + s * a2;
          a2 = k3[j]; k3[j] = -s * t3 + c * a2; t3 = c * t3 + s * a2;
        }
      }
      k0[l] = t0;
      k1[l] = t1;
      k2[l] = t2;
      k3[l] = t3;
    }
    for (; k < n; ++k) {
      double* ak = a.col(k);
      double all = ak[l];
      for (std::size_t r = 0; r < jc; ++r) {
        const std::size_t hi = jub[r];
        for (std::size_t j = jlb[r]; j <= hi; ++j) {
          const double a2 = ak[j];
          const double a1 = all;
          all = cs[j] * a1 + sn[j] * a2;
          ak[j] = -sn[j] * a1 + cs[j] * a2;
        }
      }
      ak[l] = all;
    }
  }
}

double givens_residual(const Matrix& r, const Matrix& r_ref) {
  const std::size_t n = r.cols();
  double worst = 0.0;
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i <= j && i < r.rows(); ++i)
      worst = std::max(worst, std::abs(r(i, j) - r_ref(i, j)));
  return worst;
}

}  // namespace blk::kernels
