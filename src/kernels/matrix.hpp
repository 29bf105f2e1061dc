// Column-major dense matrix and offset vector, matching the Fortran layout
// every kernel in the paper assumes (stride-one down columns).
#pragma once

#include <cstddef>
#include <random>
#include <span>
#include <vector>

#include "ir/error.hpp"

namespace blk::kernels {

/// Dense column-major matrix of doubles, 0-based.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), d_(rows * cols, 0.0) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  [[nodiscard]] double& operator()(std::size_t i, std::size_t j) {
    return d_[j * rows_ + i];
  }
  [[nodiscard]] double operator()(std::size_t i, std::size_t j) const {
    return d_[j * rows_ + i];
  }

  /// Pointer to the top of column j.
  [[nodiscard]] double* col(std::size_t j) { return d_.data() + j * rows_; }
  [[nodiscard]] const double* col(std::size_t j) const {
    return d_.data() + j * rows_;
  }

  [[nodiscard]] std::span<double> flat() { return d_; }
  [[nodiscard]] std::span<const double> flat() const { return d_; }

  [[nodiscard]] bool operator==(const Matrix&) const = default;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> d_;
};

/// Fill with deterministic uniform values in [lo, hi).
inline void fill_random(Matrix& m, std::uint64_t seed, double lo = -1.0,
                        double hi = 1.0) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(lo, hi);
  for (double& x : m.flat()) x = dist(rng);
}

/// Max |a-b| over all elements; matrices must agree in shape.
inline double max_abs_diff(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols())
    throw Error("max_abs_diff: shape mismatch");
  double m = 0.0;
  auto fa = a.flat();
  auto fb = b.flat();
  for (std::size_t i = 0; i < fa.size(); ++i) {
    double d = fa[i] - fb[i];
    if (d < 0) d = -d;
    if (d > m) m = d;
  }
  return m;
}

/// 1-based signal with an arbitrary (possibly negative) lower index bound:
/// the adjoint-convolution filter F2(-N2:0) needs one.
class Signal {
 public:
  Signal() = default;
  Signal(long lb, long ub) : lb_(lb), d_(static_cast<std::size_t>(ub - lb + 1), 0.0) {}

  [[nodiscard]] long lower() const { return lb_; }
  [[nodiscard]] long upper() const { return lb_ + static_cast<long>(d_.size()) - 1; }
  [[nodiscard]] std::size_t size() const { return d_.size(); }

  [[nodiscard]] double& operator[](long i) {
    return d_[static_cast<std::size_t>(i - lb_)];
  }
  [[nodiscard]] double operator[](long i) const {
    return d_[static_cast<std::size_t>(i - lb_)];
  }

  [[nodiscard]] std::span<double> flat() { return d_; }
  [[nodiscard]] std::span<const double> flat() const { return d_; }

 private:
  long lb_ = 0;
  std::vector<double> d_;
};

inline void fill_random(Signal& s, std::uint64_t seed, double lo = -1.0,
                        double hi = 1.0) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(lo, hi);
  for (double& x : s.flat()) x = dist(rng);
}

}  // namespace blk::kernels
