// §4 guarded matrix multiply (the SGEMM kernel with a zero-skip guard) in
// two hand forms: the original, a test reference, and naive unroll-and-
// jam with the guard pushed into the innermost loop (the paper's negative
// result, a transformation the compiler refuses).  The positive result,
// IF-inspection + unroll-and-jam, is the compiler's derivation of
// kernels::matmul_guarded_ir().
#pragma once

#include "kernels/matrix.hpp"

namespace blk::kernels {

/// Generate the sparse-ish multiplier B: a `frequency` fraction of entries
/// are nonzero (set to 1.0), laid out in runs of `run_len` consecutive K
/// values per column — IF-inspection's profitability depends on run length
/// (the paper: "if the ranges ... are large").  run_len = 1 gives iid
/// scatter.
[[nodiscard]] Matrix make_guard_matrix(std::size_t n, double frequency,
                                       std::size_t run_len,
                                       std::uint64_t seed);

/// Original (Fig. 4 input): guard tested once per (K,J), inner I loop runs
/// only for nonzero B(K,J).
void matmul_guarded(const Matrix& a, const Matrix& b, Matrix& c);

/// Unroll-and-jam of K by 4 with the guard replicated inside the innermost
/// loop — correct but slow (the paper's "UJ" column).
void matmul_uj_guard_inside(const Matrix& a, const Matrix& b, Matrix& c);

}  // namespace blk::kernels
