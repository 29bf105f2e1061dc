// §5.1 LU decomposition without pivoting: the paper's four measured
// variants.
//
//   Point - the natural point algorithm (Gaussian elimination).
//   "1"   - the hand-coded block algorithm (Sorensen's version): panel
//           factorization followed by a blocked trailing update.
//   "2"   - the block algorithm the compiler derives (Fig. 6): strip-mined
//           K with the update loop split at the block boundary and the KK
//           loop interchanged innermost in the trailing nest.
//   "2+"  - "2" after trapezoidal unroll-and-jam and scalar replacement.
//
// All variants overwrite A in place with L (unit lower, below the
// diagonal) and U (upper).
#pragma once

#include "kernels/matrix.hpp"

namespace blk::kernels {

/// Point algorithm: DO K / scale column K / rank-1 update.
void lu_point(Matrix& a);

/// Hand-coded block algorithm ("1"): factor the KS-wide panel with the
/// point algorithm, then apply all KS updates to the trailing matrix.
void lu_block_sorensen(Matrix& a, std::size_t ks);

/// Fig. 6 exactly ("2"): the automatically derivable block form.
void lu_block_derived(Matrix& a, std::size_t ks);

/// "2+": Fig. 6 plus unroll-and-jam of the trailing-update J loop (factor
/// 4) and scalar replacement of the A(I,J) accumulators.
void lu_block_opt(Matrix& a, std::size_t ks);

/// ||L*U - A0||_max / n: reconstruction residual against the original
/// matrix (a0), for correctness checks.
[[nodiscard]] double lu_residual(const Matrix& factors, const Matrix& a0);

}  // namespace blk::kernels
