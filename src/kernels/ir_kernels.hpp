// The paper's kernels expressed as IR programs.
//
// These are the machine-independent "point algorithms" the study starts
// from; the transformation engine derives the block forms from them.  The
// block algorithms it cannot derive (Sorensen's LU "1", compact-WY
// Householder QR) are §6 BLOCK DO programs in tools/examples/.  Each
// factory returns a fresh Program (callers own it and may mutate freely).
#pragma once

#include "ir/program.hpp"

namespace blk::kernels {

/// §2.3's running example:
///   DO J = 1,N / DO I = 1,M / A(I) = A(I) + B(J)
[[nodiscard]] ir::Program sum_example_ir();

/// §3.3's partial-recurrence example (strip-mined in the paper's text, here
/// in its original point form):
///   DO I = 1,N
///     T(I) = A(I)
///     DO K = I,N
///       A(K) = A(K) + T(I)
[[nodiscard]] ir::Program partial_recurrence_ir();

/// §3.2 adjoint convolution of two time series:
///   DO I = 0,N3 / DO K = I,MIN(I+N2,N1) / F3(I) += DT*F1(K)*F2(I-K)
/// Parameters N1, N2, N3; F2 is dimensioned (-N2:0) as the adjoint filter.
[[nodiscard]] ir::Program aconv_ir();

/// §3.2 convolution:
///   DO I = 0,N3 / DO K = MAX(0,I-N2),MIN(I,N1) / F3(I) += DT*F1(K)*F2(I-K)
/// F2 dimensioned (0:N2).
[[nodiscard]] ir::Program conv_ir();

/// §4 guarded matrix multiply (the SGEMM inner kernel):
///   DO J=1,N / DO K=1,N / IF (B(K,J).NE.0) THEN / DO I=1,N
///     C(I,J) = C(I,J) + A(I,K)*B(K,J)
[[nodiscard]] ir::Program matmul_guarded_ir();

/// §5.1 LU decomposition without pivoting, point algorithm (statement
/// labels 20 = column scale, 10 = update, matching the paper):
///   DO K = 1,N-1
///     DO I = K+1,N
///       A(I,K) = A(I,K)/A(K,K)                      ! 20
///     DO J = K+1,N / DO I = K+1,N
///       A(I,J) = A(I,J) - A(I,K)*A(K,J)             ! 10
[[nodiscard]] ir::Program lu_point_ir();

/// §5.2 LU decomposition with partial pivoting (Fig. 7).  The pivot search
/// writes the integer scalar IMAX; the row-interchange loop is statements
/// 25/30; the elimination is the same 20/10 pair as lu_point_ir.
[[nodiscard]] ir::Program lu_pivot_point_ir();

/// §5.4 QR decomposition with Givens rotations (Fig. 9).
[[nodiscard]] ir::Program givens_qr_ir();

/// §14 wavefront stencil: a Gauss-Seidel-style 2-D sweep whose loop-carried
/// dependences (A(I-1,J) and A(I,J-1)) serialize both loops as written.
/// Skewing J by I and interchanging exposes a parallel inner wavefront:
///   DO I = 1,N / DO J = 1,N / A(I,J) = 0.25*(A(I-1,J) + A(I,J-1))
/// A is dimensioned (0:N,0:N) so the halo reads stay in bounds.
[[nodiscard]] ir::Program stencil2d_ir();

}  // namespace blk::kernels
