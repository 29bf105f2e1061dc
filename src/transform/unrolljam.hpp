// Unroll-and-jam (register blocking), rectangular and triangular (§2.3,
// §3.1).
#pragma once

#include "analysis/assume.hpp"
#include "ir/program.hpp"

namespace blk::transform {

/// Rectangular unroll-and-jam of `loop` by `factor`:
///
///   DO I = lb, ub              DO I = lb, ub-(factor-1), factor
///     <body(I)>           =>     <jam(body(I), ..., body(I+factor-1))>
///                              DO I = <past main part>, ub
///                                <body(I)>          ! remainder pre/post loop
///
/// Jamming merges the unrolled copies position-by-position: assignments
/// concatenate in unroll order; loops whose bounds are provably identical
/// across copies fuse into one loop with concatenated bodies (recursively).
/// Each copy past the first gets its own compiler temporary for every
/// scalar private to the loop's iterations (analysis::private_scalars).
/// Throws blk::Error when the loop body's inner-loop bounds depend on the
/// unrolled variable (use unroll_and_jam_triangular) or when dependences
/// forbid the jam.
void unroll_and_jam(ir::Program& p, ir::Loop& loop, long factor,
                    const analysis::Assumptions* ctx = nullptr,
                    bool check = true);

/// Triangular unroll-and-jam (§3.1) for a 2-deep nest whose unit-step
/// inner loop has one bound tracking I with slope one (J = I+beta) and
/// the other free of I.  Per strip of `factor` iterations of I (the
/// paper's Fig. in §3.1 with alpha = 1), the J range every copy shares is
/// jammed and the ragged part runs one copy at a time (f = factor):
///
///   DO I = lb, ub                DO I = lb, ub-(f-1), f
///     DO J = I+beta, M             DO IT = I, I+f-2
///       <body>              =>       DO J = IT+beta, MIN(I+f-2+beta, M)
///                                      <body(IT)>
///                                  DO J = I+f-1+beta, M
///                                    <body(I) ... body(I+f-1)>
///                                DO I = ..., ub          ! remainder
///
///   DO I = lb, ub                DO I = lb, ub-(f-1), f
///     DO J = L, I+beta             DO J = L, I+beta
///       <body>              =>       <body(I) ... body(I+f-1)>
///                                  DO IT = I+1, I+f-1
///                                    DO J = MAX(L, I+beta+1), IT+beta
///                                      <body(IT)>
///                                DO I = ..., ub          ! remainder
///
/// Every copy still visits its J values in ascending order, so a jam the
/// legality test admits reorders no reduction.
void unroll_and_jam_triangular(ir::Program& p, ir::Loop& loop,
                               long factor,
                               const analysis::Assumptions* ctx = nullptr,
                               bool check = true);

/// Whether `loop` heads the 2-deep shape unroll_and_jam_triangular takes.
[[nodiscard]] bool triangular_nest(const ir::Loop& loop);

/// Legality.  Jamming maps iteration order (k, position) to
/// (position, k-within-strip), so it is an interchange in disguise and is
/// illegal when a dependence carried by `loop`
///   * has a (<,>) pattern against an inner loop, or
///   * runs from a textually later statement back to an earlier one at a
///     carried distance smaller than `factor` (the reordered window).
/// Dependences on private scalars do not count: the jam renames them per
/// copy.
[[nodiscard]] bool unroll_and_jam_legal(ir::StmtList& root, ir::Loop& loop,
                                        long factor,
                                        const analysis::Assumptions* ctx =
                                            nullptr);

}  // namespace blk::transform
