// IF-inspection (§4): an inspector/executor transformation that records, at
// run time, the ranges of an outer loop for which a guard holds, then runs
// the guarded work over just those ranges — keeping the guard out of the
// innermost loop so unroll-and-jam stays legal and profitable.
#pragma once

#include "ir/program.hpp"

namespace blk::transform {

/// Result handles after IF-inspection.
struct IfInspectResult {
  ir::Loop* inspector = nullptr;  ///< the loop that records ranges
  ir::Loop* range_loop = nullptr; ///< DO KN = 1, KC over recorded ranges
  ir::Loop* executor = nullptr;   ///< DO K = MAX(KLB(KN),lb), ... work loop
};

/// Transform
///
///   DO K = lb, ub
///     IF (cond) THEN
///       <work>
///
/// into the paper's Fig. 4 shape:
///
///   KC = 0 ; FLAG = false
///   DO K = lb, ub                 ! inspector
///     IF (cond) THEN
///       IF (.NOT. FLAG) THEN  KC = KC+1 ; KLB(KC) = K ; FLAG = .TRUE.
///     ELSE
///       IF (FLAG) THEN  KUB(KC) = K-1 ; FLAG = .FALSE.
///   IF (FLAG) THEN  KUB(KC) = ub ; FLAG = .FALSE.
///   DO KN = 1, KC                 ! executor
///     DO K = MAX(KLB(KN),lb), MIN(KUB(KN),ub)
///       <work>
///
/// `loop`'s body must be exactly one IF with no ELSE branch.  The guard
/// condition must not be affected by <work> (the transformation checks that
/// no array or scalar read by the condition is written by the body).  KLB,
/// KUB, KC and FLAG are created fresh; the integer-valued scalars are legal
/// subscripts for the interpreter.  `max_ranges` dimensions the KLB/KUB
/// arrays (defaults to the loop trip count bound).
IfInspectResult if_inspect(ir::Program& p, ir::StmtList& root,
                           ir::Loop& loop);

/// IF-inspection with automatic preparation — the §5.4 Givens recipe:
///
///   1. every scalar written in the guarded prefix and read by the work
///      loop is scalar-expanded over `loop` (C, S -> CX(J), SX(J));
///   2. while a dependence carried by `loop` still runs from the work back
///      into the guard region, the offending reference's inner loop is
///      index-set split at the section boundary (the K = L split of
///      Fig. 10), confining the recurrence to the retained piece;
///   3. plain if_inspect runs on the prepared loop.
///
/// Throws blk::Error when preparation cannot reach a legal state.
IfInspectResult if_inspect_auto(ir::Program& p, ir::StmtList& root,
                                ir::Loop& loop);

}  // namespace blk::transform
