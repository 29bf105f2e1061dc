// Dependence-preservation checking (translation validation for reordering
// transformations).
//
// A reordering pass is legal iff every data dependence of the original
// program is respected by the transformed program.  This checker verifies
// that property *independently of the pass that claimed it*: it recomputes
// the statement dependence graph on both the pre- and post-transformation
// IR with the conservative tester (analysis/ddtest) and demands that every
// original non-input dependence either
//   * reappears after the pass with the same type (flow/anti/output)
//     between corresponding statements — the accesses still execute in
//     dependence order; or
//   * is provably gone — the conflicting accesses no longer overlap
//     (index-set splitting can achieve this).
// A dependence whose endpoints still conflict but only in the *reversed*
// order is a broken dependence: the pass reordered two accesses whose
// order carries a value.
//
// Statements are matched across the pass by structural keys (label, target
// and an rhs operator skeleton with subscripts erased), which are invariant
// under every index substitution the reordering passes perform; cloned
// statements (unrolling, splitting) share their original's key, and the
// check works at key-group granularity.  Descending (step -1) loops are
// normalized to ascending form on private clones first — the tester
// assumes ascending loops, and normalization is exactly what makes an
// illegal loop reversal visible.
//
// The paper's §5.2 escape hatch is honoured: dependences between a
// row-interchange loop and whole-column updates on the same array commute
// semantically, and may be reordered even though data dependence alone
// forbids it (that is what blocks pivoted LU).
#pragma once

#include "analysis/assume.hpp"
#include "ir/program.hpp"
#include "verify/diagnostic.hpp"

namespace blk::verify {

struct DepCheckOptions {
  /// Extra symbolic facts for the dependence tester's direction screen
  /// (the same hints handed to the transformation driver).  May be null.
  const analysis::Assumptions* ctx = nullptr;
  /// Honour the §5.2 commutativity whitelist: skip dependences between a
  /// matched row-interchange loop and whole-column updates on its array.
  bool allow_commutative_swaps = true;
};

/// Check that every dependence of `pre` is preserved in `post`.
/// Errors identify the broken dependence, its endpoints and what the
/// post-pass program does instead.  Both programs are cloned internally;
/// neither argument is modified.
[[nodiscard]] Report check_dependence_preservation(
    const ir::Program& pre, const ir::Program& post,
    const DepCheckOptions& opt = {});

/// Structural statement-correspondence key (exposed for tests): assignment
/// label, target name and rhs skeleton with subscripts erased — stable
/// across index substitution, cloning and reordering.
[[nodiscard]] std::string stmt_key(const ir::Stmt& s);

}  // namespace blk::verify
