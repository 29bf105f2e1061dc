// Array-reference collection.
//
// Analyses work over a flat list of array references, each annotated with
// its owning assignment and the chain of loops enclosing it.  Loops are
// identified by pointer (names may repeat after distribution).
#pragma once

#include <set>
#include <string>
#include <vector>

#include "ir/program.hpp"

namespace blk::analysis {

/// One memory reference occurrence inside a statement tree.  Scalars are
/// modelled as rank-0 references (empty `subs`): every pair of accesses to
/// the same scalar conflicts, which is exactly the conservative behaviour
/// loop distribution needs before scalar expansion.
struct RefInfo {
  ir::Assign* stmt = nullptr;  ///< owning assignment (null for IF reads)
  ir::Stmt* owner = nullptr;   ///< owning statement (Assign or If), never null
  bool is_write = false;
  std::string array;           ///< array or scalar name
  std::vector<ir::IExprPtr> subs;  ///< empty for scalars
  std::vector<ir::Loop*> loops;    ///< enclosing loops, outermost first
  int textual_pos = 0;             ///< pre-order statement index

  [[nodiscard]] bool is_scalar() const { return subs.empty(); }

  /// Depth of the innermost common loop shared with `other` (count of
  /// common loops, comparing by pointer).
  [[nodiscard]] std::size_t common_depth(const RefInfo& other) const;
};

/// Collect every memory reference in `body`: assign targets, assign RHS
/// reads, IF-condition reads, and index-position reads — a free variable
/// inside a subscript or loop bound that no enclosing loop binds is a
/// runtime scalar read (the pivot row IMAX, IF-inspection's KC), and an
/// ArrayElem bound (KLB(KN)) is an array read.  Symbolic parameters are
/// swept up by the same rule; being read-only they never induce edges.
[[nodiscard]] std::vector<RefInfo> collect_refs(ir::StmtList& body);

/// Scalars that are private per iteration of a loop with this `body`:
/// their first textual access is an unconditional write (def-before-use),
/// so any loop-carried dependence through them is an artifact of register
/// reuse, not a value flow.  Reordering transformations may disregard
/// dependences on these names (each iteration can use its own copy).
[[nodiscard]] std::set<std::string> privatizable_scalars(ir::StmtList& body);

/// Scalars a reordering of `loop` (interchange, unroll-and-jam) may treat
/// as private to each iteration: privatizable_scalars of `loop`'s body or
/// of a loop nested in it, kept only when every reference under `root`
/// lies inside `loop` and inside a loop body that defines the scalar
/// before using it.  A reference outside `loop` would observe the
/// reordered last value; one outside every defining body would read a
/// value carried in from an earlier iteration.
[[nodiscard]] std::set<std::string> private_scalars(ir::StmtList& root,
                                                    ir::Loop& loop);

}  // namespace blk::analysis
