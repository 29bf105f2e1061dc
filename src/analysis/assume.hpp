// Symbolic assumption context.
//
// Blocking decisions routinely need facts like "K+KS-1 <= N-1 inside a full
// block" or "KK >= K" that follow from loop bounds or from a driver's
// declared intent.  `Assumptions` stores affine facts of the form  f >= 0
// and answers conservative queries: a `false` answer means "not provable",
// never "provably false".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/affine.hpp"
#include "ir/stmt.hpp"

namespace blk::analysis {

class Assumptions {
 public:
  /// Assert that `f` >= 0.
  void assert_nonneg(ir::Affine f);
  /// Assert a >= b, i.e. (a - b) >= 0.  Non-affine differences (MIN/MAX)
  /// are kept as raw expression facts and case-split during proofs.
  void assert_ge(const ir::IExprPtr& a, const ir::IExprPtr& b);
  /// Assert a <= b.
  void assert_le(const ir::IExprPtr& a, const ir::IExprPtr& b);

  /// Add lb <= var <= ub facts for a loop.  MIN/MAX bounds decompose:
  /// var <= MIN(a,b) contributes var <= a and var <= b; var >= MAX(a,b)
  /// contributes var >= a and var >= b.  `rename` optionally substitutes
  /// variable names in the recorded facts (used by the dependence tester to
  /// keep source and sink loop instances apart).
  void add_loop_range(const ir::Loop& loop);
  void add_loop_range(const std::string& var, const ir::IExprPtr& lb,
                      const ir::IExprPtr& ub);
  /// Like the (var, lb, ub) overload but step-aware: a provably negative
  /// constant `step` swaps the bounds (descending loops count ub..lb), any
  /// other step is treated as ascending.  Use wherever the loop header may
  /// have been reversed.
  void add_loop_range(const std::string& var, const ir::IExprPtr& lb,
                      const ir::IExprPtr& ub, const ir::IExprPtr& step);

  /// Provably f >= 0?  Proof search: constant sign; or f - F_i [- F_j
  /// [- F_k]] is a non-negative constant for asserted facts i <= j <= k (a
  /// fact may repeat; a constant partial residue ends its branch).  Facts
  /// are indexed by a hash of their linear part, so for n facts the search
  /// costs O(n^2 log n) hash lookups plus one exact subtraction per hit,
  /// not O(n^3) subtractions; a bitmap over the hashes' low bits answers
  /// most lookups that miss in O(1).
  [[nodiscard]] bool nonneg(const ir::Affine& f) const;

  /// Provably e >= 0 for a general index expression.  MIN/MAX nodes are
  /// eliminated by case splitting (MIN(a,b) equals a or b pointwise, so
  /// proving both substitutions proves the original), then the affine
  /// fact search runs on each case.
  [[nodiscard]] bool nonneg_expr(const ir::IExprPtr& e) const;

  /// Provably a >= b / a <= b / a == b.  MIN/MAX handled via nonneg_expr.
  [[nodiscard]] bool ge(const ir::IExprPtr& a, const ir::IExprPtr& b) const;
  [[nodiscard]] bool le(const ir::IExprPtr& a, const ir::IExprPtr& b) const;
  [[nodiscard]] bool eq(const ir::IExprPtr& a, const ir::IExprPtr& b) const;

  /// Rewrite `e` resolving every MIN/MAX whose winner is provable under
  /// this context (e.g. MIN(K+KS-1, N-1) -> K+KS-1 given K+KS <= N).
  [[nodiscard]] ir::IExprPtr resolve_minmax(const ir::IExprPtr& e) const;

  [[nodiscard]] std::size_t fact_count() const { return facts_.size(); }

  /// Append a structural encoding of the facts, in order — the affine
  /// facts, then the raw MIN/MAX facts — to `out`.  Contexts with equal
  /// fingerprints answer every query alike; the pair memo
  /// (analysis/manager.hpp) keys contexts by it.
  void fingerprint(std::string& out) const;

 private:
  std::vector<ir::Affine> facts_;      ///< each fact f means f >= 0
  std::vector<std::uint64_t> hashes_;  ///< hash of each fact's linear part
  std::vector<ir::IExprPtr> raw_facts_;  ///< non-affine facts, each >= 0

  /// Case-split every MIN/MAX in goal and facts, then run the affine
  /// linear-combination search on each branch.  exprs[0] is the goal.
  [[nodiscard]] bool split_and_prove(std::vector<ir::IExprPtr> exprs,
                                     int budget) const;
  [[nodiscard]] bool nonneg_with(const ir::Affine& f,
                                 const std::vector<ir::Affine>& extra) const;
};

/// Append a prefix-free structural encoding of `e` — every node's kind,
/// constant, name and children, a null tree as one tag — to `out`.  Unlike
/// ir::to_string it keeps the tree's shape: MIN(MIN(a,b),c) and
/// MIN(a,MIN(b,c)) print alike but encode differently, and the prover's
/// case split can tell them apart.
void append_structure(std::string& out, const ir::IExpr* e);

}  // namespace blk::analysis
