// Data-dependence testing.
//
// Implements the classical subscript tests (ZIV, strong SIV, GCD for the
// multi-variable case) over affine subscripts with symbolic parameters, and
// summarizes each statement pair's dependences as sets of direction vectors
// over their common loops — the abstraction the paper's transformations
// consume (interchange and distribution legality, recurrence detection).
//
// Results are conservative: when a subscript pair cannot be analyzed the
// tester assumes all directions, never fewer.
#pragma once

#include <optional>
#include <vector>

#include "analysis/assume.hpp"
#include "analysis/refs.hpp"

namespace blk::analysis {

enum class DepType : std::uint8_t { Flow, Anti, Output, Input };

/// Direction of (dst iteration - src iteration) for one common loop.
enum class Dir : std::uint8_t { LT, EQ, GT };

/// One direction vector over the common loops (outermost first).
using DirVec = std::vector<Dir>;

/// A dependence edge from `src` to `dst` (source executes first).
struct Dependence {
  RefInfo src;
  RefInfo dst;
  DepType type = DepType::Flow;
  /// Feasible direction vectors; every vector is lexicographically
  /// non-negative (the source really does execute first).
  std::vector<DirVec> vectors;

  /// Number of common loops the vectors range over.
  [[nodiscard]] std::size_t depth() const {
    return vectors.empty() ? 0 : vectors.front().size();
  }
  /// True if some vector's first non-EQ entry is at `level` (0-based from
  /// the outermost common loop) — i.e. the dependence may be carried there.
  [[nodiscard]] bool carried_at(std::size_t level) const;
  /// True if the all-EQ vector is feasible (loop-independent dependence).
  [[nodiscard]] bool loop_independent() const;
  /// The unique distance at `level` when every vector agrees, else nullopt.
  /// Only meaningful when the subscript test produced an exact distance.
  [[nodiscard]] std::optional<long> distance_at(std::size_t level) const;

  [[nodiscard]] std::string to_string() const;

  /// Exact distances recorded by strong-SIV tests (index = level; nullopt
  /// where unknown).
  std::vector<std::optional<long>> distances;
};

/// One edge of a reference pair's outcome, relative to the pair (a, b): it
/// runs a -> b, or b -> a when `reversed`.  The pair memo
/// (analysis/manager.hpp) stores these and rebuilds each caller's
/// Dependences from the caller's own references.
struct PairEdge {
  bool reversed = false;
  DepType type = DepType::Flow;
  std::vector<DirVec> vectors;
  std::vector<std::optional<long>> distances;
};

/// All flow, anti and output dependences among the memory references in
/// `body`; `ctx` adds symbolic facts to the direction-vector screen.
[[nodiscard]] std::vector<Dependence> all_dependences(
    ir::StmtList& body, const Assumptions* ctx = nullptr);

/// All dependences among `refs`, a subsequence of collect_refs' output.
/// Under an installed AnalysisManager each pair is answered by its pair
/// memo; with none, every pair is tested.
[[nodiscard]] std::vector<Dependence> all_dependences(
    const std::vector<RefInfo>& refs, const Assumptions* ctx = nullptr);

/// The dependences among the references inside `loop`: the references are
/// collected from `root`, so each keeps its full loop chain, and only those
/// whose chain contains `loop` are tested.  The result is the ordered
/// subsequence of all_dependences(root, ctx) whose endpoints both lie in
/// `loop`, without testing the pairs outside it.
[[nodiscard]] std::vector<Dependence> dependences_within(
    ir::StmtList& root, const ir::Loop& loop,
    const Assumptions* ctx = nullptr);

/// Dependences between one ordered occurrence pair (`a` textually first).
/// May return zero, one (a->b), or two (a->b and reversed b->a) edges.
/// Candidate direction vectors are screened with a Banerjee-style proof
/// under loop-range facts plus any caller-supplied `ctx` facts: for each
/// vector, if the subscript difference is provably nonzero in some
/// dimension, the vector is infeasible.  The facts every vector shares
/// (`ctx` and the source loops' ranges) are built once per pair, and a
/// vector proves each distinct affine goal once.  Throws blk::Error when
/// the pair has more than 3^8 candidate vectors (a deeper nest than the
/// screen handles in bounded time and memory).
[[nodiscard]] std::vector<Dependence> test_pair(
    const RefInfo& a, const RefInfo& b, const Assumptions* ctx = nullptr);

/// test_pair's outcome relative to the pair, and the Dependences it makes
/// between `a` and `b`: test_pair(a, b, ctx) is
/// pair_dependences(a, b, pair_edges(a, b, ctx)).
[[nodiscard]] std::vector<PairEdge> pair_edges(
    const RefInfo& a, const RefInfo& b, const Assumptions* ctx = nullptr);
[[nodiscard]] std::vector<Dependence> pair_dependences(
    const RefInfo& a, const RefInfo& b, std::vector<PairEdge> edges);

[[nodiscard]] const char* to_string(DepType t);
[[nodiscard]] char to_char(Dir d);

}  // namespace blk::analysis
