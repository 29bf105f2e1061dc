// Statement-level dependence graph and recurrence (SCC) detection.
//
// Transformations consult this graph for legality: loop distribution must
// keep each strongly-connected component (recurrence) in one loop and order
// components topologically; interchange must not reverse any dependence;
// Procedure IndexSetSplit starts from the edges that put two statements into
// the same SCC ("transformation-preventing dependences", Fig. 3).
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "analysis/ddtest.hpp"

namespace blk::analysis {

/// Dependence graph over the direct child statements of one loop.
///
/// Nodes are the loop body's top-level statements (an inner loop nest is a
/// single node).  An edge u -> v exists when some dependence runs from a
/// reference inside u to a reference inside v and is either carried by this
/// loop or loop-independent at this level.
class DepGraph {
 public:
  /// Build for `loop` inside `root` (the tree that physically owns it —
  /// needed so references' enclosing-loop chains are complete).  Optional
  /// `ctx` facts sharpen the dependence tester's direction screen.
  DepGraph(ir::StmtList& root, ir::Loop& loop,
           const Assumptions* ctx = nullptr);

  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] ir::Stmt* node(std::size_t i) const { return nodes_[i]; }

  /// Edges as (from-node, to-node, dependence).
  struct Edge {
    std::size_t from;
    std::size_t to;
    Dependence dep;
    bool carried;  ///< carried by this loop (vs. loop-independent inside it)
  };
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }

  /// Strongly connected components in a valid topological order of the
  /// condensation (sources first).  Each component lists node indices.
  [[nodiscard]] const std::vector<std::vector<std::size_t>>& sccs() const {
    return sccs_;
  }

  /// Predicate marking edges to disregard (commutativity knowledge, §5.2).
  using EdgeFilter = std::function<bool(const Edge&)>;

  /// Components over the edge set with `ignore`d edges removed, again in
  /// topological order.  With an empty filter this equals sccs().
  [[nodiscard]] std::vector<std::vector<std::size_t>> components(
      const EdgeFilter& ignore = {}) const;

  /// True when some component contains more than one node or a node with a
  /// carried self-edge — i.e. the loop sustains a recurrence.
  [[nodiscard]] bool has_recurrence() const;

  /// The edges participating in multi-node components (the candidates for
  /// Procedure IndexSetSplit).
  [[nodiscard]] std::vector<Edge> recurrence_edges() const;

 private:
  std::vector<ir::Stmt*> nodes_;
  std::vector<Edge> edges_;
  std::vector<std::vector<std::size_t>> sccs_;
  std::map<std::size_t, std::size_t> comp_of_;

  void compute_sccs();
};

}  // namespace blk::analysis
