#include "analysis/depgraph.hpp"

#include <algorithm>
#include <functional>

#include "ir/error.hpp"

namespace blk::analysis {

using namespace blk::ir;

DepGraph::DepGraph(ir::StmtList& root, ir::Loop& loop,
                   const Assumptions* ctx) {
  for (auto& s : loop.body) nodes_.push_back(s.get());
  // The top-level child of `loop` that is or contains `target`.
  auto owner_node = [&](const Stmt* target) {
    auto it = std::ranges::find_if(
        nodes_, [&](const Stmt* n) { return contains(*n, target); });
    return static_cast<std::size_t>(it - nodes_.begin());
  };

  for (auto& d : dependences_within(root, loop, ctx)) {
    // `loop` is a common enclosing loop, so its level agrees on both ends.
    const auto lvl = static_cast<std::size_t>(
        std::ranges::find(d.src.loops, &loop) - d.src.loops.begin());
    bool carried = d.carried_at(lvl);
    // Loop-independent at this level: vectors that are EQ through `lvl`
    // (deeper entries may differ — they are inside the node subtrees).
    bool independent = false;
    for (const auto& v : d.vectors) {
      bool eq_through = true;
      for (std::size_t i = 0; i <= lvl && i < v.size(); ++i)
        eq_through = eq_through && v[i] == Dir::EQ;
      if (eq_through) independent = true;
    }
    if (d.vectors.empty()) independent = true;  // depth-0 edge
    if (!carried && !independent) continue;

    std::size_t from = owner_node(d.src.owner);
    std::size_t to = owner_node(d.dst.owner);
    if (from >= nodes_.size() || to >= nodes_.size())
      throw Error("DepGraph: dependence endpoint outside loop body");
    if (from == to && !carried) continue;  // intra-node, handled within
    edges_.push_back(
        {.from = from, .to = to, .dep = std::move(d), .carried = carried});
  }
  compute_sccs();
}

void DepGraph::compute_sccs() {
  // Tarjan's algorithm; components are emitted in reverse topological
  // order, so we reverse at the end.
  std::size_t n = nodes_.size();
  std::vector<std::vector<std::size_t>> adj(n);
  for (const auto& e : edges_) adj[e.from].push_back(e.to);

  std::vector<long> index(n, -1), low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::size_t> stack;
  long next_index = 0;

  std::function<void(std::size_t)> strongconnect = [&](std::size_t v) {
    index[v] = low[v] = next_index++;
    stack.push_back(v);
    on_stack[v] = true;
    for (std::size_t w : adj[v]) {
      if (index[w] < 0) {
        strongconnect(w);
        low[v] = std::min(low[v], low[w]);
      } else if (on_stack[w]) {
        low[v] = std::min(low[v], index[w]);
      }
    }
    if (low[v] == index[v]) {
      std::vector<std::size_t> comp;
      for (;;) {
        std::size_t w = stack.back();
        stack.pop_back();
        on_stack[w] = false;
        comp.push_back(w);
        if (w == v) break;
      }
      std::sort(comp.begin(), comp.end());
      sccs_.push_back(std::move(comp));
    }
  };
  for (std::size_t v = 0; v < n; ++v)
    if (index[v] < 0) strongconnect(v);
  std::reverse(sccs_.begin(), sccs_.end());
  for (std::size_t c = 0; c < sccs_.size(); ++c)
    for (std::size_t v : sccs_[c]) comp_of_[v] = c;
}

std::vector<std::vector<std::size_t>> DepGraph::components(
    const EdgeFilter& ignore) const {
  if (!ignore) return sccs_;
  // Kosaraju over the filtered edge set; components are discovered in
  // topological order of the condensation.
  std::size_t n = nodes_.size();
  std::vector<std::vector<std::size_t>> adj(n), radj(n);
  for (const auto& e : edges_) {
    if (ignore(e)) continue;
    adj[e.from].push_back(e.to);
    radj[e.to].push_back(e.from);
  }
  std::vector<bool> seen(n, false);
  std::vector<std::size_t> order;
  std::function<void(std::size_t)> dfs1 = [&](std::size_t v) {
    seen[v] = true;
    for (std::size_t w : adj[v])
      if (!seen[w]) dfs1(w);
    order.push_back(v);
  };
  for (std::size_t v = 0; v < n; ++v)
    if (!seen[v]) dfs1(v);
  std::vector<long> comp(n, -1);
  long nc = 0;
  std::function<void(std::size_t)> dfs2 = [&](std::size_t v) {
    comp[v] = nc;
    for (std::size_t w : radj[v])
      if (comp[w] < 0) dfs2(w);
  };
  for (auto it = order.rbegin(); it != order.rend(); ++it)
    if (comp[*it] < 0) {
      dfs2(*it);
      ++nc;
    }
  std::vector<std::vector<std::size_t>> groups(
      static_cast<std::size_t>(nc));
  for (std::size_t v = 0; v < n; ++v)
    groups[static_cast<std::size_t>(comp[v])].push_back(v);
  for (auto& g : groups) std::sort(g.begin(), g.end());
  return groups;
}

bool DepGraph::has_recurrence() const {
  // Carried self-edges on a single node never prevent distribution (the
  // node stays whole), so only multi-node components count.
  for (const auto& c : sccs_)
    if (c.size() > 1) return true;
  return false;
}

std::vector<DepGraph::Edge> DepGraph::recurrence_edges() const {
  std::vector<Edge> out;
  for (const auto& e : edges_) {
    if (e.from == e.to) continue;
    if (comp_of_.at(e.from) == comp_of_.at(e.to)) out.push_back(e);
  }
  return out;
}

}  // namespace blk::analysis
