#include "transform/pattern.hpp"

#include <algorithm>

#include "ir/error.hpp"

namespace blk::transform {

using namespace blk::ir;

std::optional<RowSwapPattern> match_row_swap(const Loop& loop) {
  if (loop.body.size() != 3) return std::nullopt;
  for (const auto& s : loop.body)
    if (s->kind() != SKind::Assign) return std::nullopt;

  const Assign& save = loop.body[0]->as_assign();    // TAU = A(r1,J)
  const Assign& move = loop.body[1]->as_assign();    // A(r1,J) = A(r2,J)
  const Assign& restore = loop.body[2]->as_assign(); // A(r2,J) = TAU

  // TAU = A(r1, J)
  if (save.lhs.is_array()) return std::nullopt;
  if (save.rhs->kind != VKind::ArrayRef || save.rhs->subs.size() != 2)
    return std::nullopt;
  const std::string& tau = save.lhs.name;
  const std::string& arr = save.rhs->name;
  IExprPtr r1 = save.rhs->subs[0];

  // A(r1, J) = A(r2, J)
  if (!move.lhs.is_array() || move.lhs.name != arr ||
      move.lhs.subs.size() != 2)
    return std::nullopt;
  if (move.rhs->kind != VKind::ArrayRef || move.rhs->name != arr ||
      move.rhs->subs.size() != 2)
    return std::nullopt;
  if (!provably_equal(move.lhs.subs[0], r1)) return std::nullopt;
  IExprPtr r2 = move.rhs->subs[0];

  // A(r2, J) = TAU
  if (!restore.lhs.is_array() || restore.lhs.name != arr ||
      restore.lhs.subs.size() != 2)
    return std::nullopt;
  if (!provably_equal(restore.lhs.subs[0], r2)) return std::nullopt;
  if (restore.rhs->kind != VKind::ScalarRef || restore.rhs->name != tau)
    return std::nullopt;

  // Column subscripts must all be exactly the loop variable, and the row
  // indices must be invariant in it.
  auto is_loop_var = [&](const IExprPtr& e) {
    return e->kind == IKind::Var && e->name == loop.var;
  };
  if (!is_loop_var(save.rhs->subs[1]) || !is_loop_var(move.lhs.subs[1]) ||
      !is_loop_var(move.rhs->subs[1]) || !is_loop_var(restore.lhs.subs[1]))
    return std::nullopt;
  if (mentions(*r1, loop.var) || mentions(*r2, loop.var))
    return std::nullopt;

  return RowSwapPattern{.loop = &loop,
                        .array = arr,
                        .row1 = std::move(r1),
                        .row2 = std::move(r2),
                        .col_var = loop.var};
}

namespace {

/// The row subscript variable of the write, for checking reads.
bool reads_are_columnwise(const VExprPtr& e, const std::string& array,
                          const IExprPtr& row_sub) {
  switch (e->kind) {
    case VKind::Const:
    case VKind::ScalarRef:
    case VKind::IndexVal:
      return true;
    case VKind::ArrayRef: {
      if (e->name != array) return true;
      if (e->subs.size() != 2) return false;
      // Allowed reads: same row as the write (A(i, *)), or a row index
      // invariant in the write's row variable (the pivot row A(k, *)).
      if (provably_equal(e->subs[0], row_sub)) return true;
      std::vector<std::string> rv = free_vars(row_sub);
      for (const auto& v : rv)
        if (mentions(*e->subs[0], v)) return false;
      return true;
    }
    case VKind::Bin:
      return reads_are_columnwise(e->lhs, array, row_sub) &&
             reads_are_columnwise(e->rhs, array, row_sub);
    case VKind::Un:
      return reads_are_columnwise(e->lhs, array, row_sub);
  }
  return false;
}

}  // namespace

bool is_column_update(const Stmt& stmt, const std::string& array) {
  switch (stmt.kind()) {
    case SKind::Assign: {
      const Assign& a = stmt.as_assign();
      if (!a.lhs.is_array()) return false;
      if (a.lhs.name != array || a.lhs.subs.size() != 2) return false;
      return reads_are_columnwise(a.rhs, array, a.lhs.subs[0]);
    }
    case SKind::Loop: {
      const Loop& l = stmt.as_loop();
      return std::all_of(l.body.begin(), l.body.end(),
                         [&](const StmtPtr& s) {
                           return is_column_update(*s, array);
                         });
    }
    case SKind::If:
      return false;
  }
  return false;
}

IgnoreEdge commutativity_filter(const Loop& carrier) {
  // Pre-scan the carrier body: find row-swap loops and column-update nodes.
  struct Match {
    const Stmt* node;
    bool is_swap;
    std::string array;
  };
  std::vector<Match> matches;
  for (const auto& s : carrier.body) {
    if (s->kind() == SKind::Loop) {
      if (auto swap = match_row_swap(s->as_loop())) {
        matches.push_back(
            {.node = s.get(), .is_swap = true, .array = swap->array});
        continue;
      }
    }
  }
  // For every array named by a swap, classify the other nodes.
  for (const auto& s : carrier.body) {
    bool already = std::any_of(matches.begin(), matches.end(),
                               [&](const Match& m) {
                                 return m.node == s.get() && m.is_swap;
                               });
    if (already) continue;
    for (const auto& m : std::vector<Match>(matches)) {
      if (!m.is_swap) continue;
      if (is_column_update(*s, m.array))
        matches.push_back(
            {.node = s.get(), .is_swap = false, .array = m.array});
    }
  }

  return [matches](const analysis::DepGraph::Edge& e) -> bool {
    if (!e.dep.src.owner || !e.dep.dst.owner) return false;
    const Match* src_match = nullptr;
    const Match* dst_match = nullptr;
    for (const auto& m : matches) {
      if (contains(*m.node, e.dep.src.owner)) src_match = &m;
      if (contains(*m.node, e.dep.dst.owner)) dst_match = &m;
    }
    if (!src_match || !dst_match) return false;
    if (src_match->array != dst_match->array) return false;
    // Ignorable exactly when one endpoint is the row swap and the other a
    // whole-column update on the same array.
    return src_match->is_swap != dst_match->is_swap;
  };
}

}  // namespace blk::transform
