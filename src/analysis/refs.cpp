#include "analysis/refs.hpp"

#include <algorithm>
#include <map>

namespace blk::analysis {

using namespace blk::ir;

std::size_t RefInfo::common_depth(const RefInfo& other) const {
  std::size_t d = 0;
  while (d < loops.size() && d < other.loops.size() &&
         loops[d] == other.loops[d])
    ++d;
  return d;
}

namespace {

struct Collector {
  std::vector<RefInfo> out;
  std::vector<Loop*> chain;
  int pos = 0;

  [[nodiscard]] bool loop_bound(const std::string& name) const {
    for (const Loop* l : chain)
      if (l->var == name) return true;
    return false;
  }

  /// Reads hiding inside an index expression: free variables are runtime
  /// scalars (or harmless read-only parameters); ArrayElem nodes read an
  /// array element.
  void index_reads(const IExprPtr& e, Assign* owner_assign, Stmt* owner) {
    switch (e->kind) {
      case IKind::Const:
        return;
      case IKind::Var:
        if (!loop_bound(e->name))
          out.push_back({.stmt = owner_assign,
                         .owner = owner,
                         .is_write = false,
                         .array = e->name,
                         .subs = {},
                         .loops = chain,
                         .textual_pos = pos});
        return;
      case IKind::ArrayElem:
        out.push_back({.stmt = owner_assign,
                       .owner = owner,
                       .is_write = false,
                       .array = e->name,
                       .subs = {e->lhs},
                       .loops = chain,
                       .textual_pos = pos});
        index_reads(e->lhs, owner_assign, owner);
        return;
      default:
        index_reads(e->lhs, owner_assign, owner);
        if (e->rhs) index_reads(e->rhs, owner_assign, owner);
        return;
    }
  }

  void vexpr_reads(const VExprPtr& e, Assign* owner_assign, Stmt* owner) {
    switch (e->kind) {
      case VKind::Const:
        return;
      case VKind::IndexVal:
        index_reads(e->index, owner_assign, owner);
        return;
      case VKind::ScalarRef:
        out.push_back({.stmt = owner_assign,
                       .owner = owner,
                       .is_write = false,
                       .array = e->name,
                       .subs = {},
                       .loops = chain,
                       .textual_pos = pos});
        return;
      case VKind::ArrayRef:
        out.push_back({.stmt = owner_assign,
                       .owner = owner,
                       .is_write = false,
                       .array = e->name,
                       .subs = e->subs,
                       .loops = chain,
                       .textual_pos = pos});
        for (const auto& sub : e->subs)
          index_reads(sub, owner_assign, owner);
        return;
      case VKind::Bin:
        vexpr_reads(e->lhs, owner_assign, owner);
        vexpr_reads(e->rhs, owner_assign, owner);
        return;
      case VKind::Un:
        vexpr_reads(e->lhs, owner_assign, owner);
        return;
    }
  }

  void walk(StmtList& body) {
    for (auto& s : body) {
      ++pos;
      switch (s->kind()) {
        case SKind::Assign: {
          Assign& a = s->as_assign();
          vexpr_reads(a.rhs, &a, &a);
          out.push_back({.stmt = &a,
                         .owner = &a,
                         .is_write = true,
                         .array = a.lhs.name,
                         .subs = a.lhs.subs,
                         .loops = chain,
                         .textual_pos = pos});
          for (const auto& sub : a.lhs.subs) index_reads(sub, &a, &a);
          break;
        }
        case SKind::Loop: {
          Loop& l = s->as_loop();
          // Bounds are evaluated in the enclosing scope.
          index_reads(l.lb, nullptr, &l);
          index_reads(l.ub, nullptr, &l);
          index_reads(l.step, nullptr, &l);
          chain.push_back(&l);
          walk(l.body);
          chain.pop_back();
          break;
        }
        case SKind::If: {
          If& f = s->as_if();
          vexpr_reads(f.cond.lhs, nullptr, &f);
          vexpr_reads(f.cond.rhs, nullptr, &f);
          walk(f.then_body);
          walk(f.else_body);
          break;
        }
      }
    }
  }
};

}  // namespace

std::vector<RefInfo> collect_refs(ir::StmtList& body) {
  Collector c;
  c.walk(body);
  return std::move(c.out);
}

std::set<std::string> privatizable_scalars(ir::StmtList& body) {
  std::vector<RefInfo> refs = collect_refs(body);
  // Writes under an IF or inside an inner loop do not dominate the
  // iteration's later reads, so only top-level first-writes qualify.
  std::set<std::string> conditional;
  for (const auto& s : body) {
    if (s->kind() != SKind::Assign) {
      // Any scalar touched inside a nested construct is disqualified
      // (its def may not execute or may interleave with inner reads).
      if (s->kind() == SKind::Loop) {
        for (RefInfo& r :
             collect_refs(s->as_loop().body))
          if (r.is_scalar()) conditional.insert(r.array);
      } else {
        If& f = s->as_if();
        for (RefInfo& r : collect_refs(f.then_body))
          if (r.is_scalar()) conditional.insert(r.array);
        for (RefInfo& r : collect_refs(f.else_body))
          if (r.is_scalar()) conditional.insert(r.array);
      }
    }
  }
  std::set<std::string> out;
  std::set<std::string> decided;
  for (const RefInfo& r : refs) {
    if (!r.is_scalar() || decided.contains(r.array)) continue;
    decided.insert(r.array);
    if (r.is_write && !conditional.contains(r.array)) out.insert(r.array);
  }
  return out;
}

std::set<std::string> private_scalars(ir::StmtList& root, ir::Loop& loop) {
  std::map<const Loop*, std::set<std::string>> defined_first;
  std::set<std::string> out;
  auto note = [&](Loop& l) {
    const auto& names = defined_first[&l] = privatizable_scalars(l.body);
    out.insert(names.begin(), names.end());
  };
  note(loop);
  for_each_stmt(loop.body, [&](Stmt& s) {
    if (s.kind() == SKind::Loop) note(s.as_loop());
  });
  if (out.empty()) return out;
  for (const RefInfo& r : collect_refs(root)) {
    if (!r.is_scalar() || !out.contains(r.array)) continue;
    auto at = std::ranges::find(r.loops, &loop);
    if (std::none_of(at, r.loops.end(), [&](const Loop* l) {
          return defined_first[l].contains(r.array);
        }))
      out.erase(r.array);
  }
  return out;
}

}  // namespace blk::analysis
