#include "transform/scalarrepl.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/refs.hpp"
#include "analysis/sections.hpp"
#include "ir/error.hpp"
#include "transform/instrument.hpp"

namespace blk::transform {

using namespace blk::ir;
using analysis::Assumptions;
using analysis::RefInfo;

namespace {

LoopLocation locate(StmtList& root, const Loop& loop) {
  struct Finder {
    const Loop* target;
    LoopLocation found;
    void walk(StmtList& body) {
      for (std::size_t i = 0; i < body.size() && !found.loop; ++i) {
        Stmt& s = *body[i];
        if (s.kind() == SKind::Loop) {
          Loop& l = s.as_loop();
          if (&l == target) {
            found = {.parent = &body, .index = i, .loop = &l};
            return;
          }
          walk(l.body);
        } else if (s.kind() == SKind::If) {
          walk(s.as_if().then_body);
          walk(s.as_if().else_body);
        }
      }
    }
  } finder{.target = &loop, .found = {}};
  finder.walk(root);
  if (!finder.found) throw Error("scalarrepl: loop not found in tree");
  return finder.found;
}

[[nodiscard]] bool mentions_any(const blk::analysis::RefInfo& r,
                                const std::string& var) {
  for (const auto& sub : r.subs)
    if (mentions(*sub, var)) return true;
  return false;
}

/// Does `e` read a name in `names`, as a variable or as an index array?
[[nodiscard]] bool reads_any(const IExpr& e,
                             const std::set<std::string>& names) {
  switch (e.kind) {
    case IKind::Const:
      return false;
    case IKind::Var:
      return names.contains(e.name);
    case IKind::ArrayElem:
      return names.contains(e.name) || reads_any(*e.lhs, names);
    default:
      return reads_any(*e.lhs, names) || reads_any(*e.rhs, names);
  }
}

[[nodiscard]] bool same_subs(const std::vector<IExprPtr>& a,
                             const std::vector<IExprPtr>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!provably_equal(a[i], b[i])) return false;
  return true;
}

/// Rewrite reads of A(subs) into the scalar `t` throughout an expression.
VExprPtr replace_reads(const VExprPtr& e, const std::string& array,
                       const std::vector<IExprPtr>& subs,
                       const std::string& t) {
  switch (e->kind) {
    case VKind::Const:
    case VKind::ScalarRef:
    case VKind::IndexVal:
      return e;
    case VKind::ArrayRef:
      if (e->name == array && same_subs(e->subs, subs)) return vscalar(t);
      return e;
    case VKind::Bin: {
      VExprPtr l = replace_reads(e->lhs, array, subs, t);
      VExprPtr r = replace_reads(e->rhs, array, subs, t);
      if (l == e->lhs && r == e->rhs) return e;
      return vbin(e->bop, std::move(l), std::move(r));
    }
    case VKind::Un: {
      VExprPtr l = replace_reads(e->lhs, array, subs, t);
      if (l == e->lhs) return e;
      return vun(e->uop, std::move(l));
    }
  }
  throw Error("scalarrepl: corrupt VExpr");
}

void rewrite_group(StmtList& body, const std::string& array,
                   const std::vector<IExprPtr>& subs, const std::string& t) {
  for (auto& s : body) {
    switch (s->kind()) {
      case SKind::Assign: {
        Assign& a = s->as_assign();
        a.rhs = replace_reads(a.rhs, array, subs, t);
        if (a.lhs.name == array && same_subs(a.lhs.subs, subs))
          a.lhs = {.name = t, .subs = {}};
        break;
      }
      case SKind::Loop:
        rewrite_group(s->as_loop().body, array, subs, t);
        break;
      case SKind::If: {
        If& f = s->as_if();
        f.cond.lhs = replace_reads(f.cond.lhs, array, subs, t);
        f.cond.rhs = replace_reads(f.cond.rhs, array, subs, t);
        rewrite_group(f.then_body, array, subs, t);
        rewrite_group(f.else_body, array, subs, t);
        break;
      }
    }
  }
}

}  // namespace

int scalar_replace(Program& p, StmtList& root, Loop& loop,
                   const Assumptions& base) {
  PassScope scope("scalar-replace", root);
  LoopLocation loc = locate(root, loop);

  // Context: caller facts + every loop range in the enclosing nest and
  // inside the target loop.
  Assumptions ctx = base;
  for (Loop* l : enclosing_loops(root, loop)) ctx.add_loop_range(*l);
  ctx.add_loop_range(loop);
  for_each_stmt(loop.body, [&ctx](Stmt& s) {
    if (s.kind() == SKind::Loop) ctx.add_loop_range(s.as_loop());
  });

  std::vector<RefInfo> refs = analysis::collect_refs(loop.body);
  // A subscript reading a scalar or an index array the loop writes (an
  // inspector's JLB(JC), with JC counting up) varies like a loop variable.
  std::set<std::string> written;
  for (const RefInfo& r : refs)
    if (r.is_write) written.insert(r.array);

  // Candidate groups: invariant array references, keyed by identical subs.
  struct Group {
    std::string array;
    std::vector<IExprPtr> subs;
    bool written = false;
  };
  std::vector<Group> groups;
  for (const RefInfo& r : refs) {
    if (r.is_scalar()) continue;
    bool invariant = true;
    for (const auto& sub : r.subs) {
      if (mentions(*sub, loop.var) || reads_any(*sub, written))
        invariant = false;
      for (const Loop* inner : r.loops)
        if (mentions(*sub, inner->var)) invariant = false;
    }
    if (!invariant) continue;
    auto it = std::find_if(groups.begin(), groups.end(), [&](const Group& g) {
      return g.array == r.array && same_subs(g.subs, r.subs);
    });
    if (it == groups.end())
      groups.push_back(
          {.array = r.array, .subs = r.subs, .written = r.is_write});
    else
      it->written |= r.is_write;
  }

  int replaced = 0;
  int counter = 0;
  for (const Group& g : groups) {
    // Safety: every other reference to this array inside the loop must be
    // provably disjoint from the group's element in some dimension.
    bool safe = true;
    for (const RefInfo& r : refs) {
      if (r.array != g.array || same_subs(r.subs, g.subs)) continue;
      // Section of the varying reference over the loops inside the target
      // loop, including the target loop itself.
      std::vector<Loop*> expand{&loop};
      expand.insert(expand.end(), r.loops.begin(), r.loops.end());
      analysis::Section sec = analysis::section_of(r, expand);
      bool dim_disjoint = false;
      for (std::size_t d = 0; d < g.subs.size() && d < sec.dims.size(); ++d) {
        const auto& t = sec.dims[d];
        if (!t.lb || !t.ub) continue;
        if (ctx.nonneg_expr(isub(isub(t.lb, g.subs[d]), iconst(1))) ||
            ctx.nonneg_expr(isub(isub(g.subs[d], t.ub), iconst(1)))) {
          dim_disjoint = true;
          break;
        }
      }
      if (!dim_disjoint) {
        safe = false;
        break;
      }
    }
    if (!safe) continue;

    // Fresh scalar name.
    std::string t;
    do {
      t = "T" + std::to_string(counter++);
    } while (p.has_scalar(t) || p.has_array(t));
    p.temporary(t);

    rewrite_group(loop.body, g.array, g.subs, t);
    // Load before the loop; store after when written.
    StmtList& parent = *loc.parent;
    parent.insert(parent.begin() + static_cast<long>(loc.index),
                  make_assign({.name = t, .subs = {}}, vref(g.array, g.subs)));
    ++loc.index;  // the loop shifted right
    if (g.written)
      parent.insert(parent.begin() + static_cast<long>(loc.index) + 1,
                    make_assign({.name = g.array, .subs = g.subs},
                                vscalar(t)));
    ++replaced;
  }
  return replaced;
}

int scalar_replace_carried(Program& p, StmtList& root, Loop& loop) {
  PassScope scope("scalar-replace-carried", root);
  if (!(loop.step->kind == IKind::Const && loop.step->value == 1)) return 0;
  LoopLocation loc = locate(root, loop);

  // Candidate pattern: refs directly at this loop level (not inside inner
  // loops), one write per array, reads either same-iteration or shifted by
  // exactly one iteration.
  std::vector<RefInfo> refs = analysis::collect_refs(loop.body);
  std::map<std::string, std::vector<const RefInfo*>> by_array;
  for (const RefInfo& r : refs) {
    if (r.is_scalar()) continue;
    if (!r.loops.empty()) return 0;  // nested shapes: out of scope here
    by_array[r.array].push_back(&r);
  }

  IExprPtr shift_back = isub(ivar(loop.var), iconst(1));
  int rotated = 0;
  int counter = 0;
  for (auto& [array, group] : by_array) {
    const RefInfo* write = nullptr;
    std::vector<const RefInfo*> carried_reads;
    bool ok = true;
    for (const RefInfo* r : group) {
      if (r->is_write) {
        if (write) ok = false;  // more than one write: too hard
        write = r;
      }
    }
    if (!ok || !write) continue;
    for (const RefInfo* r : group) {
      if (r->is_write) continue;
      bool shifted = r->subs.size() == write->subs.size();
      bool same = shifted;
      for (std::size_t d = 0; d < r->subs.size() && (shifted || same);
           ++d) {
        IExprPtr w_prev =
            substitute(write->subs[d], loop.var, shift_back);
        shifted = shifted && provably_equal(r->subs[d], w_prev);
        same = same && provably_equal(r->subs[d], write->subs[d]);
      }
      if (shifted && mentions_any(*write, loop.var))
        carried_reads.push_back(r);
      else if (!same)
        ok = false;  // unrelated access pattern: leave it alone
    }
    if (!ok || carried_reads.empty()) continue;
    // The write must vary with the loop (else every iteration hits the
    // same cell and the shift test above is vacuous).
    bool varies = false;
    for (const auto& sub : write->subs)
      if (mentions(*sub, loop.var)) varies = true;
    if (!varies) continue;

    // Fresh scalar.
    std::string t;
    do {
      t = "R" + std::to_string(counter++);
    } while (p.has_scalar(t) || p.has_array(t));
    p.temporary(t);

    // Rewrite the carried reads to T, and chain the written value into T
    // right after the write's statement.
    std::vector<IExprPtr> prev_subs;
    for (const auto& sub : write->subs)
      prev_subs.push_back(substitute(sub, loop.var, shift_back));
    rewrite_group(loop.body, array, prev_subs, t);
    // Insert "T = A(f(I))" after the writing statement.
    for (std::size_t i = 0; i < loop.body.size(); ++i) {
      if (loop.body[i].get() !=
          static_cast<const Stmt*>(write->stmt))
        continue;
      loop.body.insert(
          loop.body.begin() + static_cast<long>(i) + 1,
          make_assign({.name = t, .subs = {}},
                      vref(array, write->subs)));
      break;
    }

    // Guarded preheader: T = A(f(lb-1)), only when the loop runs at all.
    std::vector<IExprPtr> first_subs;
    for (const auto& sub : prev_subs)
      first_subs.push_back(
          simplify(substitute(sub, loop.var, loop.lb)));
    StmtList then_body;
    then_body.push_back(make_assign({.name = t, .subs = {}},
                                    vref(array, std::move(first_subs))));
    then_body.push_back(std::move((*loc.parent)[loc.index]));
    StmtPtr guard = make_if({.lhs = vindex(loop.lb),
                             .op = CmpOp::LE,
                             .rhs = vindex(loop.ub)},
                            std::move(then_body));
    (*loc.parent)[loc.index] = std::move(guard);
    ++rotated;
    break;  // the loop node moved; one rotation per invocation
  }
  return rotated;
}

std::string scalar_expand(Program& p, StmtList& root, Loop& loop,
                          const std::string& name) {
  PassScope scope("scalar-expand", root);
  if (!p.has_scalar(name))
    throw Error("scalar_expand: " + name + " is not a declared scalar");

  // Dimension the expansion array by the loop's extreme bounds over the
  // enclosing nest.
  std::vector<Loop*> outer = enclosing_loops(root, loop);
  std::span<Loop* const> outer_span(outer.data(), outer.size());
  IExprPtr lo = analysis::sweep_extreme(loop.lb, outer_span, /*lower=*/true);
  IExprPtr hi = analysis::sweep_extreme(loop.ub, outer_span, /*lower=*/false);
  if (!lo || !hi)
    throw Error("scalar_expand: cannot bound the range of " + loop.var);

  std::string arr = name + "X";
  while (p.has_array(arr) || p.has_scalar(arr)) arr += "X";
  p.array_bounds(arr, {{.lb = lo, .ub = hi}});

  // Rewrite all reads/writes of the scalar in the loop body.
  IExprPtr v = ivar(loop.var);
  std::function<void(StmtList&)> rewrite = [&](StmtList& body) {
    for (auto& s : body) {
      switch (s->kind()) {
        case SKind::Assign: {
          Assign& a = s->as_assign();
          a.rhs = substitute_scalar(a.rhs, name, vref(arr, {v}));
          if (!a.lhs.is_array() && a.lhs.name == name)
            a.lhs = {.name = arr, .subs = {v}};
          break;
        }
        case SKind::Loop:
          rewrite(s->as_loop().body);
          break;
        case SKind::If: {
          If& f = s->as_if();
          f.cond.lhs = substitute_scalar(f.cond.lhs, name, vref(arr, {v}));
          f.cond.rhs = substitute_scalar(f.cond.rhs, name, vref(arr, {v}));
          rewrite(f.then_body);
          rewrite(f.else_body);
          break;
        }
      }
    }
  };
  rewrite(loop.body);
  return arr;
}

}  // namespace blk::transform
