#include "transform/ifinspect.hpp"

#include <algorithm>
#include <set>

#include "analysis/ddtest.hpp"
#include "analysis/manager.hpp"
#include "ir/affine.hpp"
#include "analysis/sections.hpp"
#include "ir/error.hpp"
#include "transform/instrument.hpp"
#include "transform/scalarrepl.hpp"
#include "transform/split.hpp"

namespace blk::transform {

using namespace blk::ir;
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
  if (!finder.found) throw Error("if_inspect: loop not found in tree");
  return finder.found;
}

/// Dependences carried by `loop` from inside `work_stmt` back into the
/// retained (guard/prep) region — the ones that make IF-inspection
/// illegal.
std::vector<analysis::Dependence> blocking_deps(StmtList& root, Loop& loop,
                                                const Stmt* work_stmt) {
  std::vector<analysis::Dependence> out;
  std::vector<RefInfo> refs = analysis::collect_refs(root);
  auto in_work = [&](const RefInfo& r) {
    return r.owner && contains(*work_stmt, r.owner);
  };
  auto in_this_loop = [&](const RefInfo& r) {
    return std::find(r.loops.begin(), r.loops.end(), &loop) != r.loops.end();
  };
  auto level_of = [&](const RefInfo& r) -> std::optional<std::size_t> {
    for (std::size_t i = 0; i < r.loops.size(); ++i)
      if (r.loops[i] == &loop) return i;
    return std::nullopt;
  };
  for (const RefInfo& a : refs) {
    if (!in_this_loop(a) || !in_work(a)) continue;
    for (const RefInfo& b : refs) {
      if (!in_this_loop(b) || in_work(b)) continue;
      if (a.array != b.array || (!a.is_write && !b.is_write)) continue;
      for (auto& dep : analysis::test_pair(a, b)) {
        if (!in_work(dep.src) || in_work(dep.dst)) continue;
        auto lvl = level_of(dep.src);
        if (lvl && dep.carried_at(*lvl)) out.push_back(std::move(dep));
      }
    }
  }
  return out;
}

}  // namespace

IfInspectResult if_inspect_auto(Program& p, StmtList& root, Loop& loop) {
  PassScope scope("if-inspect-auto", root);
  if (loop.body.size() != 1 || loop.body[0]->kind() != SKind::If)
    throw Error("if_inspect_auto: loop " + loop.var +
                " body must be a single guarded IF");
  If& guard = loop.body[0]->as_if();
  if (guard.then_body.empty() ||
      guard.then_body.back()->kind() != SKind::Loop)
    throw Error("if_inspect_auto: guarded body must end with a work loop");

  // 1. Scalar expansion: scalars defined in the prefix and consumed by the
  //    work loop would be stale once the work is delayed.
  {
    const Stmt* work = guard.then_body.back().get();
    std::vector<RefInfo> refs = analysis::collect_refs(loop.body);
    std::set<std::string> written_outside, read_inside;
    for (const RefInfo& r : refs) {
      if (!r.is_scalar()) continue;
      bool in_work = r.owner && contains(*work, r.owner);
      if (r.is_write && !in_work) written_outside.insert(r.array);
      if (!r.is_write && in_work) read_inside.insert(r.array);
    }
    for (const std::string& name : written_outside)
      if (read_inside.contains(name) && p.has_scalar(name))
        scalar_expand(p, root, loop, name);
  }

  // 2. Recurrence confinement: split the work's inner loops so the part
  //    that feeds later guard iterations stays in the guard region.
  for (int iter = 0; iter < 4; ++iter) {
    Stmt* work = guard.then_body.back().get();
    auto offenders = blocking_deps(root, loop, work);
    if (offenders.empty()) break;
    bool progressed = false;
    for (const auto& dep : offenders) {
      if (dep.src.is_scalar() || dep.dst.is_scalar()) continue;
      analysis::Assumptions ctx;
      for (Loop* outer : enclosing_loops(root, loop))
        ctx.add_loop_range(*outer);
      analysis::Section s_src = analysis::section_within_for(dep.src, loop);
      analysis::Section s_dst = analysis::section_within_for(dep.dst, loop);
      for (const auto& cand :
           analysis::split_boundaries(s_src, s_dst, ctx)) {
        // Only split loops that live inside the work statement.
        const RefInfo& victim = cand.split_b ? dep.dst : dep.src;
        auto fa = as_affine(*victim.subs[cand.dim]);
        if (!fa) continue;
        Loop* target = nullptr;
        long alpha = 0;
        for (Loop* l : victim.loops) {
          long k = fa->coef_of(l->var);
          if (k != 0 && contains(*work, l)) {
            if (target) {
              target = nullptr;
              break;
            }
            target = l;
            alpha = k;
          }
        }
        if (!target || std::abs(alpha) != 1) continue;
        Affine beta = *fa - Affine::variable(target->var, alpha);
        IExprPtr point =
            alpha == 1 ? isub(cand.boundary, from_affine(beta))
                       : isub(from_affine(beta), cand.boundary);
        split_at(root, *target, simplify(point));
        progressed = true;
        break;
      }
      if (progressed) break;
    }
    if (!progressed) break;
  }

  // 3. Privatize per-iteration temporaries: a scalar written both in the
  //    retained piece and in the work (A1/A2 after the K split) carries
  //    false output/anti dependences.  When the work's first access is an
  //    unconditional write the scalar is dead on entry there, so renaming
  //    the work's copy is semantics-preserving.
  {
    Stmt* work = guard.then_body.back().get();
    std::vector<RefInfo> refs = analysis::collect_refs(loop.body);
    std::set<std::string> outside_writes;
    for (const RefInfo& r : refs)
      if (r.is_scalar() && r.is_write &&
          !(r.owner && contains(*work, r.owner)))
        outside_writes.insert(r.array);

    std::vector<RefInfo> wrefs = analysis::collect_refs(
        work->as_loop().body);
    std::set<std::string> handled;
    for (const RefInfo& r : wrefs) {
      if (!r.is_scalar() || !outside_writes.contains(r.array) ||
          handled.contains(r.array))
        continue;
      handled.insert(r.array);
      // First textual access must be a write owned by a plain assignment
      // (not guarded by an inner IF).
      const RefInfo* first = nullptr;
      for (const RefInfo& q : wrefs)
        if (q.array == r.array && (!first ||
                                   q.textual_pos < first->textual_pos ||
                                   (q.textual_pos == first->textual_pos &&
                                    !q.is_write)))
          first = &q;
      if (!first || !first->is_write) continue;
      bool guarded = false;
      for_each_stmt(work->as_loop().body, [&](Stmt& s) {
        if (s.kind() == SKind::If)
          for (const auto& c : s.as_if().then_body)
            if (c.get() == first->owner) guarded = true;
      });
      if (guarded) continue;
      // Rename throughout the work subtree.
      std::string fresh = r.array + "P";
      while (p.has_scalar(fresh) || p.has_array(fresh)) fresh += "P";
      p.scalar(fresh);
      rename_scalar(work->as_loop().body, r.array, fresh);
    }
  }

  // 4. The instrumented transformation proper (re-checks legality).
  return if_inspect(p, root, loop);
}

IfInspectResult if_inspect(Program& p, StmtList& root, Loop& loop) {
  PassScope scope("if-inspect", root);
  if (loop.body.size() != 1 || loop.body[0]->kind() != SKind::If)
    throw Error("if_inspect: loop " + loop.var +
                " body must be a single guarded IF");
  If& guard = loop.body[0]->as_if();
  if (!guard.else_body.empty())
    throw Error("if_inspect: guard must have no ELSE branch");
  if (guard.then_body.empty() ||
      guard.then_body.back()->kind() != SKind::Loop)
    throw Error(
        "if_inspect: the guarded body must end with the work loop to be "
        "extracted");

  Stmt* work_stmt = guard.then_body.back().get();

  // Legality: moving all work instances after the whole inspector loop must
  // not reverse a dependence from the work into the guard or the retained
  // statements, and the work must not change the guard's own inputs.
  {
    std::vector<RefInfo> refs = analysis::collect_refs(root);
    auto in_work = [&](const RefInfo& r) {
      return r.owner && contains(*work_stmt, r.owner);
    };
    auto in_this_loop = [&](const RefInfo& r) {
      return std::find(r.loops.begin(), r.loops.end(), &loop) !=
             r.loops.end();
    };
    auto level_of = [&](const RefInfo& r) -> std::optional<std::size_t> {
      for (std::size_t i = 0; i < r.loops.size(); ++i)
        if (r.loops[i] == &loop) return i;
      return std::nullopt;
    };
    for (const RefInfo& a : refs) {
      if (!in_this_loop(a) || !in_work(a)) continue;
      for (const RefInfo& b : refs) {
        if (!in_this_loop(b) || in_work(b)) continue;
        if (a.array != b.array || (!a.is_write && !b.is_write)) continue;
        for (const auto& dep : analysis::test_pair(a, b)) {
          // A dependence whose source is inside the work and whose sink is
          // a retained statement is reversed by the move exactly when it
          // is carried by the inspected loop itself: only then does a
          // later iteration's guard/prep consume what the delayed work
          // produces.  Dependences carried by outer loops are unaffected
          // (the whole inspector+executor pair stays inside them).
          if (!in_work(dep.src) || in_work(dep.dst)) continue;
          auto lvl = level_of(dep.src);
          if (lvl && dep.carried_at(*lvl))
            throw Error(
                "if_inspect: dependence from the work loop back into the "
                "guard region forbids inspection (" + dep.to_string() + ")");
        }
      }
    }
  }

  const std::string& v = loop.var;
  std::string lb_arr = v + "LB";
  std::string ub_arr = v + "UB";
  std::string counter = v + "C";
  std::string range_var = v + "N";
  std::string flag = "FLAG";
  while (p.has_scalar(flag) || p.has_array(flag)) flag += "F";

  // Dimension the range arrays by the loop's worst-case trip count.
  std::vector<Loop*> outer = enclosing_loops(root, loop);
  std::span<Loop* const> outer_span(outer.data(), outer.size());
  IExprPtr trip =
      analysis::sweep_extreme(iadd(isub(loop.ub, loop.lb), iconst(2)),
                              outer_span, /*lower=*/false);
  if (!trip)
    throw Error("if_inspect: cannot bound the trip count of " + v);
  p.array_bounds(lb_arr, {{.lb = iconst(1), .ub = trip}});
  p.array_bounds(ub_arr, {{.lb = iconst(1), .ub = trip}});
  p.scalar(counter);
  p.scalar(flag);

  auto scal = [](const std::string& n) { return vscalar(n); };
  auto record_true = [&]() {
    // IF (FLAG .EQ. 0) THEN KC=KC+1; KLB(KC)=K; FLAG=1
    StmtList body;
    body.push_back(make_assign({.name = counter, .subs = {}},
                               vadd(scal(counter), vconst(1.0))));
    body.push_back(make_assign({.name = lb_arr, .subs = {ivar(counter)}},
                               vindex(ivar(v))));
    body.push_back(make_assign({.name = flag, .subs = {}}, vconst(1.0)));
    return make_if({.lhs = scal(flag), .op = CmpOp::EQ, .rhs = vconst(0.0)},
                   std::move(body));
  };
  auto record_false = [&]() {
    // IF (FLAG .NE. 0) THEN KUB(KC)=K-1; FLAG=0
    StmtList body;
    body.push_back(make_assign({.name = ub_arr, .subs = {ivar(counter)}},
                               vindex(isub(ivar(v), iconst(1)))));
    body.push_back(make_assign({.name = flag, .subs = {}}, vconst(0.0)));
    return make_if({.lhs = scal(flag), .op = CmpOp::NE, .rhs = vconst(0.0)},
                   std::move(body));
  };

  // Extract the work loop, then instrument the guard.
  StmtPtr work = std::move(guard.then_body.back());
  guard.then_body.pop_back();
  guard.then_body.push_back(record_true());
  guard.else_body.push_back(record_false());

  LoopLocation loc = locate(root, loop);
  StmtList& parent = *loc.parent;
  std::size_t idx = loc.index;

  // KC = 0 ; FLAG = 0 before the inspector.
  parent.insert(parent.begin() + static_cast<long>(idx),
                make_assign({.name = counter, .subs = {}}, vconst(0.0)));
  parent.insert(parent.begin() + static_cast<long>(idx) + 1,
                make_assign({.name = flag, .subs = {}}, vconst(0.0)));
  idx += 2;  // inspector loop position

  // Close the last open range after the inspector.
  {
    StmtList body;
    body.push_back(make_assign({.name = ub_arr, .subs = {ivar(counter)}},
                               vindex(loop.ub)));
    body.push_back(make_assign({.name = flag, .subs = {}}, vconst(0.0)));
    parent.insert(
        parent.begin() + static_cast<long>(idx) + 1,
        make_if({.lhs = scal(flag), .op = CmpOp::NE, .rhs = vconst(0.0)},
                std::move(body)));
  }

  // Executor: DO KN = 1, KC / DO K = MAX(KLB(KN),lb), MIN(KUB(KN),ub) /
  // <work>.  Every recorded range lies inside [lb, ub], so the clamp runs
  // the same iterations; it shows the analyses that K stays in range.
  StmtList exec_k_body;
  exec_k_body.push_back(std::move(work));
  StmtPtr exec_k =
      make_loop(v, imax(ielem(lb_arr, ivar(range_var)), loop.lb),
                imin(ielem(ub_arr, ivar(range_var)), loop.ub),
                std::move(exec_k_body));
  Loop* exec_k_ptr = &exec_k->as_loop();
  StmtList exec_body;
  exec_body.push_back(std::move(exec_k));
  StmtPtr range_loop =
      make_loop(range_var, iconst(1), ivar(counter), std::move(exec_body));
  Loop* range_ptr = &range_loop->as_loop();
  parent.insert(parent.begin() + static_cast<long>(idx) + 2,
                std::move(range_loop));
  p.note_var(range_var);

  return {.inspector = &loop, .range_loop = range_ptr,
          .executor = exec_k_ptr};
}

}  // namespace blk::transform
