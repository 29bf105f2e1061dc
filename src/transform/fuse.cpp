#include "transform/fuse.hpp"

#include <algorithm>
#include <set>

#include "analysis/ddtest.hpp"
#include "ir/error.hpp"
#include "transform/instrument.hpp"

namespace blk::transform {

using namespace blk::ir;
using analysis::Assumptions;

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
  if (!finder.found) throw Error("fuse: loop not found in tree");
  return finder.found;
}

void collect_subtree(const Stmt& s, std::set<const Stmt*>& out) {
  out.insert(&s);
  switch (s.kind()) {
    case SKind::Assign:
      return;
    case SKind::Loop:
      for (const auto& c : s.as_loop().body) collect_subtree(*c, out);
      return;
    case SKind::If:
      for (const auto& c : s.as_if().then_body) collect_subtree(*c, out);
      for (const auto& c : s.as_if().else_body) collect_subtree(*c, out);
      return;
  }
}

}  // namespace

Loop& fuse(StmtList& root, Loop& first, bool check,
           const Assumptions* ctx) {
  PassScope scope("fuse", root);
  LoopLocation loc = locate(root, first);
  StmtList& parent = *loc.parent;
  if (loc.index + 1 >= parent.size() ||
      parent[loc.index + 1]->kind() != SKind::Loop)
    throw Error("fuse: no loop follows " + first.var);
  Loop& second = parent[loc.index + 1]->as_loop();

  if (!provably_equal(first.lb, second.lb) ||
      !provably_equal(first.ub, second.ub) ||
      !provably_equal(first.step, second.step))
    throw Error("fuse: headers of " + first.var + " and " + second.var +
                " are not provably identical");

  // Trial-fuse: rename the second body onto the first variable and append.
  const std::size_t first_count = first.body.size();
  if (second.var != first.var)
    substitute_index_in_list(second.body, second.var, ivar(first.var));
  for (auto& s : second.body) first.body.push_back(std::move(s));
  parent.erase(parent.begin() + static_cast<long>(loc.index) + 1);

  if (check) {
    // Any carried dependence from a (formerly) second-body statement into
    // a first-body statement reverses an original ordering: all of body1
    // ran before any of body2 prior to fusion.
    std::set<const Stmt*> g1;
    for (std::size_t i = 0; i < first_count; ++i)
      collect_subtree(*first.body[i], g1);
    for (const auto& d : analysis::dependences_within(root, first, ctx)) {
      bool src_in_g2 = !g1.contains(d.src.owner);
      bool dst_in_g1 = g1.contains(d.dst.owner);
      if (!src_in_g2 || !dst_in_g1) continue;
      const auto lvl = static_cast<std::size_t>(
          std::ranges::find(d.src.loops, &first) - d.src.loops.begin());
      if (d.carried_at(lvl)) {
        // Undo the fusion before reporting.
        StmtList tail;
        for (std::size_t i = first_count; i < first.body.size(); ++i)
          tail.push_back(std::move(first.body[i]));
        first.body.resize(first_count);
        StmtPtr restored = make_loop(first.var, first.lb, first.ub,
                                     std::move(tail), first.step);
        parent.insert(parent.begin() + static_cast<long>(loc.index) + 1,
                      std::move(restored));
        throw Error("fuse: dependence forbids fusing " + first.var + " (" +
                    d.to_string() + ")");
      }
    }
  }
  return first;
}

void reverse_loop(StmtList& root, Loop& loop, bool check,
                  const Assumptions* ctx) {
  PassScope scope("reverse", root);
  if (check) {
    for (const auto& d : analysis::dependences_within(root, loop, ctx)) {
      std::size_t depth = d.src.common_depth(d.dst);
      for (std::size_t i = 0; i < depth; ++i) {
        if (d.src.loops[i] != &loop) continue;
        if (d.carried_at(i))
          throw Error("reverse_loop: " + loop.var +
                      " carries a dependence (" + d.to_string() + ")");
      }
    }
  }
  std::swap(loop.lb, loop.ub);
  loop.step = simplify(isub(iconst(0), loop.step));
}

}  // namespace blk::transform
