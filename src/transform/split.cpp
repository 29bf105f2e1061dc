#include "transform/split.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <set>

#include "analysis/manager.hpp"
#include "ir/affine.hpp"
#include "ir/error.hpp"
#include "transform/instrument.hpp"
#include "ir/printer.hpp"
#include "transform/pattern.hpp"

namespace blk::transform {

using namespace blk::ir;
using analysis::Assumptions;
using analysis::DepGraph;
using analysis::RefInfo;
using analysis::Section;

namespace {

/// Locate `loop` by identity anywhere under `root`.
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
  if (!finder.found)
    throw Error("split: loop " + loop.var + " not found in tree");
  return finder.found;
}

}  // namespace

std::pair<Loop*, Loop*> split_at(StmtList& root, Loop& loop, IExprPtr point) {
  PassScope scope("split", root);
  // The MIN/MAX bound construction below assumes ascending unit-step
  // iteration; reversed or strided loops would land in the wrong pieces
  // (or the wrong phase).
  if (!(loop.step->kind == IKind::Const && loop.step->value == 1))
    throw Error("split_at: loop " + loop.var + " must have unit step");
  LoopLocation loc = locate(root, loop);

  IExprPtr ub1 = simplify(imin(loop.ub, point));
  IExprPtr lb2 = simplify(imax(loop.lb, iadd(ub1, iconst(1))));

  StmtPtr second = make_loop(loop.var, std::move(lb2), loop.ub,
                             clone_list(loop.body), loop.step);
  Loop* second_ptr = &second->as_loop();
  loop.ub = std::move(ub1);
  loc.parent->insert(loc.parent->begin() + static_cast<long>(loc.index) + 1,
                     std::move(second));
  return {&loop, second_ptr};
}

namespace {

/// Split decomposition of one MIN/MAX inner bound: the operand depending
/// on `var` (affine) and the independent one.
struct CrossoverInfo {
  bool is_min = false;     ///< MIN in ub (vs MAX in lb)
  long alpha = 0;          ///< coefficient of the outer var in f
  IExprPtr beta;           ///< f minus its alpha*var term
  IExprPtr f;              ///< dependent operand
  IExprPtr g;              ///< independent operand
};

std::optional<CrossoverInfo> find_crossover(const Loop& inner,
                                            const std::string& var) {
  auto classify = [&](const IExprPtr& bound,
                      bool is_min) -> std::optional<CrossoverInfo> {
    if (bound->kind != (is_min ? IKind::Min : IKind::Max)) return std::nullopt;
    const IExprPtr& a = bound->lhs;
    const IExprPtr& b = bound->rhs;
    bool am = mentions(*a, var);
    bool bm = mentions(*b, var);
    if (am == bm) return std::nullopt;  // need exactly one dependent side
    const IExprPtr& f = am ? a : b;
    const IExprPtr& g = am ? b : a;
    auto fa = as_affine(*f);
    if (!fa) return std::nullopt;
    long alpha = fa->coef_of(var);
    if (alpha == 0) return std::nullopt;
    Affine beta = *fa - Affine::variable(var, alpha);
    return CrossoverInfo{.is_min = is_min,
                         .alpha = alpha,
                         .beta = from_affine(beta),
                         .f = f,
                         .g = g};
  };
  if (auto c = classify(inner.ub, /*is_min=*/true)) return c;
  if (auto c = classify(inner.lb, /*is_min=*/false)) return c;
  return std::nullopt;
}

}  // namespace

std::pair<Loop*, Loop*> split_trapezoid(StmtList& root, Loop& outer) {
  PassScope scope("split-trapezoid", root);
  if (outer.body.size() != 1 || outer.body[0]->kind() != SKind::Loop)
    throw Error("split_trapezoid: " + outer.var +
                " must perfectly enclose a single loop");
  Loop& inner = outer.body[0]->as_loop();
  auto info = find_crossover(inner, outer.var);
  if (!info)
    throw Error("split_trapezoid: no MIN/MAX bound of " + inner.var +
                " depends on " + outer.var);

  // Crossover: the outer value where f and g trade places.
  IExprPtr point;
  bool f_wins_low;  // does the dependent operand win in the low piece?
  if (info->is_min) {
    if (info->alpha > 0) {
      // f <= g  <=>  I <= floor((g - beta)/alpha): low piece keeps f.
      point = ifloordiv(isub(info->g, info->beta), info->alpha);
      f_wins_low = true;
    } else {
      // f <= g  <=>  I >= ceil((beta - g)/(-alpha)): high piece keeps f.
      point = isub(iceildiv(isub(info->beta, info->g), -info->alpha),
                   iconst(1));
      f_wins_low = false;
    }
  } else {
    if (info->alpha > 0) {
      // f >= g  <=>  I >= ceil((g - beta)/alpha): high piece keeps f.
      point = isub(iceildiv(isub(info->g, info->beta), info->alpha),
                   iconst(1));
      f_wins_low = false;
    } else {
      // f >= g  <=>  I <= floor((beta - g)/(-alpha)): low piece keeps f.
      point = ifloordiv(isub(info->beta, info->g), -info->alpha);
      f_wins_low = true;
    }
  }

  bool is_min = info->is_min;
  IExprPtr f = info->f;
  IExprPtr g = info->g;
  auto [low, high] = split_at(root, outer, simplify(point));

  auto set_bound = [is_min](Loop& piece, const IExprPtr& winner) {
    Loop& in = piece.body[0]->as_loop();
    if (is_min)
      in.ub = winner;
    else
      in.lb = winner;
  };
  set_bound(*low, f_wins_low ? f : g);
  set_bound(*high, f_wins_low ? g : f);
  return {low, high};
}

std::vector<Loop*> split_trapezoid_all(StmtList& root, Loop& outer) {
  std::vector<Loop*> work{&outer};
  std::vector<Loop*> done;
  while (!work.empty()) {
    Loop* l = work.back();
    work.pop_back();
    bool splittable = l->body.size() == 1 &&
                      l->body[0]->kind() == SKind::Loop &&
                      find_crossover(l->body[0]->as_loop(), l->var)
                          .has_value();
    if (!splittable) {
      done.push_back(l);
      continue;
    }
    auto [low, high] = split_trapezoid(root, *l);
    // Process both pieces again (a bound may carry several MIN/MAX).
    work.push_back(high);
    work.push_back(low);
  }
  // `done` is accumulated with low pieces last-in; restore execution order
  // by sorting on position in the tree via the parent lists.
  // Simpler: collect in order of discovery from the tree.
  std::vector<Loop*> ordered;
  std::set<const Loop*> wanted(done.begin(), done.end());
  std::function<void(StmtList&)> walk = [&](StmtList& body) {
    for (auto& s : body) {
      if (s->kind() == SKind::Loop) {
        Loop& l = s->as_loop();
        if (wanted.contains(&l))
          ordered.push_back(&l);
        else
          walk(l.body);
      } else if (s->kind() == SKind::If) {
        walk(s->as_if().then_body);
        walk(s->as_if().else_body);
      }
    }
  };
  walk(root);
  return ordered;
}

namespace {

/// Solve `sub == boundary` for the unique inner-loop variable of `ref`
/// (a loop strictly inside `carrier`), yielding the split point for that
/// loop and the loop itself.
struct SolvedSplit {
  Loop* loop = nullptr;
  IExprPtr point;
};

std::optional<SolvedSplit> solve_split(const RefInfo& ref, std::size_t dim,
                                       const IExprPtr& boundary,
                                       const Loop& carrier) {
  auto pos_it = std::find(ref.loops.begin(), ref.loops.end(), &carrier);
  if (pos_it == ref.loops.end()) return std::nullopt;
  auto fa = as_affine(*ref.subs[dim]);
  if (!fa) return std::nullopt;
  // Find the unique inner loop whose variable appears in the subscript.
  Loop* target = nullptr;
  long alpha = 0;
  for (auto it = pos_it + 1; it != ref.loops.end(); ++it) {
    long k = fa->coef_of((*it)->var);
    if (k != 0) {
      if (target) return std::nullopt;  // more than one inner variable
      target = *it;
      alpha = k;
    }
  }
  if (!target || std::abs(alpha) != 1) return std::nullopt;
  Affine beta = *fa - Affine::variable(target->var, alpha);
  // alpha * v + beta == boundary  =>  v == (boundary - beta)/alpha
  IExprPtr point = alpha == 1
                       ? isub(boundary, from_affine(beta))
                       : isub(from_affine(beta), boundary);
  return SolvedSplit{.loop = target, .point = simplify(point)};
}

}  // namespace

namespace {

/// Number of dependence components of the carrier body under the filter,
/// plus whether any multi-node component (recurrence) remains.
struct BodyShape {
  std::size_t parts = 0;
  bool recurrence = false;
};

BodyShape shape_of(StmtList& root, Loop& carrier, const Assumptions& base,
                   bool use_commutativity) {
  analysis::DepGraphPtr g = analysis::dep_graph_for(root, carrier, &base);
  DepGraph::EdgeFilter ignore;
  if (use_commutativity) ignore = commutativity_filter(carrier);
  auto comps = g->components(ignore);
  BodyShape s{.parts = comps.size(), .recurrence = false};
  for (const auto& c : comps)
    if (c.size() > 1) s.recurrence = true;
  return s;
}

}  // namespace

SplitReport index_set_split(StmtList& root, Loop& carrier,
                            const Assumptions& base,
                            bool use_commutativity) {
  PassScope scope("index-set-split", root);
  SplitReport report;
  std::set<std::string> attempted;  // "var@point" keys, to guarantee progress

  for (int iter = 0; iter < 8; ++iter) {
    // Both this scan and shape_of below want the carrier graph; the
    // AnalysisManager (when installed) coalesces them into one build.
    analysis::DepGraphPtr g =
        analysis::dep_graph_for(root, carrier, &base);
    DepGraph::EdgeFilter ignore;
    if (use_commutativity) ignore = commutativity_filter(carrier);
    BodyShape before = shape_of(root, carrier, base, use_commutativity);
    if (before.parts > 1 || !before.recurrence) {
      report.distributable = true;
      return report;
    }
    bool progressed = false;
    for (const auto& e : g->recurrence_edges()) {
      const RefInfo& src = e.dep.src;
      const RefInfo& dst = e.dep.dst;
      if (src.is_scalar() || dst.is_scalar()) continue;
      if (ignore && ignore(e)) continue;  // already discounted
      // Steps 1-3 of Fig. 3: sections, intersection vs union.
      Section s_src = analysis::section_within_for(src, carrier);
      Section s_dst = analysis::section_within_for(dst, carrier);
      if (auto eq = analysis::equal(s_src, s_dst, base); eq && *eq)
        continue;  // intersection == union: nothing to carve off
      // Step 4: boundary between the disjoint and common regions.
      for (const auto& cand :
           analysis::split_boundaries(s_src, s_dst, base)) {
        const RefInfo& victim = cand.split_b ? dst : src;
        auto solved = solve_split(victim, cand.dim, cand.boundary, carrier);
        if (!solved) continue;
        // Key trials by loop identity: distinct loops often share a
        // variable name (the swap and update J loops of Fig. 7).
        std::string key =
            std::to_string(reinterpret_cast<std::uintptr_t>(solved->loop)) +
            "@" + to_string(solved->point);
        if (attempted.contains(key)) continue;
        attempted.insert(key);
        // Step 5: trial-split the inner loop's index set at the solved
        // point; keep it only if the carrier body gains a component.
        IExprPtr saved_ub = solved->loop->ub;
        auto [lo, hi] = split_at(root, *solved->loop, solved->point);
        BodyShape after = shape_of(root, carrier, base, use_commutativity);
        if (after.parts > before.parts || !after.recurrence) {
          ++report.splits;
          progressed = true;
          break;
        }
        // No progress: undo (restore the bound, drop the clone).  This
        // mutates the tree outside any PassScope, so cached analyses must
        // be dropped by hand.
        lo->ub = std::move(saved_ub);
        LoopLocation loc = locate(root, *hi);
        loc.parent->erase(loc.parent->begin() +
                          static_cast<long>(loc.index));
        analysis::notify_ir_mutation();
      }
      if (progressed) break;
    }
    if (!progressed) break;
  }
  BodyShape final_shape = shape_of(root, carrier, base, use_commutativity);
  report.distributable = final_shape.parts > 1 || !final_shape.recurrence;
  return report;
}

}  // namespace blk::transform
