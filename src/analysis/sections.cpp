#include "analysis/sections.hpp"

#include <algorithm>

#include "ir/error.hpp"

namespace blk::analysis {

using namespace blk::ir;

std::string Triplet::to_string() const {
  if (!lb || !ub) return "?";
  return ir::to_string(lb) + ":" + ir::to_string(ub);
}

std::string Section::to_string() const {
  std::string s = array + "(";
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i) s += ",";
    s += dims[i].to_string();
  }
  return s + ")";
}

namespace {

/// Lower/upper bound of `e` as variable `v` ranges over [vlb, vub],
/// exploiting monotonicity.  Returns nullptr when the shape defeats us.
IExprPtr expand_bound(const IExprPtr& e, const std::string& v,
                      const IExprPtr& vlb, const IExprPtr& vub,
                      bool want_lower) {
  switch (e->kind) {
    case IKind::Const:
      return e;
    case IKind::Var:
      if (e->name != v) return e;
      return want_lower ? vlb : vub;
    case IKind::Add: {
      IExprPtr l = expand_bound(e->lhs, v, vlb, vub, want_lower);
      IExprPtr r = expand_bound(e->rhs, v, vlb, vub, want_lower);
      if (!l || !r) return nullptr;
      return iadd(std::move(l), std::move(r));
    }
    case IKind::Sub: {
      IExprPtr l = expand_bound(e->lhs, v, vlb, vub, want_lower);
      IExprPtr r = expand_bound(e->rhs, v, vlb, vub, !want_lower);
      if (!l || !r) return nullptr;
      return isub(std::move(l), std::move(r));
    }
    case IKind::Mul: {
      // Require one constant factor to know the monotonicity direction.
      const IExpr* cst = nullptr;
      IExprPtr other;
      if (e->lhs->kind == IKind::Const) {
        cst = e->lhs.get();
        other = e->rhs;
      } else if (e->rhs->kind == IKind::Const) {
        cst = e->rhs.get();
        other = e->lhs;
      } else {
        if (!mentions(*e, v)) return e;
        return nullptr;
      }
      bool dir = cst->value >= 0 ? want_lower : !want_lower;
      IExprPtr o = expand_bound(other, v, vlb, vub, dir);
      if (!o) return nullptr;
      return imul(iconst(cst->value), std::move(o));
    }
    case IKind::Min:
    case IKind::Max: {
      IExprPtr l = expand_bound(e->lhs, v, vlb, vub, want_lower);
      IExprPtr r = expand_bound(e->rhs, v, vlb, vub, want_lower);
      if (!l || !r) return nullptr;
      return e->kind == IKind::Min ? imin(std::move(l), std::move(r))
                                   : imax(std::move(l), std::move(r));
    }
    case IKind::FloorDiv:
    case IKind::CeilDiv: {
      IExprPtr l = expand_bound(e->lhs, v, vlb, vub, want_lower);
      if (!l) return nullptr;
      long d = e->rhs->value;
      return e->kind == IKind::FloorDiv ? ifloordiv(std::move(l), d)
                                        : iceildiv(std::move(l), d);
    }
    case IKind::ArrayElem:
      return mentions(*e, v) ? nullptr : e;  // opaque runtime value
  }
  return nullptr;
}

/// Lower/upper bound of `e` as the variable of `l` sweeps its range.  A
/// negative constant step counts down from lb to ub; a symbolic step's
/// sign is unknown, so any bound mentioning the variable gives up.
IExprPtr sweep_loop(const IExprPtr& e, const Loop& l, bool want_lower) {
  if (l.step->kind != IKind::Const)
    return mentions(*e, l.var) ? nullptr : e;
  bool down = l.step->value < 0;
  return expand_bound(e, l.var, down ? l.ub : l.lb, down ? l.lb : l.ub,
                      want_lower);
}

}  // namespace

Section section_of(const RefInfo& ref, std::span<Loop* const> expand) {
  Section s;
  s.array = ref.array;
  s.dims.reserve(ref.subs.size());
  for (const auto& sub : ref.subs)
    s.dims.push_back({.lb = sub, .ub = sub});
  // Innermost-to-outermost so that bounds mentioning outer variables are
  // expanded by later iterations.
  for (auto it = expand.rbegin(); it != expand.rend(); ++it) {
    for (auto& t : s.dims) {
      if (t.lb) t.lb = sweep_loop(t.lb, **it, true);
      if (t.ub) t.ub = sweep_loop(t.ub, **it, false);
    }
  }
  for (auto& t : s.dims) {
    if (t.lb) t.lb = ir::simplify(t.lb);
    if (t.ub) t.ub = ir::simplify(t.ub);
  }
  return s;
}

ir::IExprPtr sweep_extreme(const ir::IExprPtr& e,
                           std::span<ir::Loop* const> loops, bool lower) {
  IExprPtr cur = e;
  for (auto it = loops.rbegin(); it != loops.rend(); ++it) {
    if (!cur) return nullptr;
    cur = sweep_loop(cur, **it, lower);
  }
  return cur ? ir::simplify(cur) : nullptr;
}

Section section_within(const RefInfo& ref, const ir::Loop& outer) {
  auto it = std::find(ref.loops.begin(), ref.loops.end(), &outer);
  if (it == ref.loops.end())
    throw Error("section_within: reference not inside the given loop");
  std::span<Loop* const> expand(&*it,
                                static_cast<std::size_t>(ref.loops.end() - it));
  return section_of(ref, expand);
}

namespace {

[[nodiscard]] bool dims_ok(const Section& a, const Section& b) {
  if (a.array != b.array || a.dims.size() != b.dims.size()) return false;
  for (const auto& t : a.dims)
    if (!t.lb || !t.ub) return false;
  for (const auto& t : b.dims)
    if (!t.lb || !t.ub) return false;
  return true;
}

}  // namespace

std::optional<bool> subset(const Section& a, const Section& b,
                           const Assumptions& ctx) {
  if (!dims_ok(a, b)) return std::nullopt;
  bool all = true;
  for (std::size_t d = 0; d < a.dims.size(); ++d) {
    bool lo = ctx.ge(a.dims[d].lb, b.dims[d].lb);
    bool hi = ctx.le(a.dims[d].ub, b.dims[d].ub);
    if (lo && hi) continue;
    // Provably outside?
    if (ctx.ge(b.dims[d].lb, iadd(a.dims[d].lb, 1)) ||
        ctx.ge(a.dims[d].ub, iadd(b.dims[d].ub, 1)))
      return false;
    all = false;
  }
  if (all) return true;
  return std::nullopt;
}

std::optional<bool> equal(const Section& a, const Section& b,
                          const Assumptions& ctx) {
  if (!dims_ok(a, b)) return std::nullopt;
  bool all = true;
  for (std::size_t d = 0; d < a.dims.size(); ++d) {
    bool same = ctx.eq(a.dims[d].lb, b.dims[d].lb) &&
                ctx.eq(a.dims[d].ub, b.dims[d].ub);
    if (same) continue;
    // Provably different in this dimension?
    if (ctx.ge(a.dims[d].lb, iadd(b.dims[d].lb, 1)) ||
        ctx.ge(b.dims[d].lb, iadd(a.dims[d].lb, 1)) ||
        ctx.ge(a.dims[d].ub, iadd(b.dims[d].ub, 1)) ||
        ctx.ge(b.dims[d].ub, iadd(a.dims[d].ub, 1)))
      return false;
    all = false;
  }
  if (all) return true;
  return std::nullopt;
}

std::optional<bool> disjoint(const Section& a, const Section& b,
                             const Assumptions& ctx) {
  if (!dims_ok(a, b)) return std::nullopt;
  for (std::size_t d = 0; d < a.dims.size(); ++d) {
    if (ctx.ge(a.dims[d].lb, iadd(b.dims[d].ub, 1))) return true;
    if (ctx.ge(b.dims[d].lb, iadd(a.dims[d].ub, 1))) return true;
  }
  return std::nullopt;
}

std::vector<SplitBoundary> split_boundaries(const Section& a,
                                            const Section& b,
                                            const Assumptions& ctx) {
  std::vector<SplitBoundary> strict;  // disjoint piece provably nonempty
  std::vector<SplitBoundary> weak;    // piece may be empty on some inputs
  if (!dims_ok(a, b)) return strict;
  for (std::size_t d = 0; d < a.dims.size(); ++d) {
    const Triplet& ta = a.dims[d];
    const Triplet& tb = b.dims[d];
    // Upper side: one section extends at least as far up as the other.
    // Splitting the taller one at the other's upper bound leaves a
    // disjoint (possibly empty, when only >= is provable) top piece.
    auto upper = [&](const Triplet& small, const Triplet& big,
                     bool split_b) {
      SplitBoundary cand{.dim = d, .split_b = split_b,
                         .boundary = small.ub, .upper_side = true};
      if (ctx.ge(big.ub, iadd(small.ub, 1)))
        strict.push_back(cand);
      else if (ctx.ge(big.ub, small.ub))
        weak.push_back(cand);
    };
    upper(ta, tb, /*split_b=*/true);
    upper(tb, ta, /*split_b=*/false);
    // Lower side: one section starts at least as low as the other.
    // Splitting the lower one at other.lb - 1 leaves a disjoint bottom
    // piece.
    auto lower = [&](const Triplet& high, const Triplet& low,
                     bool split_b) {
      SplitBoundary cand{.dim = d, .split_b = split_b,
                         .boundary = ir::simplify(isub(high.lb, 1)),
                         .upper_side = false};
      if (ctx.ge(high.lb, iadd(low.lb, 1)))
        strict.push_back(cand);
      else if (ctx.ge(high.lb, low.lb))
        weak.push_back(cand);
    };
    lower(ta, tb, /*split_b=*/true);
    lower(tb, ta, /*split_b=*/false);
  }
  strict.insert(strict.end(), weak.begin(), weak.end());
  return strict;
}

}  // namespace blk::analysis
