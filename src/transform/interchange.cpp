#include "transform/interchange.hpp"

#include <set>

#include "analysis/ddtest.hpp"
#include "analysis/refs.hpp"
#include "ir/affine.hpp"
#include "ir/error.hpp"
#include "transform/instrument.hpp"

namespace blk::transform {

using namespace blk::ir;
using analysis::Assumptions;

namespace {

[[nodiscard]] bool unit_step(const Loop& l) {
  return l.step->kind == IKind::Const && l.step->value == 1;
}

}  // namespace

bool interchange_legal(StmtList& root, Loop& outer,
                       const Assumptions* ctx) {
  if (outer.body.size() != 1 || outer.body[0]->kind() != SKind::Loop)
    return false;
  Loop& inner = outer.body[0]->as_loop();

  // Per-iteration temporaries carry only register-reuse dependences;
  // reordering may ignore them because every iteration can take a private
  // copy.
  const std::set<std::string> priv = analysis::private_scalars(root, outer);

  for (const auto& d : analysis::dependences_within(root, outer, ctx)) {
    if (d.src.is_scalar() && priv.contains(d.src.array)) continue;
    // Locate the two loops in the dependence's common-loop prefix.
    std::size_t depth = d.src.common_depth(d.dst);
    auto pos_of = [&](const Loop* l) -> std::optional<std::size_t> {
      for (std::size_t i = 0; i < depth; ++i)
        if (d.src.loops[i] == l) return i;
      return std::nullopt;
    };
    auto po = pos_of(&outer);
    auto pi = pos_of(&inner);
    if (!po || !pi) continue;
    for (const auto& v : d.vectors)
      if (v[*po] == analysis::Dir::LT && v[*pi] == analysis::Dir::GT)
        return false;  // interchange would reverse this dependence
  }
  return true;
}

Loop& do_interchange(Loop& outer) {
  Loop& inner = outer.body[0]->as_loop();
  if (!unit_step(outer) || !unit_step(inner))
    throw Error("interchange: both loops must have unit step");

  const std::string vo = outer.var;
  const std::string vi = inner.var;

  const bool lb_dep = mentions(*inner.lb, vo);
  const bool ub_dep = mentions(*inner.ub, vo);
  if (mentions(*outer.lb, vi) || mentions(*outer.ub, vi))
    throw Error("interchange: malformed nest, outer bound mentions " + vi);

  IExprPtr new_outer_lb, new_outer_ub;  // bounds for the vi loop (outside)
  IExprPtr new_inner_lb, new_inner_ub;  // bounds for the vo loop (inside)

  if (lb_dep && ub_dep) {
    // Both bounds depend on the outer variable — the skewed-wavefront
    // shape.  With positive coefficients a_l, a_u the inner window
    // [a_l*II+b_l, a_u*II+b_u] slides upward as II grows, so the J2 range
    // of the whole nest is [a_l*L+b_l, a_u*U+b_u], and for a fixed J2 the
    // IIs whose window contains it form the interval
    //   [ceil((J2-b_u)/a_u), floor((J2-b_l)/a_l)]  clamped to [L, U].
    // The two linear inequalities cut an exact interval out of [L, U]:
    // the interchanged nest enumerates precisely the original pairs.
    auto fl = as_affine(*inner.lb);
    auto fu = as_affine(*inner.ub);
    if (!fl || !fu)
      throw Error("interchange: inner bound " +
                  to_string(fl ? inner.ub : inner.lb) +
                  " is not affine in " + vo +
                  "; resolve MIN/MAX bounds before interchanging");
    const long al = fl->coef_of(vo);
    const long au = fu->coef_of(vo);
    if (al <= 0 || au <= 0)
      throw Error(
          "interchange: both inner bounds depend on the outer variable (" +
          vo +
          ") with non-positive coefficients; split the iteration space "
          "first");
    IExprPtr bl = from_affine(*fl - Affine::variable(vo, al));
    IExprPtr bu = from_affine(*fu - Affine::variable(vo, au));
    IExprPtr j = ivar(vi);
    new_outer_lb = simplify(iadd(imul(iconst(al), outer.lb), bl));
    new_outer_ub = simplify(iadd(imul(iconst(au), outer.ub), bu));
    new_inner_lb = imax(iceildiv(isub(j, bu), au), outer.lb);
    new_inner_ub = imin(ifloordiv(isub(j, bl), al), outer.ub);
  } else if (!lb_dep && !ub_dep) {
    // Rectangular: plain swap.
    new_outer_lb = inner.lb;
    new_outer_ub = inner.ub;
    new_inner_lb = outer.lb;
    new_inner_ub = outer.ub;
  } else {
    const IExprPtr& dep_bound = lb_dep ? inner.lb : inner.ub;
    auto f = as_affine(*dep_bound);
    if (!f)
      throw Error("interchange: inner bound " + to_string(dep_bound) +
                  " is not affine in " + vo +
                  "; resolve MIN/MAX bounds before interchanging");
    long alpha = f->coef_of(vo);
    if (alpha == 0)
      throw Error("interchange: internal - expected dependence on " + vo);
    Affine beta_aff = *f - Affine::variable(vo, alpha);
    IExprPtr beta = from_affine(beta_aff);
    IExprPtr j = ivar(vi);

    if (lb_dep && alpha > 0) {
      // DO II=L,U / DO J=a*II+b,M  =>  DO J=a*L+b,M / DO II=L,MIN((J-b)/a,U)
      new_outer_lb = simplify(iadd(imul(iconst(alpha), outer.lb), beta));
      new_outer_ub = inner.ub;
      new_inner_lb = outer.lb;
      new_inner_ub = imin(ifloordiv(isub(j, beta), alpha), outer.ub);
    } else if (lb_dep) {
      // a < 0: J >= a*II+b  <=>  II >= ceil((b-J)/(-a))
      long a = -alpha;
      new_outer_lb = simplify(iadd(imul(iconst(alpha), outer.ub), beta));
      new_outer_ub = inner.ub;
      new_inner_lb = imax(iceildiv(isub(beta, j), a), outer.lb);
      new_inner_ub = outer.ub;
    } else if (alpha > 0) {
      // DO II=L,U / DO J=M,a*II+b  =>  J <= a*II+b  <=>  II >= ceil((J-b)/a)
      new_outer_lb = inner.lb;
      new_outer_ub = simplify(iadd(imul(iconst(alpha), outer.ub), beta));
      new_inner_lb = imax(iceildiv(isub(j, beta), alpha), outer.lb);
      new_inner_ub = outer.ub;
    } else {
      // ub depends, a < 0: J <= a*II+b  <=>  II <= floor((b-J)/(-a))
      long a = -alpha;
      new_outer_lb = inner.lb;
      new_outer_ub = simplify(iadd(imul(iconst(alpha), outer.lb), beta));
      new_inner_lb = outer.lb;
      new_inner_ub = imin(ifloordiv(isub(beta, j), a), outer.ub);
    }
  }

  // Rebuild in place: the tree node that was `outer` becomes the vi loop;
  // a fresh node inside it becomes the vo loop carrying the old body.
  StmtList body = std::move(inner.body);
  StmtPtr new_inner = make_loop(vo, std::move(new_inner_lb),
                                std::move(new_inner_ub), std::move(body));
  Loop& result = new_inner->as_loop();
  outer.var = vi;
  outer.lb = simplify(new_outer_lb);
  outer.ub = simplify(new_outer_ub);
  outer.body.clear();
  outer.body.push_back(std::move(new_inner));
  return result;
}

void interchange(StmtList& root, Loop& outer, bool check,
                 const Assumptions* ctx) {
  PassScope scope("interchange", root);
  if (outer.body.size() != 1 || outer.body[0]->kind() != SKind::Loop)
    throw Error("interchange: loop " + outer.var +
                " is not perfectly nested over a single inner loop");
  if (check && !interchange_legal(root, outer, ctx))
    throw Error("interchange: dependences forbid interchanging " +
                outer.var + " with " + outer.body[0]->as_loop().var);
  do_interchange(outer);
}

int sink_loop(StmtList& root, Loop& loop, bool check,
              const Assumptions* ctx) {
  int count = 0;
  Loop* current = &loop;
  while (current->body.size() == 1 &&
         current->body[0]->kind() == SKind::Loop) {
    if (check && !interchange_legal(root, *current, ctx)) break;
    current = &do_interchange(*current);
    ++count;
  }
  return count;
}

}  // namespace blk::transform
