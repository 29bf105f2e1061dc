#include "transform/unrolljam.hpp"

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
    throw Error("unroll_and_jam: loop " + loop.var + " not found in tree");
  return finder.found;
}

/// Merge `factor` unrolled copies of a statement list position-by-position.
StmtList jam(std::vector<StmtList> copies) {
  StmtList out;
  if (copies.empty()) return out;
  std::size_t len = copies[0].size();
  for (const auto& c : copies)
    if (c.size() != len)
      throw Error("unroll_and_jam: copies diverge in statement count");
  for (std::size_t i = 0; i < len; ++i) {
    SKind kind = copies[0][i]->kind();
    for (const auto& c : copies)
      if (c[i]->kind() != kind)
        throw Error("unroll_and_jam: copies diverge in statement kind");
    switch (kind) {
      case SKind::Assign:
        for (auto& c : copies) out.push_back(std::move(c[i]));
        break;
      case SKind::Loop: {
        Loop& first = copies[0][i]->as_loop();
        std::vector<StmtList> bodies;
        for (auto& c : copies) {
          Loop& l = c[i]->as_loop();
          if (!provably_equal(l.lb, first.lb) ||
              !provably_equal(l.ub, first.ub) ||
              !provably_equal(l.step, first.step))
            throw Error(
                "unroll_and_jam: inner loop bounds depend on the unrolled "
                "variable; use the triangular variant");
          if (l.var != first.var)
            throw Error("unroll_and_jam: inner variable mismatch");
          bodies.push_back(std::move(l.body));
        }
        first.body = jam(std::move(bodies));
        out.push_back(std::move(copies[0][i]));
        break;
      }
      case SKind::If: {
        If& first = copies[0][i]->as_if();
        std::vector<StmtList> thens, elses;
        for (auto& c : copies) {
          If& f = c[i]->as_if();
          if (!same_vexpr(*f.cond.lhs, *first.cond.lhs) ||
              f.cond.op != first.cond.op ||
              !same_vexpr(*f.cond.rhs, *first.cond.rhs))
            throw Error(
                "unroll_and_jam: IF condition depends on the unrolled "
                "variable; apply IF-inspection first");
          thens.push_back(std::move(f.then_body));
          elses.push_back(std::move(f.else_body));
        }
        first.then_body = jam(std::move(thens));
        first.else_body = jam(std::move(elses));
        out.push_back(std::move(copies[0][i]));
        break;
      }
    }
  }
  return out;
}

/// Unrolled copies of `body` with `var` shifted by 0..factor-1.  Jamming
/// interleaves the copies' statements, so each copy past the first gets
/// its own temporary for every scalar in `priv` (analysis::private_scalars
/// of the jammed loop): shared, one copy would clobber another's value
/// between its definition and its use.
std::vector<StmtList> make_copies(Program& p, const StmtList& body,
                                  const std::string& var, long factor,
                                  const std::set<std::string>& priv) {
  std::vector<StmtList> copies;
  copies.reserve(static_cast<std::size_t>(factor));
  for (long k = 0; k < factor; ++k) {
    StmtList c = clone_list(body);
    if (k != 0) {
      substitute_index_in_list(c, var, iadd(ivar(var), iconst(k)));
      for (const std::string& name : priv) {
        std::string fresh = name + std::to_string(k);
        while (p.has_scalar(fresh) || p.has_array(fresh) ||
               p.has_param(fresh))
          fresh += "P";
        p.temporary(fresh);
        rename_scalar(c, name, fresh);
      }
    }
    copies.push_back(std::move(c));
  }
  return copies;
}

/// Append the remainder loop after the (mutated-in-place) main loop.
/// `original_body` is a pristine clone of the pre-transformation body.
void add_remainder(StmtList& parent, std::size_t index, const Loop& main,
                   IExprPtr orig_lb, IExprPtr orig_ub, StmtList body) {
  // First iteration not covered by the main loop:
  //   lb + floor(max(trip, 0)/factor) * factor
  // The MAX guard keeps an originally empty loop (negative trip count)
  // from spawning phantom iterations below the lower bound.
  IExprPtr trip =
      imax(iadd(isub(orig_ub, orig_lb), iconst(1)), iconst(0));
  IExprPtr rem_lb = simplify(
      iadd(orig_lb, imul(ifloordiv(trip, main.const_step()),
                         iconst(main.const_step()))));
  StmtPtr rem =
      make_loop(main.var, std::move(rem_lb), std::move(orig_ub),
                std::move(body));
  parent.insert(parent.begin() + static_cast<long>(index) + 1,
                std::move(rem));
}

}  // namespace

bool unroll_and_jam_legal(StmtList& root, Loop& loop, long factor,
                          const Assumptions* ctx) {
  // The jam gives every copy its own private scalars (make_copies).
  const std::set<std::string> priv = analysis::private_scalars(root, loop);
  for (const auto& d : analysis::dependences_within(root, loop, ctx)) {
    if (d.src.is_scalar() && priv.contains(d.src.array)) continue;
    std::size_t depth = d.src.common_depth(d.dst);
    std::optional<std::size_t> pos;
    for (std::size_t i = 0; i < depth; ++i)
      if (d.src.loops[i] == &loop) pos = i;
    if (!pos) continue;
    for (const auto& v : d.vectors) {
      if (v[*pos] != analysis::Dir::LT) continue;
      // (<, ..., >) against an inner loop: reversed by the jam.
      for (std::size_t j = *pos + 1; j < v.size(); ++j)
        if (v[j] == analysis::Dir::GT) return false;
      // Later-statement -> earlier-statement carried within the strip:
      // after jamming, all of the earlier statement's copies run first,
      // reversing the dependence unless the carried distance clears the
      // strip.
      if (d.src.textual_pos > d.dst.textual_pos) {
        auto dist = d.distance_at(*pos);
        if (!dist || *dist < factor) return false;
      }
    }
  }
  return true;
}

void unroll_and_jam(Program& p, Loop& loop, long factor,
                    const Assumptions* ctx, bool check) {
  StmtList& root = p.body;
  PassScope scope("unroll-and-jam", root);
  if (factor < 2) throw Error("unroll_and_jam: factor must be >= 2");
  if (!(loop.step->kind == IKind::Const && loop.step->value == 1))
    throw Error("unroll_and_jam: loop must have unit step");
  if (check && !unroll_and_jam_legal(root, loop, factor, ctx))
    throw Error("unroll_and_jam: dependences forbid jamming " + loop.var);

  LoopLocation loc = locate(root, loop);
  IExprPtr orig_lb = loop.lb;
  IExprPtr orig_ub = loop.ub;
  StmtList pristine = clone_list(loop.body);

  loop.body = jam(make_copies(p, loop.body, loop.var, factor,
                              analysis::private_scalars(root, loop)));
  loop.ub = simplify(isub(loop.ub, iconst(factor - 1)));
  loop.step = iconst(factor);
  add_remainder(*loc.parent, loc.index, loop, std::move(orig_lb),
                std::move(orig_ub), std::move(pristine));
}

bool triangular_nest(const Loop& loop) {
  if (loop.body.size() != 1 || loop.body[0]->kind() != SKind::Loop)
    return false;
  const Loop& inner = loop.body[0]->as_loop();
  // The split J loops step by one; a strided J range would lose its phase.
  if (!(inner.step->kind == IKind::Const && inner.step->value == 1))
    return false;
  auto tracks = [&](const IExprPtr& bound, const IExprPtr& other) {
    auto f = as_affine(*bound);
    return f && f->coef_of(loop.var) == 1 && !mentions(*other, loop.var);
  };
  return tracks(inner.lb, inner.ub) || tracks(inner.ub, inner.lb);
}

void unroll_and_jam_triangular(Program& p, Loop& loop, long factor,
                               const Assumptions* ctx, bool check) {
  StmtList& root = p.body;
  PassScope scope("unroll-and-jam-triangular", root);
  if (factor < 2)
    throw Error("unroll_and_jam_triangular: factor must be >= 2");
  if (loop.body.size() != 1 || loop.body[0]->kind() != SKind::Loop)
    throw Error(
        "unroll_and_jam_triangular: need a perfect 2-deep nest under " +
        loop.var);
  if (!triangular_nest(loop))
    throw Error("unroll_and_jam_triangular: need a unit-step inner loop "
                "with one bound " + loop.var + " + beta (slope one) and the "
                "other free of " + loop.var);
  if (check && !unroll_and_jam_legal(root, loop, factor, ctx))
    throw Error("unroll_and_jam_triangular: dependences forbid jamming " +
                loop.var);

  Loop& inner = loop.body[0]->as_loop();
  const std::string i = loop.var;
  const std::string it = i + "T";  // induction variable of the ragged part
  auto flb = as_affine(*inner.lb);
  const bool lower = flb && flb->coef_of(i) == 1;
  IExprPtr fixed = lower ? inner.ub : inner.lb;  // the bound free of I
  IExprPtr beta = from_affine(*as_affine(lower ? *inner.lb : *inner.ub) -
                              Affine::variable(i, 1));
  auto at = [&](const std::string& var, long k) {  // var + k + beta
    return simplify(iadd(iadd(ivar(var), iconst(k)), beta));
  };

  LoopLocation loc = locate(root, loop);
  IExprPtr orig_lb = loop.lb;
  IExprPtr orig_ub = loop.ub;
  std::string jvar = inner.var;
  const std::set<std::string> priv = analysis::private_scalars(root, loop);
  StmtList pristine = clone_list(loop.body);
  StmtList inner_body = std::move(inner.body);

  // The J range all `factor` copies share, jammed; each copy keeps its
  // ascending J order across the two parts.
  StmtList ragged_body = clone_list(inner_body);
  substitute_index_in_list(ragged_body, i, ivar(it));
  StmtList rect_body = jam(make_copies(p, inner_body, i, factor, priv));
  StmtList ragged;
  loop.body.clear();
  if (lower) {
    // Triangular head, then the rectangle:
    //   DO IT = I, I+f-2 / DO J = IT+beta, MIN(I+f-2+beta, M)
    //   DO J = I+f-1+beta, M
    ragged.push_back(make_loop(jvar, at(it, 0),
                               imin(at(i, factor - 2), fixed),
                               std::move(ragged_body)));
    loop.body.push_back(make_loop(it, ivar(i),
                                  simplify(iadd(ivar(i), iconst(factor - 2))),
                                  std::move(ragged)));
    loop.body.push_back(make_loop(jvar, at(i, factor - 1), fixed,
                                  std::move(rect_body)));
  } else {
    // The rectangle, then the triangular tail:
    //   DO J = L, I+beta
    //   DO IT = I+1, I+f-1 / DO J = MAX(L, I+beta+1), IT+beta
    loop.body.push_back(
        make_loop(jvar, fixed, at(i, 0), std::move(rect_body)));
    ragged.push_back(make_loop(jvar, imax(fixed, at(i, 1)), at(it, 0),
                               std::move(ragged_body)));
    loop.body.push_back(make_loop(it, simplify(iadd(ivar(i), iconst(1))),
                                  simplify(iadd(ivar(i), iconst(factor - 1))),
                                  std::move(ragged)));
  }
  loop.ub = simplify(isub(loop.ub, iconst(factor - 1)));
  loop.step = iconst(factor);
  add_remainder(*loc.parent, loc.index, loop, std::move(orig_lb),
                std::move(orig_ub), std::move(pristine));
}

}  // namespace blk::transform
