// Loop-bound clean-up shared by the blocking pipelines.
#include "transform/blocking.hpp"

#include "transform/instrument.hpp"

namespace blk::transform {

using namespace blk::ir;
using analysis::Assumptions;

void simplify_bounds_in(StmtList& body, Assumptions ctx) {
  for (auto& s : body) {
    switch (s->kind()) {
      case SKind::Assign:
        break;
      case SKind::Loop: {
        Loop& l = s->as_loop();
        l.lb = simplify(ctx.resolve_minmax(l.lb));
        l.ub = simplify(ctx.resolve_minmax(l.ub));
        Assumptions inner = ctx;
        inner.add_loop_range(l);
        simplify_bounds_in(l.body, std::move(inner));
        break;
      }
      case SKind::If: {
        If& f = s->as_if();
        simplify_bounds_in(f.then_body, ctx);
        simplify_bounds_in(f.else_body, ctx);
        break;
      }
    }
  }
}

void simplify_all_bounds(StmtList& body, const Assumptions& hints) {
  PassScope scope("simplify-bounds", body);
  simplify_bounds_in(body, hints);
}

void normalize_loop(StmtList& root, Loop& loop, long origin) {
  PassScope scope("normalize", root);
  // var = var' + (lb - origin):  var' runs from origin to origin+(ub-lb).
  IExprPtr shift = simplify(isub(loop.lb, iconst(origin)));
  if (shift->kind == IKind::Const && shift->value == 0) return;
  substitute_index_in_list(loop.body, loop.var,
                           iadd(ivar(loop.var), shift));
  loop.ub = simplify(isub(loop.ub, shift));
  loop.lb = iconst(origin);
}

}  // namespace blk::transform
