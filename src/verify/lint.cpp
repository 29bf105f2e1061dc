#include "verify/lint.hpp"

#include <map>
#include <span>
#include <string>
#include <vector>

#include "analysis/refs.hpp"
#include "analysis/sections.hpp"
#include "ir/validate.hpp"

namespace blk::verify {

using namespace blk::ir;
using analysis::Assumptions;

namespace {

/// First textual read/write position of each scalar, with the path of the
/// earliest read (for the use-before-def diagnostic).
struct ScalarUse {
  int first_read = -1;
  int first_write = -1;
  std::string read_path;
};

struct Linter {
  Program& p;
  const LintOptions& opt;
  Report rep;

  std::vector<Loop*> loops;        ///< enclosing loops, outermost first
  StmtPath path;                   ///< human-readable statement path
  std::vector<Assumptions> ctxs;   ///< assumption context per nesting level
  int if_depth = 0;
  int dead_depth = 0;  ///< > 0 inside a provably zero-trip loop
  int counter = 0;     ///< pre-order statement index
  std::map<std::string, ScalarUse> scalar_uses;

  explicit Linter(Program& prog, const LintOptions& o) : p(prog), opt(o) {
    ctxs.push_back(o.ctx ? *o.ctx : Assumptions{});
  }

  void note_scalar_read(const std::string& name) {
    if (!p.has_scalar(name)) return;
    auto& u = scalar_uses[name];
    if (u.first_read < 0) {
      u.first_read = counter;
      u.read_path = path.str();
    }
  }

  void note_scalar_write(const std::string& name) {
    if (!p.has_scalar(name)) return;
    auto& u = scalar_uses[name];
    if (u.first_write < 0) u.first_write = counter;
  }

  /// Scalars read from index position (free variables of subscripts and
  /// loop bounds that name declared scalars, e.g. the pivot row IMAX) and
  /// integer-array reads used as bounds (ArrayElem).
  void scan_iexpr(const IExpr& e) {
    switch (e.kind) {
      case IKind::Const:
        return;
      case IKind::Var:
        note_scalar_read(e.name);
        return;
      case IKind::ArrayElem:
        check_elem_bounds(e);
        scan_iexpr(*e.lhs);
        return;
      default:
        if (e.lhs) scan_iexpr(*e.lhs);
        if (e.rhs) scan_iexpr(*e.rhs);
        return;
    }
  }

  /// Bounds-check a rank-1 integer array used in index position.
  void check_elem_bounds(const IExpr& e) {
    if (!p.has_array(e.name) || p.array_decl(e.name).rank() != 1) return;
    std::vector<IExprPtr> subs{e.lhs};
    check_oob(e.name, subs, /*is_write=*/false);
  }

  void scan_vexpr(const VExpr& e) {
    switch (e.kind) {
      case VKind::Const:
        return;
      case VKind::ScalarRef:
        note_scalar_read(e.name);
        return;
      case VKind::IndexVal:
        if (e.index) scan_iexpr(*e.index);
        return;
      case VKind::ArrayRef:
        check_oob(e.name, e.subs, /*is_write=*/false);
        for (const auto& s : e.subs)
          if (s) scan_iexpr(*s);
        return;
      case VKind::Bin:
        if (e.lhs) scan_vexpr(*e.lhs);
        if (e.rhs) scan_vexpr(*e.rhs);
        return;
      case VKind::Un:
        if (e.lhs) scan_vexpr(*e.lhs);
        return;
    }
  }

  /// Intersect the bounded regular section of one reference (all enclosing
  /// loops swept over their full ranges) with the declared extents.  Under
  /// a provably zero-trip loop the access never happens, so nothing is
  /// reported; under an IF guard a provable violation is demoted to a
  /// warning (the guard may exclude the extreme iterations).
  void check_oob(const std::string& array, const std::vector<IExprPtr>& subs,
                 bool is_write) {
    if (dead_depth > 0) return;
    if (!p.has_array(array)) return;  // structural diagnostics cover this
    const ArrayDecl& decl = p.array_decl(array);
    if (decl.rank() != subs.size()) return;  // ditto (rank mismatch)
    for (const auto& s : subs)
      if (!s) return;

    analysis::RefInfo ref{.stmt = nullptr,
                          .owner = nullptr,
                          .is_write = is_write,
                          .array = array,
                          .subs = subs,
                          .loops = loops,
                          .textual_pos = counter};
    analysis::Section sec =
        analysis::section_of(ref, std::span<Loop* const>(loops));
    const Assumptions& ctx = ctxs.front();  // all loops expanded away

    for (std::size_t d = 0; d < decl.rank(); ++d) {
      const auto& t = sec.dims[d];
      if (!t.lb || !t.ub) {
        if (opt.pedantic)
          rep.add(Severity::Note, "unanalyzable-subscript",
                  "subscript " + std::to_string(d + 1) + " of " + array +
                      " defeats section analysis; bounds not checked",
                  path.str(), static_cast<int>(d + 1));
        continue;
      }
      bool above = ctx.ge(t.ub, iadd(decl.dims[d].ub, iconst(1)));
      bool below = ctx.le(t.lb, isub(decl.dims[d].lb, iconst(1)));
      if (above || below) {
        std::string extent = ir::to_string(decl.dims[d].lb) + ":" +
                             ir::to_string(decl.dims[d].ub);
        std::string msg = "subscript " + std::to_string(d + 1) + " of " +
                          array + " spans " + t.to_string() + " but " +
                          array + " is declared " + extent +
                          (above ? " (exceeds upper bound)"
                                 : " (below lower bound)");
        if (if_depth > 0)
          rep.add(Severity::Warning, "oob-subscript-guarded",
                  msg + "; an enclosing IF may exclude the violation",
                  path.str(), static_cast<int>(d + 1));
        else
          rep.add(Severity::Error, "oob-subscript", msg, path.str(),
                  static_cast<int>(d + 1));
        continue;
      }
      if (opt.pedantic &&
          !(ctx.ge(t.lb, decl.dims[d].lb) && ctx.le(t.ub, decl.dims[d].ub)))
        rep.add(Severity::Note, "unproven-bounds",
                "subscript " + std::to_string(d + 1) + " of " + array +
                    " spans " + t.to_string() +
                    ", not provably within the declared extent",
                path.str(), static_cast<int>(d + 1));
    }
  }

  void walk(StmtList& body) {
    for (auto& s : body) {
      if (!s) continue;  // structural diagnostics cover null statements
      ++counter;
      switch (s->kind()) {
        case SKind::Assign: {
          Assign& a = s->as_assign();
          path.push(*s);
          // Fortran order: the RHS (and subscripts) read before the LHS
          // writes, so scan reads first for use-before-def precision.
          if (a.rhs) scan_vexpr(*a.rhs);
          if (a.lhs.is_array()) {
            check_oob(a.lhs.name, a.lhs.subs, /*is_write=*/true);
            for (const auto& sub : a.lhs.subs)
              if (sub) scan_iexpr(*sub);
          } else {
            note_scalar_write(a.lhs.name);
          }
          path.pop();
          break;
        }
        case SKind::Loop: {
          Loop& l = s->as_loop();
          path.push(*s);
          if (l.lb) scan_iexpr(*l.lb);
          if (l.ub) scan_iexpr(*l.ub);
          if (l.step) scan_iexpr(*l.step);

          bool zero_trip = false;
          if (dead_depth == 0 && l.lb && l.ub && l.step) {
            const Assumptions& ctx = ctxs.back();
            bool descending =
                l.step->kind == IKind::Const && l.step->value < 0;
            zero_trip = descending
                            ? ctx.le(l.lb, isub(l.ub, iconst(1)))
                            : ctx.ge(l.lb, iadd(l.ub, iconst(1)));
            if (zero_trip)
              rep.add(Severity::Warning, "zero-trip-loop",
                      "loop " + l.var + " never executes: range " +
                          ir::to_string(l.lb) + ".." + ir::to_string(l.ub) +
                          " is provably empty under the assumptions",
                      path.str());
          }

          Assumptions inner = ctxs.back();
          if (l.lb && l.ub) inner.add_loop_range(l.var, l.lb, l.ub, l.step);
          ctxs.push_back(std::move(inner));
          loops.push_back(&l);
          if (zero_trip) ++dead_depth;
          walk(l.body);
          if (zero_trip) --dead_depth;
          loops.pop_back();
          ctxs.pop_back();
          path.pop();
          break;
        }
        case SKind::If: {
          If& f = s->as_if();
          path.push(*s);
          if (f.cond.lhs) scan_vexpr(*f.cond.lhs);
          if (f.cond.rhs) scan_vexpr(*f.cond.rhs);
          ++if_depth;
          walk(f.then_body);
          walk(f.else_body);
          --if_depth;
          path.pop();
          break;
        }
      }
    }
  }

  void report_scalar_uses() {
    for (const auto& [name, use] : scalar_uses) {
      if (use.first_write < 0) continue;  // never written: external input
      if (use.first_read >= 0 && use.first_read <= use.first_write)
        rep.add(Severity::Warning, "use-before-def",
                "scalar " + name +
                    " is read before its first write (textual order); "
                    "its initial value is undefined unless set externally",
                use.read_path);
    }
  }
};

}  // namespace

Report lint(Program& p, const LintOptions& opt) {
  Linter linter(p, opt);
  // Structural invariants first (undeclared names, rank mismatches with
  // subscript positions, shadowed induction variables, null nodes).
  for (auto& problem : ir::validate(p))
    linter.rep.add(Severity::Error, "structure", std::move(problem));
  linter.walk(p.body);
  linter.report_scalar_uses();
  linter.rep.canonicalize();
  return std::move(linter.rep);
}

}  // namespace blk::verify
