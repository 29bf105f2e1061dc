#include "verify/lint.hpp"

#include <map>
#include <span>
#include <string>

#include "analysis/sections.hpp"
#include "ir/validate.hpp"

namespace blk::verify {

using namespace blk::ir;
using analysis::Assumptions;
using analysis::RefInfo;

namespace {

/// Intersect the bounded regular section of one array reference (all its
/// enclosing loops swept over their full ranges) with the declared
/// extents, proved under the caller's facts alone.  Under an IF guard a
/// provable violation is demoted to a warning (the guard may exclude the
/// extreme iterations).
void check_oob(const Program& p, const RefInfo& ref,
               const StmtTable::At& at, const Assumptions& ctx,
               bool pedantic, Report& rep) {
  if (!p.has_array(ref.array)) return;  // structural diagnostics cover this
  const ArrayDecl& decl = p.array_decl(ref.array);
  if (decl.rank() != ref.subs.size()) return;  // ditto (rank mismatch)
  const std::string& array = ref.array;
  analysis::Section sec =
      analysis::section_of(ref, std::span<Loop* const>(ref.loops));

  for (std::size_t d = 0; d < decl.rank(); ++d) {
    const auto& t = sec.dims[d];
    if (!t.lb || !t.ub) {
      if (pedantic)
        rep.add(Severity::Note, "unanalyzable-subscript",
                "subscript " + std::to_string(d + 1) + " of " + array +
                    " defeats section analysis; bounds not checked",
                at.where, static_cast<int>(d + 1));
      continue;
    }
    bool above = ctx.ge(t.ub, iadd(decl.dims[d].ub, iconst(1)));
    bool below = ctx.le(t.lb, isub(decl.dims[d].lb, iconst(1)));
    if (above || below) {
      std::string extent = ir::to_string(decl.dims[d].lb) + ":" +
                           ir::to_string(decl.dims[d].ub);
      std::string msg = "subscript " + std::to_string(d + 1) + " of " +
                        array + " spans " + t.to_string() + " but " + array +
                        " is declared " + extent +
                        (above ? " (exceeds upper bound)"
                               : " (below lower bound)");
      if (at.guard > 0)
        rep.add(Severity::Warning, "oob-subscript-guarded",
                msg + "; an enclosing IF may exclude the violation",
                at.where, static_cast<int>(d + 1));
      else
        rep.add(Severity::Error, "oob-subscript", msg, at.where,
                static_cast<int>(d + 1));
      continue;
    }
    if (pedantic &&
        !(ctx.ge(t.lb, decl.dims[d].lb) && ctx.le(t.ub, decl.dims[d].ub)))
      rep.add(Severity::Note, "unproven-bounds",
              "subscript " + std::to_string(d + 1) + " of " + array +
                  " spans " + t.to_string() +
                  ", not provably within the declared extent",
              at.where, static_cast<int>(d + 1));
  }
}

/// Declared scalars whose first read (a value, a subscript or a bound)
/// comes no later than their first write in pre-order; the statement
/// reading first names the finding.  Never-written scalars are inputs.
void check_scalar_uses(const Program& p, const StmtTable& at, Report& rep) {
  struct FirstUse {
    int read = -1;
    int write = -1;
  };
  std::map<std::string, FirstUse> uses;
  for (const RefInfo& r : at.refs()) {
    if (!r.is_scalar() || !p.has_scalar(r.array)) continue;
    int& first = r.is_write ? uses[r.array].write : uses[r.array].read;
    if (first < 0) first = r.textual_pos;
  }
  for (const auto& [name, use] : uses)
    if (use.write >= 0 && use.read >= 0 && use.read <= use.write)
      rep.add(Severity::Warning, "use-before-def",
              "scalar " + name +
                  " is read before its first write (textual order); "
                  "its initial value is undefined unless set externally",
              at[use.read].where);
}

}  // namespace

Report lint(Program& p, const LintOptions& opt) {
  Report rep;
  // Structural invariants first (undeclared names, rank mismatches with
  // subscript positions, shadowed induction variables).
  for (auto& problem : ir::validate(p))
    rep.add(Severity::Error, "structure", std::move(problem));

  const StmtTable at(p);
  const Assumptions base = opt.ctx ? *opt.ctx : Assumptions{};
  // Nothing inside a loop that provably never runs under the facts and the
  // ranges around it executes, so nothing there is checked; its own bounds
  // are evaluated and are.
  const std::vector<int> empty = at.empty_loops(base);
  auto ref = at.refs().begin();
  for (int pos = 1; pos <= at.size(); ++pos) {
    for (; ref != at.refs().end() && ref->textual_pos == pos; ++ref)
      if (empty[pos] == 0 || empty[pos] == pos)
        check_oob(p, *ref, at[pos], base, opt.pedantic, rep);
    if (empty[pos] != pos) continue;
    const Loop& l = at[pos].stmt->as_loop();
    rep.add(Severity::Warning, "zero-trip-loop",
            "loop " + l.var + " never executes: range " +
                ir::to_string(l.lb) + ".." + ir::to_string(l.ub) +
                " is provably empty under the assumptions",
            at[pos].where);
  }
  check_scalar_uses(p, at, rep);
  rep.canonicalize();
  return rep;
}

}  // namespace blk::verify
