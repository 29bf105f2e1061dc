#include "verify/diagnostic.hpp"

#include <algorithm>
#include <sstream>

#include "ir/printer.hpp"

namespace blk::verify {

const char* to_string(Severity s) {
  switch (s) {
    case Severity::Note: return "note";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

std::string Diagnostic::to_string() const {
  std::ostringstream os;
  os << verify::to_string(severity) << " [" << code << "] " << message;
  if (subscript > 0) os << " (subscript " << subscript << ")";
  if (!where.empty()) os << "\n    at " << where;
  return os.str();
}

std::string describe(const ir::Stmt& s) {
  switch (s.kind()) {
    case ir::SKind::Loop:
      return "DO " + s.as_loop().var;
    case ir::SKind::If:
      return "IF (" + ir::to_string(s.as_if().cond) + ")";
    case ir::SKind::Assign:
      break;
  }
  const ir::Assign& a = s.as_assign();
  std::string out;
  if (a.label != 0) out += std::to_string(a.label) + ": ";
  out += a.lhs.name;
  if (a.lhs.is_array()) {
    out += "(";
    for (std::size_t i = 0; i < a.lhs.subs.size(); ++i) {
      if (i) out += ",";
      out += ir::to_string(a.lhs.subs[i]);
    }
    out += ")";
  }
  return out + "=...";
}

StmtTable::StmtTable(ir::Program& p) : refs_(analysis::collect_refs(p.body)) {
  std::vector<ir::Loop*> loops;
  number(p.body, "", loops, 0);
}

void StmtTable::number(ir::StmtList& body, const std::string& where,
                       std::vector<ir::Loop*>& loops, int guard) {
  for (auto& s : body) {
    const auto pos = stmts_.size();
    std::string path =
        where.empty() ? describe(*s) : where + " > " + describe(*s);
    stmts_.push_back(
        {.stmt = s.get(), .where = path, .loops = loops, .guard = guard});
    switch (s->kind()) {
      case ir::SKind::Loop:
        loops.push_back(&s->as_loop());
        number(s->as_loop().body, path, loops, guard);
        loops.pop_back();
        break;
      case ir::SKind::If:
        number(s->as_if().then_body, path, loops, static_cast<int>(pos));
        number(s->as_if().else_body, path, loops, static_cast<int>(pos));
        break;
      case ir::SKind::Assign:
        break;
    }
    stmts_[pos].last = size();
  }
}

std::span<const analysis::RefInfo> StmtTable::subtree(int pos) const {
  auto lo = std::ranges::lower_bound(refs_, pos, {},
                                     &analysis::RefInfo::textual_pos);
  auto hi = std::ranges::upper_bound(refs_, (*this)[pos].last, {},
                                     &analysis::RefInfo::textual_pos);
  return {lo, hi};
}

analysis::Assumptions StmtTable::context(int pos,
                                         analysis::Assumptions base) const {
  for (const ir::Loop* l : (*this)[pos].loops)
    base.add_loop_range(l->var, l->lb, l->ub, l->step);
  return base;
}

std::vector<int> StmtTable::empty_loops(
    const analysis::Assumptions& base) const {
  std::vector<int> out(stmts_.size());
  for (int pos = 1; pos <= size(); ++pos) {
    const At& at = (*this)[pos];
    if (out[pos] != 0 || at.stmt->kind() != ir::SKind::Loop) continue;
    const ir::Loop& l = at.stmt->as_loop();
    const analysis::Assumptions ctx = context(pos, base);
    const bool descending =
        l.step->kind == ir::IKind::Const && l.step->value < 0;
    if (descending ? ctx.le(l.lb, ir::isub(l.ub, ir::iconst(1)))
                   : ctx.ge(l.lb, ir::iadd(l.ub, ir::iconst(1))))
      std::fill(out.begin() + pos, out.begin() + at.last + 1, pos);
  }
  return out;
}

bool Report::ok() const {
  return std::none_of(diags.begin(), diags.end(), [](const Diagnostic& d) {
    return d.severity == Severity::Error;
  });
}

std::size_t Report::error_count() const {
  return static_cast<std::size_t>(
      std::count_if(diags.begin(), diags.end(), [](const Diagnostic& d) {
        return d.severity == Severity::Error;
      }));
}

std::size_t Report::warning_count() const {
  return static_cast<std::size_t>(
      std::count_if(diags.begin(), diags.end(), [](const Diagnostic& d) {
        return d.severity == Severity::Warning;
      }));
}

std::string Report::to_string() const {
  std::ostringstream os;
  for (const auto& d : diags) os << d.to_string() << "\n";
  return os.str();
}

void Report::add(Severity sev, std::string code, std::string message,
                 std::string where, int subscript) {
  diags.push_back({.severity = sev,
                   .code = std::move(code),
                   .message = std::move(message),
                   .where = std::move(where),
                   .subscript = subscript});
}

void Report::merge(const Report& other) {
  diags.insert(diags.end(), other.diags.begin(), other.diags.end());
}

void Report::canonicalize() {
  std::stable_sort(diags.begin(), diags.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.where != b.where) return a.where < b.where;
                     if (a.code != b.code) return a.code < b.code;
                     if (a.subscript != b.subscript)
                       return a.subscript < b.subscript;
                     return static_cast<int>(a.severity) >
                            static_cast<int>(b.severity);
                   });
  auto last = std::unique(diags.begin(), diags.end(),
                          [](const Diagnostic& a, const Diagnostic& b) {
                            return a.code == b.code && a.where == b.where &&
                                   a.subscript == b.subscript;
                          });
  diags.erase(last, diags.end());
}

}  // namespace blk::verify
