#include "verify/depcheck.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/ddtest.hpp"
#include "analysis/refs.hpp"
#include "transform/pattern.hpp"

namespace blk::verify {

using namespace blk::ir;
using analysis::DepType;
using analysis::Dependence;
using analysis::RefInfo;

namespace {

// ---- Statement-correspondence keys -----------------------------------------

[[nodiscard]] char bop_char(BinOp op) {
  switch (op) {
    case BinOp::Add: return '+';
    case BinOp::Sub: return '-';
    case BinOp::Mul: return '*';
    case BinOp::Div: return '/';
  }
  return '?';
}

/// Operator skeleton of a value expression: leaf names kept, subscripts and
/// index expressions erased.  Invariant under the index substitutions the
/// reordering passes perform (strip-mine, interchange, unroll offsets, ...).
void vskel(const VExpr& e, std::string& out) {
  switch (e.kind) {
    case VKind::Const: {
      std::ostringstream os;
      os << e.cval;
      out += os.str();
      return;
    }
    case VKind::ArrayRef:
      out += e.name;
      return;
    case VKind::ScalarRef:
      out += e.name;
      return;
    case VKind::IndexVal:
      out += '@';  // index value: expression erased like a subscript
      return;
    case VKind::Bin:
      out += '(';
      if (e.lhs) vskel(*e.lhs, out);
      out += bop_char(e.bop);
      if (e.rhs) vskel(*e.rhs, out);
      out += ')';
      return;
    case VKind::Un:
      out += (e.uop == UnOp::Neg ? "neg(" : e.uop == UnOp::Sqrt ? "sqrt("
                                                                : "abs(");
      if (e.lhs) vskel(*e.lhs, out);
      out += ')';
      return;
  }
}

[[nodiscard]] const char* cmp_str(CmpOp op) {
  switch (op) {
    case CmpOp::EQ: return "==";
    case CmpOp::NE: return "!=";
    case CmpOp::LT: return "<";
    case CmpOp::LE: return "<=";
    case CmpOp::GT: return ">";
    case CmpOp::GE: return ">=";
  }
  return "?";
}

// ---- Descending-loop normalization -----------------------------------------

/// Rewrite every `DO V = hi, lo, -1` as `DO V = lo, hi` with occurrences
/// of V replaced by (lo + hi) - V — same iteration sequence read forwards.
/// The dependence tester assumes ascending loops; after normalization an
/// illegally reversed loop shows its dependences running backwards.
void normalize_descending(StmtList& body) {
  for (auto& s : body) {
    if (!s) continue;
    switch (s->kind()) {
      case SKind::Assign:
        break;
      case SKind::Loop: {
        Loop& l = s->as_loop();
        if (l.step && l.step->kind == IKind::Const && l.step->value == -1) {
          IExprPtr lo = l.ub, hi = l.lb;
          IExprPtr mirror = isub(iadd(lo, hi), ivar(l.var));
          substitute_index_in_list(l.body, l.var, mirror);
          l.lb = lo;
          l.ub = hi;
          l.step = iconst(1);
        }
        normalize_descending(l.body);
        break;
      }
      case SKind::If: {
        If& f = s->as_if();
        normalize_descending(f.then_body);
        normalize_descending(f.else_body);
        break;
      }
    }
  }
}

// ---- Commutativity whitelist (§5.2) ----------------------------------------

/// True when one dependence endpoint lies inside a matched row-interchange
/// loop on the dependence's array while the other endpoint is a
/// whole-column update of the same array.
[[nodiscard]] bool commutes(const Dependence& dep) {
  auto in_row_swap = [&](const RefInfo& r) {
    for (Loop* l : r.loops) {
      auto m = transform::match_row_swap(*l);
      if (m && m->array == dep.src.array) return true;
    }
    return false;
  };
  auto col_update = [&](const RefInfo& r) {
    return r.owner != nullptr &&
           transform::is_column_update(*r.owner, dep.src.array);
  };
  return (in_row_swap(dep.src) && col_update(dep.dst)) ||
         (in_row_swap(dep.dst) && col_update(dep.src));
}

// ---- Matching --------------------------------------------------------------

[[nodiscard]] std::string dep_signature(DepType t, const std::string& src_key,
                                        const std::string& dst_key,
                                        const std::string& array) {
  return std::string(analysis::to_string(t)) + "\x1f" + src_key + "\x1f" +
         dst_key + "\x1f" + array;
}

[[nodiscard]] std::string summarize_vectors(const Dependence& d) {
  std::string out;
  for (std::size_t i = 0; i < d.vectors.size() && i < 4; ++i) {
    out += i ? " " : "";
    out += "(";
    for (std::size_t l = 0; l < d.vectors[i].size(); ++l) {
      if (l) out += ",";
      out += analysis::to_char(d.vectors[i][l]);
    }
    out += ")";
  }
  if (d.vectors.size() > 4) out += " ...";
  if (d.vectors.empty()) out += "(loop-independent)";
  return out;
}

}  // namespace

std::string stmt_key(const Stmt& s) {
  switch (s.kind()) {
    case SKind::Assign: {
      const Assign& a = s.as_assign();
      std::string key = "A|" + std::to_string(a.label) + "|" + a.lhs.name +
                        "|";
      if (a.rhs) vskel(*a.rhs, key);
      return key;
    }
    case SKind::If: {
      const If& f = s.as_if();
      std::string key = "IF|";
      if (f.cond.lhs) vskel(*f.cond.lhs, key);
      key += cmp_str(f.cond.op);
      if (f.cond.rhs) vskel(*f.cond.rhs, key);
      return key;
    }
    case SKind::Loop:
      // Loop-owned references are bound reads; fuse/strip-mine rename loop
      // variables freely, so all loops share one correspondence group.
      return "DO";
  }
  return "?";
}

Report check_dependence_preservation(const Program& pre, const Program& post,
                                     const DepCheckOptions& opt) {
  Report rep;

  // Work on private clones: normalization rewrites loop headers.
  Program a = pre.clone();
  Program b = post.clone();
  normalize_descending(a.body);
  normalize_descending(b.body);

  std::vector<Dependence> pre_deps = analysis::all_dependences(a.body, opt.ctx);
  std::vector<Dependence> post_deps =
      analysis::all_dependences(b.body, opt.ctx);

  // Post-side correspondence groups: which keys survive, which references
  // belong to each, and which (type, src, dst, array) edges exist.
  std::set<std::string> post_keys;
  ir::for_each_stmt(b.body,
                    [&](Stmt& s) { post_keys.insert(stmt_key(s)); });
  std::vector<RefInfo> post_refs = analysis::collect_refs(b.body);
  std::map<std::string, std::vector<const RefInfo*>> post_groups;
  for (const RefInfo& r : post_refs)
    post_groups[stmt_key(*r.owner)].push_back(&r);
  std::set<std::string> post_index;
  for (const Dependence& d : post_deps)
    post_index.insert(dep_signature(d.type, stmt_key(*d.src.owner),
                                    stmt_key(*d.dst.owner), d.src.array));

  for (const Dependence& dep : pre_deps) {
    if (opt.allow_commutative_swaps && commutes(dep)) continue;

    std::string src_key = stmt_key(*dep.src.owner);
    std::string dst_key = stmt_key(*dep.dst.owner);

    if (!post_keys.count(src_key) || !post_keys.count(dst_key)) {
      std::string src = describe(*dep.src.owner);
      std::string dst = describe(*dep.dst.owner);
      rep.add(Severity::Error, "lost-statement",
              "statement '" + (post_keys.count(src_key) ? dst : src) +
                  "' (endpoint of a " + analysis::to_string(dep.type) +
                  " dependence on " + dep.src.array +
                  ") has no corresponding statement after the pass",
              src + " -> " + dst);
      continue;
    }

    if (post_index.count(
            dep_signature(dep.type, src_key, dst_key, dep.src.array)))
      continue;  // preserved: same-type edge between the same groups

    // No matching edge.  Either the accesses became provably independent
    // (legal — index-set splitting does this) or they still conflict but
    // only in the reversed order (the pass broke the dependence).
    std::set<std::string> residual;
    auto src_it = post_groups.find(src_key);
    auto dst_it = post_groups.find(dst_key);
    if (src_it != post_groups.end() && dst_it != post_groups.end()) {
      for (const RefInfo* x : src_it->second) {
        if (x->is_write != dep.src.is_write || x->array != dep.src.array)
          continue;
        for (const RefInfo* y : dst_it->second) {
          if (y->is_write != dep.dst.is_write || y->array != dep.dst.array)
            continue;
          if (x == y) continue;
          const RefInfo* first = x;
          const RefInfo* second = y;
          if (second->textual_pos < first->textual_pos)
            std::swap(first, second);
          for (const Dependence& e :
               analysis::test_pair(*first, *second, opt.ctx)) {
            std::string dir = (stmt_key(*e.src.owner) == src_key &&
                               (src_key != dst_key ||
                                e.src.is_write == dep.src.is_write))
                                  ? "forward"
                                  : "reversed";
            residual.insert(std::string(analysis::to_string(e.type)) + " (" +
                            dir + ")");
          }
        }
      }
    }
    if (residual.empty()) continue;  // provably independent now: legal

    std::string found;
    for (const auto& r : residual) {
      if (!found.empty()) found += ", ";
      found += r;
    }
    std::string src = describe(*dep.src.owner);
    std::string dst = describe(*dep.dst.owner);
    rep.add(Severity::Error, "dep-broken",
            std::string(analysis::to_string(dep.type)) + " dependence on " +
                dep.src.array + " from '" + src + "' to '" + dst + "' " +
                summarize_vectors(dep) +
                " is not preserved: the accesses still conflict, but as " +
                found +
                " — the pass reordered accesses whose order carries a value",
            src + " -> " + dst);
  }

  return rep;
}

}  // namespace blk::verify
