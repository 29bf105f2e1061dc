#include "sa/certify.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "analysis/depgraph.hpp"
#include "analysis/refs.hpp"
#include "analysis/sections.hpp"
#include "ir/affine.hpp"
#include "ir/iexpr.hpp"
#include "ir/printer.hpp"

namespace blk::sa {

using namespace blk::ir;
using analysis::Assumptions;
using analysis::RefInfo;
using analysis::Section;

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::Parallel: return "parallel";
    case Verdict::Reduction: return "reduction";
    case Verdict::Serial: return "serial";
  }
  return "?";
}

const char* to_string(ReduceOp op) {
  switch (op) {
    case ReduceOp::Sum: return "sum";
    case ReduceOp::Product: return "product";
    case ReduceOp::Min: return "min";
    case ReduceOp::Max: return "max";
  }
  return "?";
}

std::string LoopVerdict::to_string() const {
  std::ostringstream os;
  os << "DO " << var << ": " << sa::to_string(verdict);
  if (verdict == Verdict::Reduction)
    os << "(" << sa::to_string(op) << ", " << accumulator << ")";
  if (verdict == Verdict::Serial && !witness.empty())
    os << " [" << witness << "]";
  return os.str();
}

const LoopVerdict* CertifyResult::find(const std::string& var,
                                       int occurrence) const {
  int seen = 0;
  for (const auto& lv : loops)
    if (lv.var == var && seen++ == occurrence) return &lv;
  return nullptr;
}

std::size_t CertifyResult::count(Verdict v) const {
  return static_cast<std::size_t>(
      std::count_if(loops.begin(), loops.end(),
                    [v](const LoopVerdict& lv) { return lv.verdict == v; }));
}

std::string CertifyResult::to_string() const {
  std::ostringstream os;
  for (const auto& lv : loops) os << lv.to_string() << "\n";
  return os.str();
}

namespace {

/// A recognized accumulation target: scalar or loop-invariant array element.
struct Accumulator {
  std::string name;
  std::vector<IExprPtr> subs;        ///< empty for scalars
  ReduceOp op = ReduceOp::Sum;
  std::set<const Stmt*> owners;      ///< statements allowed to touch it
  bool poisoned = false;             ///< conflicting ops on the same target

  [[nodiscard]] bool is_scalar() const { return subs.empty(); }
  [[nodiscard]] std::string to_string() const {
    std::string out = name;
    if (!subs.empty()) {
      out += "(";
      for (std::size_t i = 0; i < subs.size(); ++i) {
        if (i) out += ",";
        out += ir::to_string(subs[i]);
      }
      out += ")";
    }
    return out;
  }
};

/// `e` is exactly a read of the accumulation target `lhs`.
[[nodiscard]] bool is_acc_read(const VExpr& e, const LValue& lhs) {
  if (lhs.is_array()) {
    if (e.kind != VKind::ArrayRef || e.name != lhs.name ||
        e.subs.size() != lhs.subs.size())
      return false;
    for (std::size_t i = 0; i < e.subs.size(); ++i)
      if (!e.subs[i] || !lhs.subs[i] ||
          !provably_equal(e.subs[i], lhs.subs[i]))
        return false;
    return true;
  }
  return e.kind == VKind::ScalarRef && e.name == lhs.name;
}

/// `e` contains a read of the accumulation target anywhere beneath it
/// (for scalars this includes index-position uses in subscripts).
[[nodiscard]] bool reads_acc(const VExpr& e, const LValue& lhs) {
  if (is_acc_read(e, lhs)) return true;
  if (!lhs.is_array()) {
    if (e.kind == VKind::ArrayRef) {
      for (const auto& s : e.subs)
        if (s && mentions(*s, lhs.name)) return true;
    }
    if (e.kind == VKind::IndexVal && e.index &&
        mentions(*e.index, lhs.name))
      return true;
  }
  if (e.lhs && reads_acc(*e.lhs, lhs)) return true;
  if (e.rhs && reads_acc(*e.rhs, lhs)) return true;
  return false;
}

/// Flatten the +/- spine of `e` into terms with signs.
void flatten_add(const VExprPtr& e, bool neg,
                 std::vector<std::pair<VExprPtr, bool>>& terms) {
  if (e->kind == VKind::Bin &&
      (e->bop == BinOp::Add || e->bop == BinOp::Sub)) {
    flatten_add(e->lhs, neg, terms);
    flatten_add(e->rhs, e->bop == BinOp::Sub ? !neg : neg, terms);
    return;
  }
  terms.emplace_back(e, neg);
}

/// Flatten the * spine of `e` into factors (stops at any non-Mul node).
void flatten_mul(const VExprPtr& e, std::vector<VExprPtr>& factors) {
  if (e->kind == VKind::Bin && e->bop == BinOp::Mul) {
    flatten_mul(e->lhs, factors);
    flatten_mul(e->rhs, factors);
    return;
  }
  factors.push_back(e);
}

/// Forms A/B: `ACC = ACC +- e` / `ACC = ACC * e` with the accumulator
/// appearing exactly once, positively, and nowhere inside `e`.
[[nodiscard]] std::optional<ReduceOp> match_accumulation(const Assign& a) {
  if (!a.rhs) return std::nullopt;
  std::vector<std::pair<VExprPtr, bool>> terms;
  flatten_add(a.rhs, /*neg=*/false, terms);
  if (terms.size() > 1) {
    int acc_terms = 0;
    bool positive = false, stray = false;
    for (const auto& [t, neg] : terms) {
      if (is_acc_read(*t, a.lhs)) {
        ++acc_terms;
        positive = !neg;
      } else if (reads_acc(*t, a.lhs)) {
        stray = true;
      }
    }
    if (acc_terms == 1 && positive && !stray) return ReduceOp::Sum;
    return std::nullopt;
  }
  std::vector<VExprPtr> factors;
  flatten_mul(a.rhs, factors);
  if (factors.size() > 1) {
    int acc_factors = 0;
    bool stray = false;
    for (const auto& f : factors) {
      if (is_acc_read(*f, a.lhs))
        ++acc_factors;
      else if (reads_acc(*f, a.lhs))
        stray = true;
    }
    if (acc_factors == 1 && !stray) return ReduceOp::Product;
  }
  return std::nullopt;
}

/// `e` mentions scalar `name` (as a value read or in index position).
[[nodiscard]] bool vexpr_mentions_scalar(const VExpr& e,
                                         const std::string& name) {
  switch (e.kind) {
    case VKind::Const:
      return false;
    case VKind::ScalarRef:
      return e.name == name;
    case VKind::IndexVal:
      return e.index && mentions(*e.index, name);
    case VKind::ArrayRef:
      for (const auto& s : e.subs)
        if (s && mentions(*s, name)) return true;
      return false;
    case VKind::Bin:
      return (e.lhs && vexpr_mentions_scalar(*e.lhs, name)) ||
             (e.rhs && vexpr_mentions_scalar(*e.rhs, name));
    case VKind::Un:
      return e.lhs && vexpr_mentions_scalar(*e.lhs, name);
  }
  return false;
}

/// Form C: a MIN/MAX (or arg-min/arg-max) update,
///
///   IF (cand .REL. current) ACC = new          e.g.
///   IF (X(I) .LT. XMIN) XMIN = X(I)            min value
///   IF (ABS(A(I,K)) .GT. ABS(A(IMAX,K))) IMAX = I     pivot search
///
/// recognized by substitution: replacing the accumulator in the "current"
/// side of the condition with the assigned value must reproduce the
/// candidate side exactly — that one rule covers plain comparisons, unary
/// chains (ABS, -, SQRT) and the arg-form where ACC is a subscript.
[[nodiscard]] std::optional<ReduceOp> match_minmax(const If& f) {
  if (!f.else_body.empty() || f.then_body.size() != 1 || !f.then_body[0] ||
      f.then_body[0]->kind() != SKind::Assign)
    return std::nullopt;
  const Assign& a = f.then_body[0]->as_assign();
  if (a.lhs.is_array() || !a.rhs) return std::nullopt;
  const std::string& acc = a.lhs.name;
  if (!f.cond.lhs || !f.cond.rhs) return std::nullopt;

  // Candidate index value for the arg-form (IMAX = I).
  IExprPtr cand_index;
  if (a.rhs->kind == VKind::IndexVal && a.rhs->index)
    cand_index = a.rhs->index;
  else if (a.rhs->kind == VKind::ScalarRef)
    cand_index = ivar(a.rhs->name);

  for (bool acc_on_rhs : {true, false}) {
    const VExprPtr& acc_side = acc_on_rhs ? f.cond.rhs : f.cond.lhs;
    const VExprPtr& cand_side = acc_on_rhs ? f.cond.lhs : f.cond.rhs;
    if (!vexpr_mentions_scalar(*acc_side, acc)) continue;
    if (vexpr_mentions_scalar(*cand_side, acc)) continue;
    VExprPtr replaced = substitute_scalar(acc_side, acc, a.rhs);
    if (cand_index) replaced = substitute_index(replaced, acc, cand_index);
    if (!same_vexpr(*replaced, *cand_side)) continue;
    // Normalize to "cand REL current": the update keeps the winner, so
    // cand > current => running maximum, cand < current => minimum.
    CmpOp rel = f.cond.op;
    if (!acc_on_rhs) {  // condition was "current REL cand": flip
      switch (rel) {
        case CmpOp::LT: rel = CmpOp::GT; break;
        case CmpOp::LE: rel = CmpOp::GE; break;
        case CmpOp::GT: rel = CmpOp::LT; break;
        case CmpOp::GE: rel = CmpOp::LE; break;
        default: break;
      }
    }
    if (rel == CmpOp::GT || rel == CmpOp::GE) return ReduceOp::Max;
    if (rel == CmpOp::LT || rel == CmpOp::LE) return ReduceOp::Min;
  }
  return std::nullopt;
}

/// Recognize every accumulator in `l.body` (any nesting depth) whose target
/// is invariant in `l.var`, then reject any whose name is touched by a
/// statement outside its own accumulation set (the mid-body re-read guard).
[[nodiscard]] std::vector<Accumulator> recognize_reductions(Loop& l) {
  std::map<std::string, Accumulator> by_key;

  auto add = [&by_key](const LValue& lhs, ReduceOp op,
                       std::set<const Stmt*> owners) {
    Accumulator acc;
    acc.name = lhs.name;
    acc.subs = lhs.subs;
    acc.op = op;
    acc.owners = std::move(owners);
    std::string key = acc.to_string();
    auto [it, fresh] = by_key.emplace(std::move(key), acc);
    if (fresh) return;
    if (it->second.op != op) it->second.poisoned = true;
    it->second.owners.insert(acc.owners.begin(), acc.owners.end());
  };

  std::function<void(StmtList&)> scan = [&](StmtList& body) {
    for (auto& s : body) {
      if (!s) continue;
      switch (s->kind()) {
        case SKind::Assign: {
          Assign& a = s->as_assign();
          bool invariant = true;
          for (const auto& sub : a.lhs.subs)
            if (!sub || mentions(*sub, l.var)) invariant = false;
          if (invariant)
            if (auto op = match_accumulation(a)) add(a.lhs, *op, {&a});
          break;
        }
        case SKind::Loop:
          scan(s->as_loop().body);
          break;
        case SKind::If: {
          If& f = s->as_if();
          if (auto op = match_minmax(f)) {
            add(f.then_body[0]->as_assign().lhs, *op,
                {&f, f.then_body[0].get()});
          } else {
            scan(f.then_body);
            scan(f.else_body);
          }
          break;
        }
      }
    }
  };
  scan(l.body);

  // Mid-body stray references kill a scalar accumulator: every touch of
  // its name inside the loop must come from its own accumulation set.
  std::vector<RefInfo> refs = analysis::collect_refs(l.body);
  std::vector<Accumulator> out;
  for (auto& [key, acc] : by_key) {
    if (acc.poisoned) continue;
    if (acc.is_scalar()) {
      bool stray = false;
      for (const auto& r : refs)
        if (r.array == acc.name && !acc.owners.count(r.owner)) stray = true;
      if (stray) continue;
    }
    out.push_back(acc);
  }
  return out;
}

/// One endpoint of a dependence refers to the accumulator's location and
/// comes from its accumulation statements.
[[nodiscard]] bool endpoint_matches(const RefInfo& r, const Accumulator& acc) {
  if (r.array != acc.name) return false;
  if (!acc.owners.count(r.owner)) return false;
  if (r.subs.size() != acc.subs.size()) return false;
  for (std::size_t i = 0; i < r.subs.size(); ++i)
    if (!r.subs[i] || !acc.subs[i] ||
        !provably_equal(r.subs[i], acc.subs[i]))
      return false;
  return true;
}

/// Verdict on the loop at `at`, from the DepGraph built under `ctx`: the
/// caller's facts plus the ranges of the loops around it.
LoopVerdict certify_loop(Program& p, const verify::StmtTable::At& at,
                         const Assumptions& ctx) {
  Loop& l = at.stmt->as_loop();
  LoopVerdict lv;
  lv.loop = &l;
  lv.var = l.var;
  lv.path = at.where;
  lv.depth = static_cast<int>(at.loops.size());
  analysis::DepGraph graph(p.body, l, &ctx);
  std::vector<const analysis::Dependence*> carried;
  for (const auto& e : graph.edges())
    if (e.carried) carried.push_back(&e.dep);

  if (carried.empty()) {
    lv.verdict = Verdict::Parallel;
    return lv;
  }

  std::vector<Accumulator> accs = recognize_reductions(l);
  std::set<std::string> priv = analysis::private_scalars(p.body, l);

  std::set<std::string> used_accs;
  ReduceOp op = ReduceOp::Sum;
  const analysis::Dependence* unattributed = nullptr;
  for (const analysis::Dependence* dep : carried) {
    if (dep->src.is_scalar() && dep->dst.is_scalar() &&
        dep->src.array == dep->dst.array && priv.contains(dep->src.array))
      continue;  // privatization removes this carried dependence
    const Accumulator* owner = nullptr;
    for (const auto& acc : accs)
      if (endpoint_matches(dep->src, acc) &&
          endpoint_matches(dep->dst, acc)) {
        owner = &acc;
        break;
      }
    if (!owner) {
      unattributed = dep;
      break;
    }
    if (used_accs.empty()) op = owner->op;
    used_accs.insert(owner->to_string());
  }

  if (unattributed) {
    lv.verdict = Verdict::Serial;
    lv.witness = unattributed->to_string() + " carried by DO " + l.var;
  } else if (!used_accs.empty()) {
    lv.verdict = Verdict::Reduction;
    lv.op = op;
    for (const auto& name : used_accs) {
      if (!lv.accumulator.empty()) lv.accumulator += ",";
      lv.accumulator += name;
    }
  } else {
    lv.verdict = Verdict::Parallel;  // carried deps were all privatizable
  }
  return lv;
}

CertifyMutator g_mutator = nullptr;

}  // namespace

void set_certify_mutator_for_testing(CertifyMutator m) { g_mutator = m; }

CertifyResult certify(Program& p, const CertifyOptions& opt) {
  CertifyResult result;
  const verify::StmtTable at(p);
  const Assumptions base = opt.ctx ? *opt.ctx : Assumptions{};
  for (int pos = 1; pos <= at.size(); ++pos)
    if (at[pos].stmt->kind() == SKind::Loop)
      result.loops.push_back(certify_loop(p, at[pos], at.context(pos, base)));
  if (g_mutator) g_mutator(result);
  return result;
}

verify::Report verdict_report(const CertifyResult& result) {
  verify::Report rep;
  for (const auto& lv : result.loops) {
    std::string code = std::string("certify-") + to_string(lv.verdict);
    rep.add(verify::Severity::Note, std::move(code), lv.to_string(),
            lv.path);
  }
  return rep;
}

// ---- Independent write-write race re-check ---------------------------------

namespace {

/// Section one iteration of `l` writes through `ref`: loops strictly inside
/// `l` are expanded, then `l.var` is renamed to the fresh iteration symbol.
[[nodiscard]] Section iteration_section(const RefInfo& ref, const Loop* l,
                                        const std::string& iter) {
  auto it = std::find(ref.loops.begin(), ref.loops.end(), l);
  std::size_t pos = static_cast<std::size_t>(it - ref.loops.begin());
  std::span<ir::Loop* const> inner(ref.loops.data() + pos + 1,
                                   ref.loops.size() - pos - 1);
  Section s = analysis::section_of(ref, inner);
  for (auto& t : s.dims) {
    if (t.lb) t.lb = substitute(t.lb, l->var, ivar(iter));
    if (t.ub) t.ub = substitute(t.ub, l->var, ivar(iter));
  }
  return s;
}

/// Stride argument: in some dimension both sections are single points
/// `c*iter + r` with the same non-zero coefficient and identical remainder,
/// so two distinct iterations cannot produce the same subscript value.
[[nodiscard]] bool stride_disjoint(const Section& a, const Section& b) {
  if (a.dims.size() != b.dims.size()) return false;
  for (std::size_t d = 0; d < a.dims.size(); ++d) {
    const auto& t1 = a.dims[d];
    const auto& t2 = b.dims[d];
    if (!t1.lb || !t1.ub || !t2.lb || !t2.ub) continue;
    if (!provably_equal(t1.lb, t1.ub) || !provably_equal(t2.lb, t2.ub))
      continue;
    auto a1 = as_affine(t1.lb);
    auto a2 = as_affine(t2.lb);
    if (!a1 || !a2) continue;
    long c1 = a1->coef_of("__p1");
    long c2 = a2->coef_of("__p2");
    if (c1 == 0 || c1 != c2) continue;
    Affine r1 = *a1;
    Affine r2 = *a2;
    r1.coef.erase("__p1");
    r2.coef.erase("__p2");
    if (r1 == r2) return true;
  }
  return false;
}

/// Coupled-subscript argument, for diagonal patterns the rectangular
/// section abstraction cannot separate (e.g. A(I+K, -2*K): a collision
/// forces the inner K's equal, which then forces the I's equal).  Assume
/// the two iterations touch a common element, turn per-dimension equality
/// into affine equations, eliminate the inner-loop symbols by exact
/// cross-multiplication, and look for a remaining equation the iteration
/// separation cannot satisfy.  Rational elimination only ever *disproves*
/// integer solutions, so a contradiction here is a sound disjointness
/// proof even though loop ranges are ignored.
[[nodiscard]] bool coupled_disjoint(const RefInfo& a, const RefInfo& b,
                                    const Loop* l, const char* pa,
                                    const char* pb, long const_gap) {
  std::set<std::string> qvars;
  // Non-affine subtrees (MIN/MAX bounds folded into subscripts by
  // normalize/fuse, divisions, index arrays) are replaced by opaque
  // symbols shared across both sides, keyed by printed form: identical
  // terms denote identical values, so they cancel in the equations, and
  // distinct ones act as unknown parameters.  Relaxing a term to a free
  // symbol only enlarges the rational solution set, so disproofs stay
  // sound.
  std::map<std::string, std::string> opaque;
  auto opaquify = [&opaque](const IExprPtr& e, auto&& self) -> IExprPtr {
    switch (e->kind) {
      case ir::IKind::Const:
      case ir::IKind::Var:
        return e;
      case ir::IKind::Add:
        return iadd(self(e->lhs, self), self(e->rhs, self));
      case ir::IKind::Sub:
        return isub(self(e->lhs, self), self(e->rhs, self));
      case ir::IKind::Mul:
        if (e->lhs->kind == ir::IKind::Const)
          return imul(e->lhs, self(e->rhs, self));
        if (e->rhs->kind == ir::IKind::Const)
          return imul(self(e->lhs, self), e->rhs);
        break;
      default:
        break;
    }
    auto [it, ins] = opaque.emplace(
        ir::to_string(e), "__t" + std::to_string(opaque.size()));
    return ivar(it->second);
  };
  // Rename one side's loop symbols: the certified loop becomes its fresh
  // iteration symbol, loops strictly inside it become side-local symbols.
  // Bails (nullopt) on shadowed names, where renaming would conflate two
  // distinct iteration variables and the "proof" would be unsound.
  auto side = [&](const RefInfo& r, const char* p_name,
                  const char* q_suffix)
      -> std::optional<std::vector<std::optional<Affine>>> {
    auto it = std::find(r.loops.begin(), r.loops.end(), l);
    std::size_t pos = static_cast<std::size_t>(it - r.loops.begin());
    std::set<std::string> seen;
    std::vector<std::pair<std::string, std::string>> ren;
    ren.emplace_back(l->var, p_name);
    for (std::size_t k = pos + 1; k < r.loops.size(); ++k) {
      const std::string& v = r.loops[k]->var;
      if (!seen.insert(v).second) return std::nullopt;
      ren.emplace_back(v, v + q_suffix);
      qvars.insert(v + q_suffix);
    }
    std::vector<std::optional<Affine>> out;
    for (const auto& sub : r.subs) {
      IExprPtr e = sub;
      for (const auto& [o, n] : ren) e = substitute(e, o, ivar(n));
      e = opaquify(e, opaquify);
      out.push_back(as_affine(*e));
    }
    return out;
  };

  auto sa = side(a, pa, "__q1");
  auto sb = side(b, pb, "__q2");
  if (!sa || !sb) return false;

  std::vector<Affine> eqs;
  std::size_t rank = std::min(sa->size(), sb->size());
  for (std::size_t d = 0; d < rank; ++d)
    if ((*sa)[d] && (*sb)[d]) eqs.push_back(*(*sa)[d] - *(*sb)[d]);

  // Eliminate each side-local symbol: pick a pivot equation that uses it,
  // cross-multiply it out of the others, drop the pivot (the symbol is
  // otherwise free, so the pivot is always rationally satisfiable).
  for (const std::string& q : qvars) {
    std::size_t pivot = eqs.size();
    for (std::size_t i = 0; i < eqs.size(); ++i)
      if (eqs[i].coef_of(q) != 0) {
        pivot = i;
        break;
      }
    if (pivot == eqs.size()) continue;
    long pc = eqs[pivot].coef_of(q);
    for (std::size_t i = 0; i < eqs.size(); ++i) {
      if (i == pivot) continue;
      long c = eqs[i].coef_of(q);
      if (c != 0) eqs[i] = eqs[i] * pc - eqs[pivot] * c;
    }
    eqs.erase(eqs.begin() + static_cast<long>(pivot));
  }

  // Whatever remains must hold for a collision to exist.  The facts give
  // __p2 >= __p1 + gap with (p2 - p1) a multiple of the constant step.
  for (const Affine& e : eqs) {
    long k1 = 0, k2 = 0;
    bool other = false;
    for (const auto& [v, c] : e.coef) {
      if (c == 0) continue;
      if (v == "__p1")
        k1 = c;
      else if (v == "__p2")
        k2 = c;
      else
        other = true;  // parameter or enclosing loop: value unknown
    }
    if (other) continue;
    if (k1 == 0 && k2 == 0) {
      if (e.constant != 0) return true;  // 0 = c, c != 0: no collision
      continue;
    }
    if (k1 != -k2) continue;  // pins one iteration; collision possible
    // k1*(p1 - p2) + c = 0  =>  p2 - p1 = c / k1.
    if (e.constant % k1 != 0) return true;  // non-integer distance
    long d = e.constant / k1;
    if (d <= 0) return true;  // contradicts p2 >= p1 + gap
    if (const_gap > 0 && d % const_gap != 0)
      return true;  // not a multiple of the step separation
  }
  return false;
}

}  // namespace

verify::Report check_races(Program& p, const CertifyResult& result,
                           const Assumptions* ctx) {
  verify::Report rep;
  const verify::StmtTable at(p);
  // A write under a provably empty loop never runs (lint warns the loop).
  // Lint's context reads a symbolic step as ascending, which this re-check
  // does not (its sign is unknown), so the proof counts only when that loop
  // and every loop around it step by a nonzero constant.
  const std::vector<int> empty = at.empty_loops(ctx ? *ctx : Assumptions{});
  auto constant_step = [](const Loop* l) {
    return l->step->kind == IKind::Const && l->step->value != 0;
  };
  auto never_runs = [&](int pos) {
    const int e = empty[pos];
    return e != 0 && constant_step(&at[e].stmt->as_loop()) &&
           std::ranges::all_of(at[e].loops, constant_step);
  };

  for (const auto& lv : result.loops) {
    if (lv.verdict != Verdict::Parallel) continue;
    Loop& l = *const_cast<Loop*>(lv.loop);

    std::vector<const RefInfo*> writes;
    std::set<std::string> scalar_writes;
    for (const auto& r : at.refs()) {
      if (!r.is_write || never_runs(r.textual_pos)) continue;
      if (std::find(r.loops.begin(), r.loops.end(), &l) == r.loops.end())
        continue;
      if (r.is_scalar())
        scalar_writes.insert(r.array);
      else
        writes.push_back(&r);
    }

    // Scalars written by a parallel iteration must be provably private.
    std::set<std::string> priv = analysis::private_scalars(p.body, l);
    for (const auto& name : scalar_writes) {
      if (!priv.contains(name))
        rep.add(verify::Severity::Error, "parallel-cert-race",
                "scalar " + name + " written inside DO " + lv.var +
                    " (certified parallel) is not provably private",
                lv.path);
    }

    // Two distinct iterations __p1 < __p2 of l, with every enclosing loop
    // range and the step-separation facts (and small multiples of it, so
    // the two-fact proof search can scale the separation).
    Assumptions base = ctx ? *ctx : Assumptions{};
    for (ir::Loop* outer : enclosing_loops(p.body, l))
      base.add_loop_range(*outer);
    if (!l.lb || !l.ub) continue;  // malformed; lint reports it
    IExprPtr step = l.step ? l.step : iconst(1);
    bool descending = step->kind == IKind::Const && step->value < 0;
    const IExprPtr& lo = descending ? l.ub : l.lb;
    const IExprPtr& hi = descending ? l.lb : l.ub;
    base.add_loop_range("__p1", lo, hi);
    base.add_loop_range("__p2", lo, hi);
    IExprPtr gap = descending ? isub(iconst(0), step) : step;
    long const_gap =
        step->kind == IKind::Const ? std::labs(step->value) : 0;
    if (auto gap_aff = as_affine(gap)) {
      for (long k = 1; k <= 8; ++k) {
        Affine sep = Affine::variable("__p2", k) -
                     Affine::variable("__p1", k) - *gap_aff * k;
        base.assert_nonneg(sep);
      }
    } else {
      base.assert_ge(ivar("__p2"), iadd(ivar("__p1"), gap));
    }

    for (std::size_t i = 0; i < writes.size(); ++i) {
      for (std::size_t j = i; j < writes.size(); ++j) {
        if (writes[i]->array != writes[j]->array) continue;
        // Both interleavings: statement i in the earlier iteration and in
        // the later one (for i == j they coincide).
        for (int dir = 0; dir < (i == j ? 1 : 2); ++dir) {
          Section s1 = iteration_section(*writes[i], &l,
                                         dir == 0 ? "__p1" : "__p2");
          Section s2 = iteration_section(*writes[j], &l,
                                         dir == 0 ? "__p2" : "__p1");
          if (analysis::disjoint(s1, s2, base) == true) continue;
          if (stride_disjoint(s1, s2) || stride_disjoint(s2, s1)) continue;
          if (coupled_disjoint(*writes[i], *writes[j], &l,
                               dir == 0 ? "__p1" : "__p2",
                               dir == 0 ? "__p2" : "__p1", const_gap))
            continue;
          rep.add(verify::Severity::Error, "parallel-cert-race",
                  "cannot prove writes " + s1.to_string() + " and " +
                      s2.to_string() +
                      " disjoint for two iterations of DO " + lv.var +
                      " (certified parallel)",
                  lv.path);
        }
      }
    }
  }
  return rep;
}

}  // namespace blk::sa
