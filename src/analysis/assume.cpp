#include "analysis/assume.hpp"

#include <algorithm>
#include <bitset>
#include <functional>
#include <initializer_list>
#include <utility>

namespace blk::analysis {

using namespace blk::ir;

namespace {

/// Additive hash of an affine form's linear part: linear_hash(a - b) ==
/// linear_hash(a) - linear_hash(b) (mod 2^64), and a constant hashes to 0.
std::uint64_t linear_hash(const Affine& a) {
  std::uint64_t h = 0;
  for (const auto& [v, k] : a.coef)
    h += static_cast<std::uint64_t>(k) * std::hash<std::string>{}(v);
  return h;
}

}  // namespace

void Assumptions::assert_nonneg(Affine f) {
  // Constant facts carry no information (or are contradictions the caller
  // should not be asserting); skip them.
  if (f.is_constant()) return;
  hashes_.push_back(linear_hash(f));
  facts_.push_back(std::move(f));
}

void Assumptions::assert_ge(const IExprPtr& a, const IExprPtr& b) {
  if (auto d = affine_difference(a, b)) {
    assert_nonneg(*d);
    return;
  }
  // Keep non-affine facts raw; proofs case-split their MIN/MAX nodes.
  raw_facts_.push_back(simplify(isub(a, b)));
}

void Assumptions::assert_le(const IExprPtr& a, const IExprPtr& b) {
  assert_ge(b, a);
}

namespace {

/// Record var >= e, decomposing MAX (var >= MAX(a,b) gives both) and the
/// provable side of any other non-affine shape.
void assert_lower(Assumptions& ctx, const IExprPtr& var, const IExprPtr& e) {
  if (e->kind == IKind::Max) {
    assert_lower(ctx, var, e->lhs);
    assert_lower(ctx, var, e->rhs);
    return;
  }
  ctx.assert_ge(var, e);  // no-op when non-affine
}

/// Record var <= e, decomposing MIN.
void assert_upper(Assumptions& ctx, const IExprPtr& var, const IExprPtr& e) {
  if (e->kind == IKind::Min) {
    assert_upper(ctx, var, e->lhs);
    assert_upper(ctx, var, e->rhs);
    return;
  }
  ctx.assert_le(var, e);
}

}  // namespace

void Assumptions::add_loop_range(const Loop& loop) {
  // Wider steps still satisfy lb <= var <= ub when step > 0; a descending
  // loop counts DO I = lb, ub, -s with ub <= var <= lb.  Symbolic steps
  // give no usable range (the sign is unknown).
  if (loop.step->kind != IKind::Const) return;
  if (loop.step->value > 0)
    add_loop_range(loop.var, loop.lb, loop.ub);
  else if (loop.step->value < 0)
    add_loop_range(loop.var, loop.ub, loop.lb);
}

void Assumptions::add_loop_range(const std::string& var, const IExprPtr& lb,
                                 const IExprPtr& ub) {
  assert_lower(*this, ivar(var), lb);
  assert_upper(*this, ivar(var), ub);
}

void Assumptions::add_loop_range(const std::string& var, const IExprPtr& lb,
                                 const IExprPtr& ub, const IExprPtr& step) {
  if (step && step->kind == IKind::Const && step->value < 0)
    add_loop_range(var, ub, lb);
  else
    add_loop_range(var, lb, ub);
}

bool Assumptions::nonneg_with(const Affine& f,
                              const std::vector<Affine>& extra) const {
  if (auto s = constant_sign(f); s && *s >= 0) return true;
  // Combined fact view.
  auto fact = [&](std::size_t i) -> const Affine& {
    return i < facts_.size() ? facts_[i] : extra[i - facts_.size()];
  };
  const std::size_t nf = facts_.size() + extra.size();
  std::vector<std::uint64_t> hash;
  hash.reserve(nf);
  hash.insert(hash.end(), hashes_.begin(), hashes_.end());
  for (const Affine& e : extra) hash.push_back(linear_hash(e));

  // A proof is f - F_i [- F_j [- F_k]] == a non-negative constant with
  // i <= j <= k, so the last fact's linear hash equals the partial
  // residue's.  Index the facts by (hash, position) and find the last fact
  // by lookup among positions >= the previous one; the exact subtraction
  // confirms each hit, so a collision costs one subtraction, not a proof.
  // Most keys match no fact at all: a bitmap over the low bits of every
  // hash rejects those in O(1), before the binary search.
  std::vector<std::pair<std::uint64_t, std::size_t>> table;
  table.reserve(nf);
  std::bitset<1024> present;
  for (std::size_t i = 0; i < nf; ++i) {
    table.emplace_back(hash[i], i);
    present[hash[i] % present.size()] = true;
  }
  std::sort(table.begin(), table.end());
  auto closes = [&](std::uint64_t key, std::size_t from,
                    std::initializer_list<std::size_t> used) {
    if (!present[key % present.size()]) return false;
    for (auto it = std::lower_bound(table.begin(), table.end(),
                                    std::pair{key, from});
         it != table.end() && it->first == key; ++it) {
      Affine r = f;
      for (std::size_t u : used) r -= fact(u);
      if (auto s = constant_sign(r - fact(it->second)); s && *s >= 0)
        return true;
    }
    return false;
  };

  // Depth-1: f - fact is a nonneg constant.
  const std::uint64_t hf = linear_hash(f);
  if (closes(hf, 0, {})) return true;
  // Depth-2 and depth-3: subtract combinations of facts.  Depth 3 covers
  // chained loop-bound reasoning through two strip levels (e.g. N-1-KK via
  // KK <= K+KS-1 and the driver's K+KS-1 <= N-1).  A constant partial
  // residue ends its branch: its hash is 0, and the exact subtraction
  // confirms it.
  for (std::size_t i = 0; i < nf; ++i) {
    const std::uint64_t h1 = hf - hash[i];
    if (h1 == 0 && (f - fact(i)).is_constant()) continue;  // handled at depth 1
    for (std::size_t j = i; j < nf; ++j) {
      const std::uint64_t h2 = h1 - hash[j];
      if (h2 == 0) {
        if (auto s = constant_sign(f - fact(i) - fact(j))) {
          if (*s >= 0) return true;
          continue;
        }
      }
      if (closes(h2, j, {i, j})) return true;
    }
  }
  return false;
}

bool Assumptions::nonneg(const Affine& f) const { return nonneg_with(f, {}); }

namespace {

/// A MIN/MAX occurrence with the polarity of its position: +1 the
/// surrounding expression is monotonically increasing in the node, -1
/// decreasing, 0 unknown.
struct MinMaxHit {
  const IExpr* node = nullptr;
  int polarity = 0;
};

MinMaxHit find_minmax(const IExprPtr& e, int pol = 1) {
  switch (e->kind) {
    case IKind::Const:
    case IKind::Var:
      return {};
    case IKind::Min:
    case IKind::Max:
      return {.node = e.get(), .polarity = pol};
    case IKind::Add: {
      if (MinMaxHit h = find_minmax(e->lhs, pol); h.node) return h;
      return find_minmax(e->rhs, pol);
    }
    case IKind::Sub: {
      if (MinMaxHit h = find_minmax(e->lhs, pol); h.node) return h;
      return find_minmax(e->rhs, -pol);
    }
    case IKind::Mul: {
      if (e->lhs->kind == IKind::Const) {
        long c = e->lhs->value;
        return find_minmax(e->rhs, c > 0 ? pol : c < 0 ? -pol : 0);
      }
      if (e->rhs->kind == IKind::Const) {
        long c = e->rhs->value;
        return find_minmax(e->lhs, c > 0 ? pol : c < 0 ? -pol : 0);
      }
      if (MinMaxHit h = find_minmax(e->lhs, 0); h.node) return h;
      return find_minmax(e->rhs, 0);
    }
    case IKind::FloorDiv:
    case IKind::CeilDiv:
      return find_minmax(e->lhs, pol);  // monotone in the numerator
    case IKind::ArrayElem:
      // Opaque: replace_node cannot rebuild an element, and the leaf drops
      // any fact or goal containing one, so a split inside never helps.
      return {};
  }
  return {};
}

/// Replace the node identified by pointer `target` with `repl`.
IExprPtr replace_node(const IExprPtr& e, const IExpr* target,
                      const IExprPtr& repl) {
  if (e.get() == target) return repl;
  switch (e->kind) {
    case IKind::Const:
    case IKind::Var:
      return e;
    default: {
      IExprPtr l = replace_node(e->lhs, target, repl);
      IExprPtr r = e->rhs ? replace_node(e->rhs, target, repl) : nullptr;
      if (l == e->lhs && r == e->rhs) return e;
      switch (e->kind) {
        case IKind::Add: return iadd(std::move(l), std::move(r));
        case IKind::Sub: return isub(std::move(l), std::move(r));
        case IKind::Mul: return imul(std::move(l), std::move(r));
        case IKind::Min: return imin(std::move(l), std::move(r));
        case IKind::Max: return imax(std::move(l), std::move(r));
        case IKind::FloorDiv: return ifloordiv(std::move(l), r->value);
        case IKind::CeilDiv: return iceildiv(std::move(l), r->value);
        default: break;
      }
      return e;
    }
  }
}

}  // namespace

bool Assumptions::split_and_prove(std::vector<IExprPtr> exprs,
                                  int budget) const {
  if (budget <= 0) return false;  // too many MIN/MAX combinations
  // Eliminate the first MIN/MAX found in the goal or any raw fact, using
  // its polarity:
  //  * goal, conjunctive position (MIN positive / MAX negative or unknown):
  //    the goal must hold with either operand -> prove both (AND).
  //  * goal, disjunctive position (MIN negative / MAX positive): the goal
  //    is implied by either single-operand bound -> prove one (OR).
  //  * fact, conjunctive position: the fact implies both instantiations
  //    simultaneously -> strengthen the fact set, no branch.
  //  * fact, otherwise: the fact holds with whichever operand is actual ->
  //    the branch proofs together cover every point (AND).
  for (std::size_t i = 0; i < exprs.size(); ++i) {
    MinMaxHit hit = find_minmax(exprs[i]);
    if (!hit.node) continue;
    const IExpr* m = hit.node;
    const bool is_min = m->kind == IKind::Min;
    IExprPtr with_l = replace_node(exprs[i], m, m->lhs);
    IExprPtr with_r = replace_node(exprs[i], m, m->rhs);
    const bool conjunctive =
        (is_min && hit.polarity > 0) || (!is_min && hit.polarity < 0);
    if (i > 0 && conjunctive) {
      // Strengthen: the fact yields both instantiations at every point.
      exprs[i] = std::move(with_l);
      exprs.push_back(std::move(with_r));
      return split_and_prove(std::move(exprs), budget);
    }
    std::vector<IExprPtr> branch_l = exprs;
    branch_l[i] = std::move(with_l);
    std::vector<IExprPtr> branch_r = std::move(exprs);
    branch_r[i] = std::move(with_r);
    if (i == 0 && ((is_min && hit.polarity < 0) ||
                   (!is_min && hit.polarity > 0))) {
      // Disjunctive goal: either bound suffices.
      return split_and_prove(std::move(branch_l), budget / 2) ||
             split_and_prove(std::move(branch_r), budget / 2);
    }
    return split_and_prove(std::move(branch_l), budget / 2) &&
           split_and_prove(std::move(branch_r), budget / 2);
  }
  // All MIN/MAX-free: affine leaf.  Facts that still fail to normalize
  // (FloorDiv, ArrayElem) are dropped — sound, just weaker.
  auto goal = as_affine(*exprs[0]);
  if (!goal) return false;
  std::vector<Affine> extra;
  for (std::size_t i = 1; i < exprs.size(); ++i)
    if (auto f = as_affine(*exprs[i])) extra.push_back(std::move(*f));
  return nonneg_with(*goal, extra);
}

bool Assumptions::nonneg_expr(const IExprPtr& e) const {
  std::vector<IExprPtr> exprs;
  exprs.reserve(raw_facts_.size() + 1);
  exprs.push_back(e);
  for (const auto& f : raw_facts_) exprs.push_back(f);
  return split_and_prove(std::move(exprs), 256);
}

IExprPtr Assumptions::resolve_minmax(const IExprPtr& e) const {
  switch (e->kind) {
    case IKind::Const:
    case IKind::Var:
      return e;
    case IKind::Min:
    case IKind::Max: {
      IExprPtr l = resolve_minmax(e->lhs);
      IExprPtr r = resolve_minmax(e->rhs);
      bool l_ge_r = nonneg_expr(isub(l, r));
      bool r_ge_l = nonneg_expr(isub(r, l));
      if (e->kind == IKind::Min) {
        if (l_ge_r) return r;
        if (r_ge_l) return l;
        return imin(std::move(l), std::move(r));
      }
      if (l_ge_r) return l;
      if (r_ge_l) return r;
      return imax(std::move(l), std::move(r));
    }
    case IKind::ArrayElem:
      return e;
    case IKind::FloorDiv:
      return ifloordiv(resolve_minmax(e->lhs), e->rhs->value);
    case IKind::CeilDiv:
      return iceildiv(resolve_minmax(e->lhs), e->rhs->value);
    default: {
      IExprPtr l = resolve_minmax(e->lhs);
      IExprPtr r = resolve_minmax(e->rhs);
      switch (e->kind) {
        case IKind::Add: return iadd(std::move(l), std::move(r));
        case IKind::Sub: return isub(std::move(l), std::move(r));
        case IKind::Mul: return imul(std::move(l), std::move(r));
        default: return e;
      }
    }
  }
}

namespace {

void append_long(std::string& out, long v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void append_name(std::string& out, const std::string& s) {
  append_long(out, static_cast<long>(s.size()));
  out += s;
}

}  // namespace

void append_structure(std::string& out, const IExpr* e) {
  if (!e) {
    out += '\xff';
    return;
  }
  out += static_cast<char>(e->kind);
  append_long(out, e->value);
  append_name(out, e->name);
  append_structure(out, e->lhs.get());
  append_structure(out, e->rhs.get());
}

void Assumptions::fingerprint(std::string& out) const {
  append_long(out, static_cast<long>(facts_.size()));
  for (const Affine& f : facts_) {
    append_long(out, static_cast<long>(f.coef.size()));
    for (const auto& [v, k] : f.coef) {
      append_name(out, v);
      append_long(out, k);
    }
    append_long(out, f.constant);
  }
  append_long(out, static_cast<long>(raw_facts_.size()));
  for (const IExprPtr& f : raw_facts_) append_structure(out, f.get());
}

bool Assumptions::ge(const IExprPtr& a, const IExprPtr& b) const {
  if (raw_facts_.empty()) {
    if (auto d = affine_difference(a, b)) return nonneg(*d);
  }
  return nonneg_expr(isub(a, b));
}

bool Assumptions::le(const IExprPtr& a, const IExprPtr& b) const {
  return ge(b, a);
}

bool Assumptions::eq(const IExprPtr& a, const IExprPtr& b) const {
  if (auto d = affine_difference(a, b)) {
    auto s = constant_sign(*d);
    if (s) return *s == 0;
  }
  return ge(a, b) && ge(b, a);
}

}  // namespace blk::analysis
