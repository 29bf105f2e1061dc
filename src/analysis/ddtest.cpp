#include "analysis/ddtest.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <string>

#include "analysis/manager.hpp"
#include "ir/affine.hpp"
#include "ir/error.hpp"

namespace blk::analysis {

using namespace blk::ir;

bool Dependence::carried_at(std::size_t level) const {
  for (const auto& v : vectors) {
    bool outer_eq = true;
    for (std::size_t i = 0; i < level && outer_eq; ++i)
      outer_eq = (v[i] == Dir::EQ);
    if (outer_eq && level < v.size() && v[level] == Dir::LT) return true;
  }
  return false;
}

bool Dependence::loop_independent() const {
  for (const auto& v : vectors)
    if (std::all_of(v.begin(), v.end(),
                    [](Dir d) { return d == Dir::EQ; }))
      return true;
  return vectors.empty();  // depth 0: no common loops => loop independent
}

std::optional<long> Dependence::distance_at(std::size_t level) const {
  if (level < distances.size()) return distances[level];
  return std::nullopt;
}

const char* to_string(DepType t) {
  switch (t) {
    case DepType::Flow: return "flow";
    case DepType::Anti: return "anti";
    case DepType::Output: return "output";
    case DepType::Input: return "input";
  }
  return "?";
}

char to_char(Dir d) {
  switch (d) {
    case Dir::LT: return '<';
    case Dir::EQ: return '=';
    case Dir::GT: return '>';
  }
  return '?';
}

std::string Dependence::to_string() const {
  std::ostringstream os;
  os << analysis::to_string(type) << ' ' << src.array << '(';
  for (std::size_t i = 0; i < src.subs.size(); ++i) {
    if (i) os << ',';
    os << ir::to_string(src.subs[i]);
  }
  os << ") -> " << dst.array << '(';
  for (std::size_t i = 0; i < dst.subs.size(); ++i) {
    if (i) os << ',';
    os << ir::to_string(dst.subs[i]);
  }
  os << ") {";
  for (std::size_t k = 0; k < vectors.size(); ++k) {
    if (k) os << ' ';
    os << '(';
    for (std::size_t i = 0; i < vectors[k].size(); ++i) {
      if (i) os << ',';
      os << to_char(vectors[k][i]);
    }
    os << ')';
  }
  os << '}';
  return os.str();
}

namespace {

/// Per-common-loop constraint produced by the subscript tests.
struct LoopConstraint {
  bool lt = true, eq = true, gt = true;    ///< feasible directions
  std::optional<long> distance;            ///< exact i'_l - i_l when known

  void intersect_distance(long d) {
    if (distance && *distance != d) {
      lt = eq = gt = false;  // contradictory distances: no dependence
      return;
    }
    distance = d;
    lt = lt && d > 0;
    eq = eq && d == 0;
    gt = gt && d < 0;
  }

  [[nodiscard]] bool infeasible() const { return !lt && !eq && !gt; }
  [[nodiscard]] bool allows(Dir d) const {
    switch (d) {
      case Dir::LT: return lt;
      case Dir::EQ: return eq;
      case Dir::GT: return gt;
    }
    return false;
  }
};

/// Outcome of testing one subscript dimension.
enum class DimResult { NoDependence, NoConstraint, Constrained };

/// Variables of `a` classified against the common loop set.
struct DimClassification {
  // common loop var name -> (coef in src, coef in dst)
  std::map<std::string, std::pair<long, long>> common;
  bool has_noncommon = false;
  Affine sym_const;  ///< constant + parameter part of (src - dst)
  std::vector<long> all_coefs;  ///< every loop-var coefficient (for GCD)
};

[[nodiscard]] bool is_common_var(const std::vector<Loop*>& common_loops,
                                 const std::string& name) {
  return std::any_of(common_loops.begin(), common_loops.end(),
                     [&](const Loop* l) { return l->var == name; });
}

/// Test one subscript dimension; refine `cons` (indexed by common-loop
/// position).
DimResult test_dim(const IExprPtr& s_src, const IExprPtr& s_dst,
                   const std::vector<Loop*>& common_loops,
                   const std::vector<Loop*>& src_loops,
                   const std::vector<Loop*>& dst_loops,
                   std::vector<LoopConstraint>& cons) {
  auto fa = as_affine(*s_src);
  auto fb = as_affine(*s_dst);
  if (!fa || !fb) return DimResult::NoConstraint;

  auto is_loop_var = [&](const std::vector<Loop*>& loops,
                         const std::string& n) {
    return std::any_of(loops.begin(), loops.end(),
                       [&](const Loop* l) { return l->var == n; });
  };

  DimClassification cls;
  cls.sym_const = Affine::constant_term(fa->constant - fb->constant);
  for (const auto& [v, k] : fa->coef) {
    if (is_common_var(common_loops, v)) {
      cls.common[v].first += k;
      cls.all_coefs.push_back(k);
    } else if (is_loop_var(src_loops, v)) {
      cls.has_noncommon = true;
      cls.all_coefs.push_back(k);
    } else {
      cls.sym_const += Affine::variable(v, k);  // symbolic parameter
    }
  }
  for (const auto& [v, k] : fb->coef) {
    if (is_common_var(common_loops, v)) {
      cls.common[v].second += k;
      cls.all_coefs.push_back(k);
    } else if (is_loop_var(dst_loops, v)) {
      cls.has_noncommon = true;
      cls.all_coefs.push_back(k);
    } else {
      cls.sym_const -= Affine::variable(v, k);
    }
  }

  const bool const_diff = cls.sym_const.is_constant();
  const long cdiff = cls.sym_const.constant;  // src - dst constant part

  // ZIV: no loop variables at all.
  if (cls.common.empty() && !cls.has_noncommon) {
    if (const_diff && cdiff != 0) return DimResult::NoDependence;
    return DimResult::NoConstraint;
  }

  // Strong SIV: exactly one common variable, equal coefficients, no
  // non-common variables.
  if (cls.common.size() == 1 && !cls.has_noncommon) {
    auto& [var, ab] = *cls.common.begin();
    auto [a_src, a_dst] = ab;
    if (a_src == a_dst && a_src != 0 && const_diff) {
      // a*i + c1 = a*i' + c2  =>  i' - i = (c1 - c2) / a = cdiff / a
      if (cdiff % a_src != 0) return DimResult::NoDependence;
      long delta = cdiff / a_src;
      auto it = std::find_if(common_loops.begin(), common_loops.end(),
                             [&](const Loop* l) { return l->var == var; });
      std::size_t pos =
          static_cast<std::size_t>(it - common_loops.begin());
      cons[pos].intersect_distance(delta);
      if (cons[pos].infeasible()) return DimResult::NoDependence;
      return DimResult::Constrained;
    }
    // Weak SIV variants fall through to the GCD screen below.
  }

  // GCD screen (MIV / weak SIV): a solution to sum(a_i x_i) = c requires
  // gcd(a_i) | c.
  if (const_diff && !cls.all_coefs.empty()) {
    long g = 0;
    for (long k : cls.all_coefs) g = std::gcd(g, std::abs(k));
    if (g != 0 && cdiff % g != 0) return DimResult::NoDependence;
  }
  return DimResult::NoConstraint;
}

void enumerate_vectors(const std::vector<LoopConstraint>& cons,
                       std::size_t level, DirVec& cur,
                       std::vector<DirVec>& lex_pos,
                       std::vector<DirVec>& lex_neg, bool& all_eq_ok) {
  if (level == cons.size()) {
    // Classify: first non-EQ decides.
    auto it = std::find_if(cur.begin(), cur.end(),
                           [](Dir d) { return d != Dir::EQ; });
    if (it == cur.end())
      all_eq_ok = true;
    else if (*it == Dir::LT)
      lex_pos.push_back(cur);
    else
      lex_neg.push_back(cur);
    return;
  }
  for (Dir d : {Dir::LT, Dir::EQ, Dir::GT}) {
    if (!cons[level].allows(d)) continue;
    cur.push_back(d);
    enumerate_vectors(cons, level + 1, cur, lex_pos, lex_neg, all_eq_ok);
    cur.pop_back();
  }
}

[[nodiscard]] DirVec reverse_vec(const DirVec& v) {
  DirVec out;
  out.reserve(v.size());
  for (Dir d : v)
    out.push_back(d == Dir::LT ? Dir::GT : d == Dir::GT ? Dir::LT : Dir::EQ);
  return out;
}

[[nodiscard]] DepType classify(bool src_write, bool dst_write) {
  if (src_write && dst_write) return DepType::Output;
  if (src_write) return DepType::Flow;
  if (dst_write) return DepType::Anti;
  return DepType::Input;
}

/// Textual execution order within one iteration: reads of a statement
/// happen before its write; distinct statements order by pre-order index.
[[nodiscard]] bool textually_before(const RefInfo& a, const RefInfo& b) {
  if (a.textual_pos != b.textual_pos) return a.textual_pos < b.textual_pos;
  if (a.is_write != b.is_write) return !a.is_write;  // read before write
  return false;
}

/// True when `e` has a MIN or MAX node anywhere.
[[nodiscard]] bool has_minmax(const IExpr& e) {
  if (e.kind == IKind::Min || e.kind == IKind::Max) return true;
  return (e.lhs && has_minmax(*e.lhs)) || (e.rhs && has_minmax(*e.rhs));
}

/// Banerjee-style feasibility screen for one candidate direction vector.
/// The source instance keeps its variable names; the sink instance's loop
/// variables are renamed (var -> var@d) wherever the two instances may
/// differ — common loops with a non-EQ direction, and every non-common
/// loop.  `src_ctx` holds the caller's facts and the source loops' ranges;
/// a copy gains the renamed sink ranges and the direction constraints, in
/// that order, and the vector is infeasible if any subscript difference is
/// provably >= 1 or <= -1.
[[nodiscard]] bool vector_feasible(const RefInfo& a, const RefInfo& b,
                                   const std::vector<Loop*>& common,
                                   const DirVec& vec,
                                   const Assumptions& src_ctx) {
  std::map<std::string, std::string> ren;
  for (std::size_t l = 0; l < common.size(); ++l)
    if (vec[l] != Dir::EQ) ren[common[l]->var] = common[l]->var + "@d";
  for (std::size_t l = common.size(); l < b.loops.size(); ++l)
    ren[b.loops[l]->var] = b.loops[l]->var + "@d";

  auto renamed = [&ren](IExprPtr e) {
    for (const auto& [o, n] : ren) e = substitute(e, o, ivar(n));
    return e;
  };

  Assumptions ctx = src_ctx;
  for (const Loop* l : b.loops) {
    auto it = ren.find(l->var);
    if (it == ren.end()) continue;  // same instance as the source side
    ctx.add_loop_range(it->second, renamed(l->lb), renamed(l->ub), l->step);
  }
  for (std::size_t l = 0; l < common.size(); ++l) {
    const std::string& v = common[l]->var;
    if (vec[l] == Dir::LT)
      ctx.assert_ge(ivar(v + "@d"), iadd(ivar(v), 1));
    else if (vec[l] == Dir::GT)
      ctx.assert_ge(ivar(v), iadd(ivar(v + "@d"), 1));
  }

  // The prover splits the context's MIN/MAX facts, never a MIN/MAX-free
  // goal, and its leaves see only the goal's affine form: each distinct
  // form is proved once.  Dimensions with equal subscript differences
  // share it; a difference of 0 asks -1 >= 0 twice, which still goes to
  // the prover, since contradictory facts prove it.
  std::vector<std::pair<Affine, bool>> proved;
  auto provable = [&](const IExprPtr& goal) {
    std::optional<Affine> key;
    if (!has_minmax(*goal)) key = as_affine(*goal);
    if (!key) return ctx.nonneg_expr(goal);
    for (const auto& [f, ok] : proved)
      if (f == *key) return ok;
    return proved.emplace_back(std::move(*key), ctx.nonneg_expr(goal)).second;
  };
  std::size_t rank = std::min(a.subs.size(), b.subs.size());
  for (std::size_t d = 0; d < rank; ++d) {
    IExprPtr h = isub(a.subs[d], renamed(b.subs[d]));
    if (provable(isub(h, iconst(1)))) return false;   // h >= 1
    if (provable(isub(iconst(-1), h))) return false;  // h <= -1
  }
  return true;
}

}  // namespace

std::vector<PairEdge> pair_edges(const RefInfo& a, const RefInfo& b,
                                 const Assumptions* ctx) {
  if (a.array != b.array) return {};
  std::size_t depth = a.common_depth(b);
  std::vector<Loop*> common(a.loops.begin(),
                            a.loops.begin() + static_cast<long>(depth));

  std::vector<LoopConstraint> cons(depth);
  std::size_t rank = std::min(a.subs.size(), b.subs.size());
  std::vector<std::optional<long>> distances(depth);
  for (std::size_t d = 0; d < rank; ++d) {
    DimResult r = test_dim(a.subs[d], b.subs[d], common, a.loops, b.loops,
                           cons);
    if (r == DimResult::NoDependence) return {};
  }
  for (std::size_t l = 0; l < depth; ++l) {
    if (cons[l].infeasible()) return {};
    distances[l] = cons[l].distance;
  }

  // Each candidate vector is screened below, and their number grows as
  // 3^depth: refuse a pair with more than 3^8 rather than exhaust memory.
  constexpr std::size_t kMaxVectors = 6561;
  std::size_t candidates = 1;
  for (const LoopConstraint& c : cons) {
    candidates *= static_cast<std::size_t>(c.lt) + c.eq + c.gt;
    if (candidates > kMaxVectors)
      throw Error("ddtest: " + a.array + " in a " + std::to_string(depth) +
                  "-deep nest has more than " + std::to_string(kMaxVectors) +
                  " direction vectors to test");
  }

  std::vector<DirVec> lex_pos, lex_neg;
  bool all_eq = false;
  DirVec cur;
  enumerate_vectors(cons, 0, cur, lex_pos, lex_neg, all_eq);

  // Banerjee screen with symbolic loop-range facts; scalars always
  // conflict.  The caller's facts and the source ranges are built once
  // for every vector of the pair.
  if (!a.subs.empty() && !b.subs.empty()) {
    Assumptions src_ctx = ctx ? *ctx : Assumptions{};
    for (const Loop* l : a.loops) src_ctx.add_loop_range(*l);
    auto infeasible = [&](const DirVec& v) {
      return !vector_feasible(a, b, common, v, src_ctx);
    };
    std::erase_if(lex_pos, infeasible);
    std::erase_if(lex_neg, infeasible);
    if (all_eq) all_eq = !infeasible(DirVec(depth, Dir::EQ));
  }

  std::vector<PairEdge> out;
  // a -> b: lexicographically positive vectors, plus all-EQ when `a`
  // textually precedes `b`.
  {
    std::vector<DirVec> vecs = lex_pos;
    if (all_eq && a.stmt != b.stmt && textually_before(a, b))
      vecs.push_back(DirVec(depth, Dir::EQ));
    if (all_eq && a.stmt == b.stmt && a.stmt != nullptr &&
        textually_before(a, b))
      vecs.push_back(DirVec(depth, Dir::EQ));
    if (!vecs.empty() || (depth == 0 && all_eq && textually_before(a, b)))
      out.push_back({.reversed = false,
                     .type = classify(a.is_write, b.is_write),
                     .vectors = std::move(vecs),
                     .distances = distances});
  }
  // b -> a: reversed lexicographically negative vectors, plus all-EQ when
  // `b` textually precedes `a`.
  {
    std::vector<DirVec> vecs;
    vecs.reserve(lex_neg.size());
    for (const auto& v : lex_neg) vecs.push_back(reverse_vec(v));
    if (all_eq && a.stmt != b.stmt && textually_before(b, a))
      vecs.push_back(DirVec(depth, Dir::EQ));
    std::vector<std::optional<long>> rev_dist(depth);
    for (std::size_t l = 0; l < depth; ++l)
      if (distances[l]) rev_dist[l] = -*distances[l];
    if (!vecs.empty() || (depth == 0 && all_eq && textually_before(b, a)))
      out.push_back({.reversed = true,
                     .type = classify(b.is_write, a.is_write),
                     .vectors = std::move(vecs),
                     .distances = std::move(rev_dist)});
  }
  // Drop edges that ended up with no feasible vectors (unless depth 0
  // loop-independent which is encoded with one empty vector).
  std::erase_if(out, [&](const PairEdge& e) {
    return e.vectors.empty() && depth != 0;
  });
  return out;
}

std::vector<Dependence> pair_dependences(const RefInfo& a, const RefInfo& b,
                                         std::vector<PairEdge> edges) {
  std::vector<Dependence> out;
  out.reserve(edges.size());
  for (PairEdge& e : edges)
    out.push_back({.src = e.reversed ? b : a,
                   .dst = e.reversed ? a : b,
                   .type = e.type,
                   .vectors = std::move(e.vectors),
                   .distances = std::move(e.distances)});
  return out;
}

std::vector<Dependence> test_pair(const RefInfo& a, const RefInfo& b,
                                  const Assumptions* ctx) {
  return pair_dependences(a, b, pair_edges(a, b, ctx));
}

std::vector<Dependence> all_dependences(ir::StmtList& body,
                                        const Assumptions* ctx) {
  return all_dependences(collect_refs(body), ctx);
}

std::vector<Dependence> all_dependences(const std::vector<RefInfo>& refs,
                                        const Assumptions* ctx) {
  AnalysisManager* am = current_analysis_manager();
  const AnalysisManager::PairKeys keys =
      am ? am->pair_keys(refs, ctx) : AnalysisManager::PairKeys{};
  std::vector<Dependence> out;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    for (std::size_t j = i; j < refs.size(); ++j) {
      const RefInfo& a = refs[i];
      const RefInfo& b = refs[j];
      if (a.array != b.array) continue;
      if (!a.is_write && !b.is_write) continue;
      // A self pair is a write's output dependence across iterations; the
      // all-EQ vector is the same access and is skipped because
      // textually_before(a, a) is false.
      auto deps =
          am ? am->test_pair(refs, keys, i, j, ctx) : test_pair(a, b, ctx);
      for (auto& d : deps) out.push_back(std::move(d));
    }
  }
  return out;
}

std::vector<Dependence> dependences_within(ir::StmtList& root,
                                           const ir::Loop& loop,
                                           const Assumptions* ctx) {
  std::vector<RefInfo> refs = collect_refs(root);
  std::erase_if(refs, [&](const RefInfo& r) {
    return std::ranges::find(r.loops, &loop) == r.loops.end();
  });
  return all_dependences(refs, ctx);
}

}  // namespace blk::analysis
