// Dependence-testing tests: classical subscript tests, direction vectors,
// and the symbolic Banerjee screen, plus a differential test of the
// screen against a fresh context and one proof per goal for each vector.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <random>

#include "analysis/ddtest.hpp"
#include "ir/builder.hpp"
#include "ir/error.hpp"
#include "ir/printer.hpp"
#include "kernels/ir_kernels.hpp"
#include "pm/runner.hpp"
#include "pm/spec.hpp"

namespace blk::analysis {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;

/// Find the first dependence of the given type between the named arrays'
/// accesses (nullptr if none).
const Dependence* find_dep(const std::vector<Dependence>& deps, DepType t) {
  for (const auto& d : deps)
    if (d.type == t) return &d;
  return nullptr;
}

TEST(DDTest, StrongSivCarriedFlow) {
  // DO I: A(I) = A(I-5) + 1  -- flow dependence, distance 5, carried.
  Program p;
  p.param("N");
  p.array_bounds("A", {{.lb = isub(c(0), c(10)), .ub = v("N")}});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), a("A", {v("I") - 5}) + f(1.0))));
  auto deps = all_dependences(p.body);
  const Dependence* d = find_dep(deps, DepType::Flow);
  ASSERT_NE(d, nullptr);
  ASSERT_EQ(d->depth(), 1u);
  EXPECT_EQ(d->distance_at(0), 5);
  EXPECT_TRUE(d->carried_at(0));
  EXPECT_FALSE(d->loop_independent());
}

TEST(DDTest, DeepNestOverTheVectorCapThrows) {
  // A(1) = A(1) + 1 inside nine loops leaves each loop all three
  // directions: 3^9 candidate vectors, over the 3^8 cap.
  Program p;
  p.param("N");
  p.array_bounds("A", {{.lb = c(1), .ub = v("N")}});
  StmtPtr s = assign(lv("A", {c(1)}), a("A", {c(1)}) + f(1.0));
  for (int d = 9; d >= 1; --d)
    s = loop("I" + std::to_string(d), c(1), v("N"), std::move(s));
  p.add(std::move(s));
  try {
    (void)all_dependences(p.body);
    ADD_FAILURE() << "a 9-deep nest enumerated 3^9 vectors";
  } catch (const blk::Error& e) {
    EXPECT_NE(std::string(e.what()).find("A in a 9-deep nest"),
              std::string::npos)
        << e.what();
  }
}

TEST(DDTest, StrongSivAntiWhenReadAhead) {
  // DO I: A(I) = A(I+3) -- the read is of a *later* iteration's write:
  // antidependence from the read to the write, distance 3.
  Program p;
  p.param("N");
  p.array("A", {iadd(v("N"), c(3))});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), a("A", {v("I") + 3}))));
  auto deps = all_dependences(p.body);
  const Dependence* d = find_dep(deps, DepType::Anti);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->distance_at(0), 3);
  EXPECT_EQ(find_dep(deps, DepType::Flow), nullptr);
}

TEST(DDTest, ZivDistinctConstantsNoDependence) {
  // A(1) and A(2) never conflict.
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.add(loop("I", c(1), v("N"), assign(lv("A", {c(1)}), a("A", {c(2)}))));
  auto deps = all_dependences(p.body);
  EXPECT_EQ(find_dep(deps, DepType::Flow), nullptr);
  EXPECT_EQ(find_dep(deps, DepType::Anti), nullptr);
  // But the write A(1) conflicts with itself across iterations (output).
  EXPECT_NE(find_dep(deps, DepType::Output), nullptr);
}

TEST(DDTest, GcdTestKillsParityMismatch) {
  // A(2*I) = A(2*I+1): even vs odd subscripts never meet.
  Program p;
  p.param("N");
  p.array("A", {imul(c(2), v("N")) + 1});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {imul(c(2), v("I"))}),
                    a("A", {imul(c(2), v("I")) + 1}))));
  auto deps = all_dependences(p.body);
  EXPECT_EQ(find_dep(deps, DepType::Flow), nullptr);
  EXPECT_EQ(find_dep(deps, DepType::Anti), nullptr);
}

TEST(DDTest, SymbolicConstantDistanceUnknownIsConservative) {
  // A(I) vs A(I+M): M symbolic -- must assume a dependence may exist.
  Program p;
  p.param("N");
  p.param("M");
  p.array("A", {iadd(v("N"), v("M"))});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), a("A", {v("I") + v("M")}))));
  auto deps = all_dependences(p.body);
  EXPECT_TRUE(find_dep(deps, DepType::Flow) != nullptr ||
              find_dep(deps, DepType::Anti) != nullptr);
}

TEST(DDTest, TwoDimensionalDistanceVector) {
  // A(I,J) = A(I-1,J+1): classic (1,-1) distance -> interchange-hostile.
  Program p;
  p.param("N");
  p.array("A", {iadd(v("N"), c(2)), iadd(v("N"), c(2))});
  p.add(loop("I", c(2), v("N"),
             loop("J", c(1), v("N"),
                  assign(lv("A", {v("I"), v("J")}),
                         a("A", {v("I") - 1, v("J") + 1})))));
  auto deps = all_dependences(p.body);
  const Dependence* d = find_dep(deps, DepType::Flow);
  ASSERT_NE(d, nullptr);
  ASSERT_EQ(d->depth(), 2u);
  EXPECT_EQ(d->distance_at(0), 1);
  EXPECT_EQ(d->distance_at(1), -1);
  ASSERT_EQ(d->vectors.size(), 1u);
  EXPECT_EQ(d->vectors[0][0], Dir::LT);
  EXPECT_EQ(d->vectors[0][1], Dir::GT);
}

TEST(DDTest, LoopIndependentWithinIteration) {
  // B(I) = A(I); C(I) = B(I): loop-independent flow B -> use.
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.array("C", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("B", {v("I")}), a("A", {v("I")})),
             assign(lv("C", {v("I")}), a("B", {v("I")}))));
  auto deps = all_dependences(p.body);
  const Dependence* d = nullptr;
  for (const auto& dep : deps)
    if (dep.type == DepType::Flow && dep.src.array == "B") d = &dep;
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->loop_independent());
  EXPECT_FALSE(d->carried_at(0));
}

TEST(DDTest, ReductionSelfOutputDependence) {
  // S(I) accumulation inside a K loop carries an output self-dependence.
  Program p;
  p.param("N");
  p.array("S", {v("N")});
  p.array("A", {v("N"), v("N")});
  p.add(loop("I", c(1), v("N"),
             loop("K", c(1), v("N"),
                  assign(lv("S", {v("I")}),
                         a("S", {v("I")}) + a("A", {v("I"), v("K")})))));
  auto deps = all_dependences(p.body);
  const Dependence* d = find_dep(deps, DepType::Output);
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->carried_at(1));   // carried by K
  EXPECT_FALSE(d->carried_at(0));  // I distance is 0
}

TEST(DDTest, ScalarsConflictConservatively) {
  // T = A(I); B(I) = T: every pair of T accesses conflicts (rank 0).
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.scalar("T");
  p.add(loop("I", c(1), v("N"),
             assign(lvs("T"), a("A", {v("I")})),
             assign(lv("B", {v("I")}), s("T"))));
  auto deps = all_dependences(p.body);
  bool t_flow = false, t_anti = false;
  for (const auto& d : deps) {
    if (d.src.array != "T") continue;
    if (d.type == DepType::Flow) t_flow = true;
    if (d.type == DepType::Anti) t_anti = true;
  }
  EXPECT_TRUE(t_flow);  // T written then read
  EXPECT_TRUE(t_anti);  // read then re-written next iteration
}

TEST(DDTest, BanerjeeScreenSeparatesDisjointColumns) {
  // DO K / DO J1 = 1,K ... A(J1) / DO J2 = K+1,N ... A(J2):
  // writes in [1,K] never meet reads in [K+1,N].
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.add(loop("K", c(1), v("N") - 1,
             loop("J1", c(1), v("K"),
                  assign(lv("A", {v("J1")}), f(1.0))),
             loop("J2", v("K") + 1, v("N"),
                  assign(lv("B", {v("J2")}), a("A", {v("J2")})))));
  auto deps = all_dependences(p.body);
  // The only A-to-A pairs must carry no flow edge from the J1 write into
  // the J2 read at equal K (the screen proves J1 <= K < J2)... dependences
  // across different K iterations (write at K, read at K' > K) are real
  // though: A(J1<=K) written, later read when J2 range has dropped to
  // J2 > K' -- still disjoint?  J2 > K' >= K+1 > J1 only when K' >= K.
  // For K' > K: read range [K'+1, N], write range [1, K] with K < K'+1:
  // disjoint.  So no flow at all.
  for (const auto& d : deps) {
    if (d.src.array == "A" && d.type == DepType::Flow &&
        d.dst.stmt != d.src.stmt)
      FAIL() << "spurious dependence: " << d.to_string();
  }
}

TEST(DDTest, InputDependencesOnlyOnRequest) {
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.array("C", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("B", {v("I")}), a("A", {v("I")})),
             assign(lv("C", {v("I")}), a("A", {v("I")}))));
  // all_dependences tests no pair of reads; asked about the two reads of
  // A(I), test_pair classifies them as an input dependence.
  EXPECT_EQ(find_dep(all_dependences(p.body), DepType::Input), nullptr);
  std::vector<RefInfo> reads;
  for (RefInfo& r : collect_refs(p.body))
    if (r.array == "A") reads.push_back(std::move(r));
  ASSERT_EQ(reads.size(), 2u);
  std::vector<Dependence> deps = test_pair(reads[0], reads[1]);
  const Dependence* d = find_dep(deps, DepType::Input);
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->loop_independent()) << d->to_string();
}

TEST(DDTest, LuRecurrenceDetected) {
  // The paper's LU kernel: statements 20 and 10 form a K-carried cycle.
  Program p = blk::kernels::lu_point_ir();
  auto deps = all_dependences(p.body);
  bool flow_20_to_10 = false, flow_10_to_20 = false;
  for (const auto& d : deps) {
    if (d.type != DepType::Flow || !d.src.stmt || !d.dst.stmt) continue;
    if (d.src.stmt->label == 20 && d.dst.stmt->label == 10)
      flow_20_to_10 = true;
    if (d.src.stmt->label == 10 && d.dst.stmt->label == 20 &&
        d.carried_at(0))
      flow_10_to_20 = true;
  }
  EXPECT_TRUE(flow_20_to_10);
  EXPECT_TRUE(flow_10_to_20);
}

TEST(DDTest, DirectionVectorPrinting) {
  Program p;
  p.param("N");
  p.array("A", {iadd(v("N"), c(1))});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), a("A", {v("I") - 1}))));
  auto deps = all_dependences(p.body);
  const Dependence* d = find_dep(deps, DepType::Flow);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->to_string().find("(<)"), std::string::npos);
}

TEST(DDTest, WeakZeroSivIsConservative) {
  // A(5) = A(I): the constant-vs-variable pair cannot be resolved without
  // bounds reasoning, so a dependence must be assumed.
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {c(5)}), a("A", {v("I")}))));
  auto deps = all_dependences(p.body);
  bool any = false;
  for (const auto& d : deps)
    if (d.type == DepType::Anti || d.type == DepType::Flow) any = true;
  EXPECT_TRUE(any);
}

TEST(DDTest, WeakCrossingSivIsConservative) {
  // A(I) = A(N-I): coefficients +1/-1 cross somewhere in the range.
  Program p;
  p.param("N");
  p.array_bounds("A", {{.lb = c(0), .ub = v("N")}});
  p.add(loop("I", c(1), v("N") - 1,
             assign(lv("A", {v("I")}), a("A", {v("N") - v("I")}))));
  auto deps = all_dependences(p.body);
  EXPECT_FALSE(deps.empty());
}

TEST(DDTest, ScreenUsesTriangularBounds) {
  // DO I / DO J = I+1, N: A(I,...) write vs A(J,...) read — J > I always,
  // so same-iteration aliasing on dimension 0 is impossible; only the
  // carried dependence (write at I, read when some later J' equals it...
  // J' > I' >= ... ) survives as real.
  Program p;
  p.param("N");
  p.array("A", {v("N"), v("N")});
  p.add(loop("I", c(1), v("N") - 1,
             loop("J", v("I") + 1, v("N"),
                  assign(lv("A", {v("I"), v("J")}),
                         a("A", {v("J"), v("I")})))));
  auto deps = all_dependences(p.body);
  for (const auto& d : deps) {
    if (d.src.array != "A" || d.src.stmt == nullptr) continue;
    // No loop-independent self-aliasing: every surviving vector must have
    // a non-EQ component.
    for (const auto& vct : d.vectors) {
      bool all_eq = true;
      for (auto dir : vct) all_eq &= (dir == Dir::EQ);
      EXPECT_FALSE(all_eq) << d.to_string();
    }
  }
}

TEST(DDTest, SameCellConstantSubscriptsConflict) {
  // A(3,7) written and read by every iteration: carried both ways.
  Program p;
  p.param("N");
  p.array("A", {v("N"), v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {c(3), c(7)}),
                    a("A", {c(3), c(7)}) + f(1.0))));
  auto deps = all_dependences(p.body);
  const Dependence* flow = find_dep(deps, DepType::Flow);
  ASSERT_NE(flow, nullptr);
  EXPECT_TRUE(flow->carried_at(0));
}

TEST(DDTest, RankMismatchCommonPrefixOnly) {
  // B(I) vs B(I,?) cannot happen (declared rank fixed); instead check a
  // 2-D pair where only one dim constrains: A(I,1) vs A(I,2) never alias.
  Program p;
  p.param("N");
  p.array("A", {v("N"), c(2)});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I"), c(1)}), a("A", {v("I"), c(2)}))));
  auto deps = all_dependences(p.body);
  EXPECT_EQ(find_dep(deps, DepType::Flow), nullptr);
  EXPECT_EQ(find_dep(deps, DepType::Anti), nullptr);
}

TEST(DDTest, DistanceFiveAcrossTwoStatements) {
  // S1: B(I) = A(I); S2: A(I-5) = 0 — S2's write at iteration i feeds
  // nothing (it trails the read), so the read-then-write order makes an
  // antidependence from S1's read at i-5 to S2's write at i: distance 5.
  Program p;
  p.param("N");
  p.array_bounds("A", {{.lb = isub(c(0), c(5)), .ub = v("N")}});
  p.array("B", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("B", {v("I")}), a("A", {v("I")})),
             assign(lv("A", {v("I") - 5}), f(0.0))));
  auto deps = all_dependences(p.body);
  const Dependence* d = nullptr;
  for (const auto& q : deps)
    if (q.type == DepType::Anti && q.src.array == "A") d = &q;
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->distance_at(0), 5);
  EXPECT_TRUE(d->carried_at(0));
}

// ---- Differential reference for the Banerjee screen ------------------------
//
// test_pair as it was before the screen shared work across vectors: the
// same subscript tests and edge assembly, and for each candidate vector a
// fresh context (caller facts, source ranges, renamed sink ranges,
// direction facts) with one prover query per goal.

struct RefConstraint {
  bool lt = true, eq = true, gt = true;
  std::optional<long> distance;

  void intersect_distance(long d) {
    if (distance && *distance != d) {
      lt = eq = gt = false;
      return;
    }
    distance = d;
    lt = lt && d > 0;
    eq = eq && d == 0;
    gt = gt && d < 0;
  }
  [[nodiscard]] bool infeasible() const { return !lt && !eq && !gt; }
  [[nodiscard]] bool allows(Dir d) const {
    return d == Dir::LT ? lt : d == Dir::EQ ? eq : gt;
  }
};

bool has_loop_var(const std::vector<Loop*>& loops, const std::string& n) {
  return std::any_of(loops.begin(), loops.end(),
                     [&](const Loop* l) { return l->var == n; });
}

/// The subscript tests of one dimension; false means no dependence.
bool ref_test_dim(const IExprPtr& s_src, const IExprPtr& s_dst,
                  const std::vector<Loop*>& common, const RefInfo& a,
                  const RefInfo& b, std::vector<RefConstraint>& cons) {
  auto fa = as_affine(*s_src);
  auto fb = as_affine(*s_dst);
  if (!fa || !fb) return true;
  std::map<std::string, std::pair<long, long>> com;
  bool noncommon = false;
  Affine sym = Affine::constant_term(fa->constant - fb->constant);
  std::vector<long> coefs;
  for (const auto& [v, k] : fa->coef) {
    if (has_loop_var(common, v)) {
      com[v].first += k;
      coefs.push_back(k);
    } else if (has_loop_var(a.loops, v)) {
      noncommon = true;
      coefs.push_back(k);
    } else {
      sym += Affine::variable(v, k);
    }
  }
  for (const auto& [v, k] : fb->coef) {
    if (has_loop_var(common, v)) {
      com[v].second += k;
      coefs.push_back(k);
    } else if (has_loop_var(b.loops, v)) {
      noncommon = true;
      coefs.push_back(k);
    } else {
      sym -= Affine::variable(v, k);
    }
  }
  const bool const_diff = sym.is_constant();
  const long cdiff = sym.constant;
  if (com.empty() && !noncommon) return !(const_diff && cdiff != 0);
  if (com.size() == 1 && !noncommon) {
    const auto& [var, ab] = *com.begin();
    if (ab.first == ab.second && ab.first != 0 && const_diff) {
      if (cdiff % ab.first != 0) return false;
      std::size_t pos = 0;
      while (common[pos]->var != var) ++pos;
      cons[pos].intersect_distance(cdiff / ab.first);
      return !cons[pos].infeasible();
    }
  }
  if (const_diff && !coefs.empty()) {
    long g = 0;
    for (long k : coefs) g = std::gcd(g, std::abs(k));
    if (g != 0 && cdiff % g != 0) return false;
  }
  return true;
}

bool ref_vector_feasible(const RefInfo& a, const RefInfo& b,
                         const std::vector<Loop*>& common, const DirVec& vec,
                         const Assumptions* base) {
  if (a.subs.empty() || b.subs.empty()) return true;
  std::map<std::string, std::string> ren;
  for (std::size_t l = 0; l < common.size(); ++l)
    if (vec[l] != Dir::EQ) ren[common[l]->var] = common[l]->var + "@d";
  for (std::size_t l = common.size(); l < b.loops.size(); ++l)
    ren[b.loops[l]->var] = b.loops[l]->var + "@d";
  auto renamed = [&ren](IExprPtr e) {
    for (const auto& [o, n] : ren) e = substitute(e, o, ivar(n));
    return e;
  };
  Assumptions ctx = base ? *base : Assumptions{};
  for (const Loop* l : a.loops) ctx.add_loop_range(*l);
  for (const Loop* l : b.loops) {
    auto it = ren.find(l->var);
    if (it == ren.end()) continue;
    ctx.add_loop_range(it->second, renamed(l->lb), renamed(l->ub), l->step);
  }
  for (std::size_t l = 0; l < common.size(); ++l) {
    const std::string& v = common[l]->var;
    if (vec[l] == Dir::LT)
      ctx.assert_ge(ivar(v + "@d"), iadd(ivar(v), 1));
    else if (vec[l] == Dir::GT)
      ctx.assert_ge(ivar(v), iadd(ivar(v + "@d"), 1));
  }
  std::size_t rank = std::min(a.subs.size(), b.subs.size());
  for (std::size_t d = 0; d < rank; ++d) {
    IExprPtr h = isub(a.subs[d], renamed(b.subs[d]));
    if (ctx.nonneg_expr(isub(h, iconst(1)))) return false;
    if (ctx.nonneg_expr(isub(iconst(-1), h))) return false;
  }
  return true;
}

bool ref_before(const RefInfo& a, const RefInfo& b) {
  if (a.textual_pos != b.textual_pos) return a.textual_pos < b.textual_pos;
  if (a.is_write != b.is_write) return !a.is_write;
  return false;
}

DepType ref_classify(bool src_write, bool dst_write) {
  if (src_write && dst_write) return DepType::Output;
  if (src_write) return DepType::Flow;
  if (dst_write) return DepType::Anti;
  return DepType::Input;
}

std::vector<Dependence> ref_test_pair(const RefInfo& a, const RefInfo& b,
                                      const Assumptions* ctx) {
  if (a.array != b.array) return {};
  const std::size_t depth = a.common_depth(b);
  std::vector<Loop*> common(a.loops.begin(),
                            a.loops.begin() + static_cast<long>(depth));
  std::vector<RefConstraint> cons(depth);
  for (std::size_t d = 0; d < std::min(a.subs.size(), b.subs.size()); ++d)
    if (!ref_test_dim(a.subs[d], b.subs[d], common, a, b, cons)) return {};
  std::vector<std::optional<long>> dist(depth), rev(depth);
  for (std::size_t l = 0; l < depth; ++l) {
    if (cons[l].infeasible()) return {};
    dist[l] = cons[l].distance;
    if (dist[l]) rev[l] = -*dist[l];
  }
  // Every candidate in lexicographic (LT, EQ, GT) order, then screened.
  std::vector<DirVec> pos, neg;
  bool all_eq = false;
  std::vector<DirVec> todo{{}};
  for (std::size_t l = 0; l < depth; ++l) {
    std::vector<DirVec> next;
    for (const DirVec& v : todo)
      for (Dir d : {Dir::LT, Dir::EQ, Dir::GT})
        if (cons[l].allows(d)) {
          next.push_back(v);
          next.back().push_back(d);
        }
    todo = std::move(next);
  }
  for (const DirVec& v : todo) {
    auto first = std::ranges::find_if(v, [](Dir d) { return d != Dir::EQ; });
    if (first == v.end())
      all_eq = ref_vector_feasible(a, b, common, v, ctx);
    else if (ref_vector_feasible(a, b, common, v, ctx))
      (*first == Dir::LT ? pos : neg).push_back(v);
  }
  std::vector<Dependence> out;
  const bool fwd_eq = all_eq && ref_before(a, b) &&
                      (a.stmt != b.stmt || a.stmt != nullptr);
  if (fwd_eq) pos.push_back(DirVec(depth, Dir::EQ));
  if (!pos.empty() || (depth == 0 && all_eq && ref_before(a, b)))
    out.push_back({.src = a,
                   .dst = b,
                   .type = ref_classify(a.is_write, b.is_write),
                   .vectors = pos,
                   .distances = dist});
  std::vector<DirVec> back;
  for (DirVec v : neg) {
    for (Dir& d : v) d = d == Dir::LT ? Dir::GT : d == Dir::GT ? Dir::LT : d;
    back.push_back(v);
  }
  if (all_eq && a.stmt != b.stmt && ref_before(b, a))
    back.push_back(DirVec(depth, Dir::EQ));
  if (!back.empty() || (depth == 0 && all_eq && ref_before(b, a)))
    out.push_back({.src = b,
                   .dst = a,
                   .type = ref_classify(b.is_write, a.is_write),
                   .vectors = back,
                   .distances = rev});
  std::erase_if(out, [&](const Dependence& d) {
    return d.vectors.empty() && depth != 0;
  });
  return out;
}

/// Edges as comparable strings: endpoints, type, vectors and distances.
std::vector<std::string> spell(const std::vector<Dependence>& deps) {
  std::vector<std::string> out;
  for (const Dependence& d : deps) {
    std::string s = std::to_string(d.src.textual_pos) +
                    (d.src.is_write ? "w " : "r ") +
                    std::to_string(d.dst.textual_pos) +
                    (d.dst.is_write ? "w " : "r ") + d.to_string() + " [";
    for (const auto& x : d.distances)
      s += x ? std::to_string(*x) + " " : std::string("? ");
    out.push_back(s + "]");
  }
  return out;
}

/// A random nest 1-5 deep over A(N,N) and B(N).  Loops take constant,
/// triangular and MIN/MAX bounds (some kept as raw facts), one-trip and
/// empty constant ranges, steps 1, 2, -1 and the symbolic S; statements
/// at the innermost and one outer level read and write subscripts that
/// are often equal.
Program random_nest(std::mt19937& rng) {
  auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  Program p;
  for (const char* n : {"N", "M", "S"}) p.param(n);
  p.array("A", {v("N"), v("N")});
  p.array("B", {v("N")});
  const std::size_t depth = 1 + pick(5);
  struct Header {
    std::string var;
    IExprPtr lb, ub, step;
  };
  std::vector<Header> hs;
  for (std::size_t k = 0; k < depth; ++k) {
    const IExprPtr outer = k ? v(hs[pick(k)].var) : v("M");
    auto [lb, ub] = [&]() -> std::pair<IExprPtr, IExprPtr> {
      switch (pick(11)) {
        case 0: return {c(1), c(1)};  // one trip
        case 1: return {c(6), c(3)};  // empty
        case 2: return {outer + 1, v("N")};
        case 3: return {c(1), outer};
        case 4: return {c(1), imin(outer + 2, v("N"))};
        case 5: return {imax(c(1), outer - 1), v("N")};
        case 6: return {outer, outer + 2};
        case 7: return {imin(c(2), outer), imax(outer, c(3))};
        default: return {c(1), v("N")};
      }
    }();
    IExprPtr step;
    switch (pick(8)) {
      case 0:  // descending
        step = c(-1);
        std::swap(lb, ub);
        break;
      case 1: step = v("S"); break;
      case 2: step = c(2); break;
      default: break;
    }
    hs.push_back({.var = "I" + std::to_string(k + 1),
                  .lb = lb,
                  .ub = ub,
                  .step = step});
  }
  auto sub = [&](std::size_t in_scope) -> IExprPtr {
    IExprPtr x = v(hs[pick(in_scope)].var);
    IExprPtr y = v(hs[pick(in_scope)].var);
    switch (pick(9)) {
      case 0: return c(1 + static_cast<long>(pick(3)));
      case 1: return x + (static_cast<long>(pick(5)) - 2);
      case 2: return x + y;
      case 3: return v("N") - x;
      case 4: return 2 * x;
      case 5: return imin(x, v("N"));
      default: return x;
    }
  };
  auto stmt = [&](std::size_t in_scope) {
    std::vector<IExprPtr> w{sub(in_scope), sub(in_scope)};
    std::vector<IExprPtr> r = w;  // equal subscripts, h = 0
    if (pick(3) == 0) r[pick(2)] = sub(in_scope);
    if (pick(4) == 0) r = {sub(in_scope), sub(in_scope)};
    if (pick(3) == 0)
      return assign(lv("B", {w[0]}), a("B", {r[0]}) + a("A", r));
    return assign(lv("A", w), a("A", r) + a("B", {sub(in_scope)}));
  };
  StmtList body;
  for (std::size_t n = 1 + pick(2); n > 0; --n) body.push_back(stmt(depth));
  for (std::size_t k = depth; k-- > 0;) {
    StmtPtr l = make_loop(hs[k].var, hs[k].lb, hs[k].ub, std::move(body),
                          hs[k].step);
    body.clear();
    body.push_back(std::move(l));
    if (k > 0 && pick(3) == 0) body.push_back(stmt(k));
  }
  for (auto& s : body) p.add(std::move(s));
  return p;
}

/// Every same-array reference pair of `p`, compared under `ctx`.
std::size_t compare_pairs(Program& p, const Assumptions* ctx,
                          std::size_t& vectors) {
  const std::vector<RefInfo> refs = collect_refs(p.body);
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < refs.size(); ++i)
    for (std::size_t j = i; j < refs.size(); ++j) {
      if (refs[i].array != refs[j].array) continue;
      const std::vector<Dependence> got = test_pair(refs[i], refs[j], ctx);
      EXPECT_EQ(spell(got), spell(ref_test_pair(refs[i], refs[j], ctx)))
          << "pair " << i << ", " << j << "\n" << print(p);
      for (const Dependence& d : got) vectors += d.vectors.size();
      ++pairs;
    }
  return pairs;
}

TEST(DDTest, ScreenMatchesFreshContextPerVector) {
  // An h = 0 shortcut would keep LT here: in DO K = 1, 1 the facts
  // K@d >= K+1, K >= 1 and 1 >= K@d sum to -1, so the prover shows both
  // instances cannot differ and only the loop-independent edge remains.
  {
    Program p;
    p.param("N");
    p.array("A", {v("N")});
    p.add(loop("K", c(1), c(1),
               assign(lv("A", {c(1)}), a("A", {c(1)}) + f(1.0))));
    std::size_t vectors = 0;
    compare_pairs(p, nullptr, vectors);
    const std::vector<Dependence> deps = all_dependences(p.body);
    ASSERT_FALSE(deps.empty());
    for (const Dependence& d : deps)
      EXPECT_FALSE(d.carried_at(0)) << d.to_string();
  }

  // Seeded random nests, bare and under caller facts whose MIN/MAX split
  // hands the search constant extras (MIN(N,7) >= 2 gives 5 >= 0,
  // MAX(N,2) >= 3 a branch -1 >= 0).
  Assumptions facts;
  facts.assert_ge(v("N"), c(1));
  facts.assert_ge(v("S"), c(1));
  facts.assert_ge(imin(v("N"), c(7)), c(2));
  facts.assert_ge(imax(v("N"), c(2)), c(3));
  facts.assert_ge(v("N"), imax(v("M"), c(3)));
  std::size_t pairs = 0, vectors = 0;
  for (unsigned seed = 1; pairs < 2000; ++seed) {
    std::mt19937 rng(seed);
    Program p = random_nest(rng);
    pairs += compare_pairs(p, nullptr, vectors);
    (void)compare_pairs(p, &facts, vectors);
    if (HasFailure()) return;
  }

  // Every pair of the kernels and derived programs DepGraph's
  // construction test walks, with and without the block facts.
  using Factory = Program (*)();
  const std::pair<Factory, const char*> corpus[] = {
      {kernels::sum_example_ir, ""},
      {kernels::partial_recurrence_ir, ""},
      {kernels::aconv_ir, ""},
      {kernels::conv_ir, "optconv(u=4)"},
      {kernels::matmul_guarded_ir,
       "focus(var=K); ifinspect; focus(var=K, index=1); unrolljam(u=4)"},
      {kernels::lu_point_ir, "autoblockplus(b=KS, u=4)"},
      {kernels::lu_pivot_point_ir,
       "stripmine(b=KS); split; distribute(commutativity); interchange"},
      {kernels::givens_qr_ir, "optgivens; focus(var=K, index=1); "
                              "registerblock(u=4)"},
      {kernels::stencil2d_ir, "skew(f=1); interchange"}};
  Assumptions block;
  pm::add_fact(block, "K+KS-1<=N-1");
  pm::add_fact(block, "N>=1");
  for (const auto& [make, spec] : corpus)
    for (bool derived : {false, true}) {
      if (derived && !*spec) continue;
      Program p = make();
      if (derived) (void)pm::run_spec(p, spec, block);
      pairs += compare_pairs(p, nullptr, vectors);
      pairs += compare_pairs(p, &block, vectors);
    }
  EXPECT_GT(pairs, 10000u);
  EXPECT_GT(vectors, 100000u);
}

}  // namespace
}  // namespace blk::analysis
