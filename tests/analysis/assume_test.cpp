// Tests for the symbolic assumption context and its MIN/MAX case-split
// proof machinery, plus two seeded oracles for the proof search: a
// differential one against the plain cubic search, and a soundness one
// that checks every proved goal on each integer point of a small box.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <random>

#include "analysis/assume.hpp"
#include "ir/builder.hpp"

namespace blk::analysis {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;

TEST(Assume, ConstantFactsAreDirect) {
  Assumptions ctx;
  EXPECT_TRUE(ctx.ge(c(5), c(3)));
  EXPECT_FALSE(ctx.ge(c(3), c(5)));
  EXPECT_TRUE(ctx.eq(c(4), c(4)));
  EXPECT_TRUE(ctx.le(c(3), c(3)));
}

TEST(Assume, SingleFactChain) {
  Assumptions ctx;
  ctx.assert_ge(v("N"), c(10));
  EXPECT_TRUE(ctx.ge(v("N"), c(10)));
  EXPECT_TRUE(ctx.ge(v("N"), c(7)));    // N >= 10 >= 7
  EXPECT_FALSE(ctx.ge(v("N"), c(11)));  // not provable
  EXPECT_TRUE(ctx.ge(v("N") + 5, c(15)));
}

TEST(Assume, TwoFactChain) {
  Assumptions ctx;
  ctx.assert_le(v("KK"), v("K") + v("KS") - 1);
  ctx.assert_le(v("K") + v("KS") - 1, v("N") - 1);
  // KK <= K+KS-1 <= N-1 requires combining both facts.
  EXPECT_TRUE(ctx.le(v("KK"), v("N") - 1));
  EXPECT_TRUE(ctx.ge(v("N"), v("KK") + 1));
}

TEST(Assume, ThreeFactChain) {
  Assumptions ctx;
  ctx.assert_ge(v("A"), v("B"));
  ctx.assert_ge(v("B"), v("C"));
  ctx.assert_ge(v("C"), v("D"));
  EXPECT_TRUE(ctx.ge(v("A"), v("D")));
}

TEST(Assume, UnrelatedFactsDoNotProve) {
  Assumptions ctx;
  ctx.assert_ge(v("X"), c(0));
  ctx.assert_ge(v("Y"), c(0));
  EXPECT_FALSE(ctx.ge(v("X"), v("Y")));
}

TEST(Assume, LoopRangeFacts) {
  Assumptions ctx;
  Loop loop("I", iadd(ivar("K"), iconst(1)), ivar("N"), iconst(1));
  ctx.add_loop_range(loop);
  EXPECT_TRUE(ctx.ge(v("I"), v("K") + 1));
  EXPECT_TRUE(ctx.le(v("I"), v("N")));
  EXPECT_TRUE(ctx.ge(v("I"), v("K")));  // weaker consequence
}

TEST(Assume, MinUpperBoundDecomposes) {
  Assumptions ctx;
  Loop loop("KK", ivar("K"),
            imin(isub(iadd(ivar("K"), ivar("KS")), iconst(1)),
                 isub(ivar("N"), iconst(1))),
            iconst(1));
  ctx.add_loop_range(loop);
  // KK <= MIN(K+KS-1, N-1) gives both conjuncts.
  EXPECT_TRUE(ctx.le(v("KK"), v("K") + v("KS") - 1));
  EXPECT_TRUE(ctx.le(v("KK"), v("N") - 1));
}

TEST(Assume, MaxLowerBoundDecomposes) {
  Assumptions ctx;
  Loop loop("J", imax(iadd(ivar("KK"), iconst(1)), ivar("P")), ivar("N"),
            iconst(1));
  ctx.add_loop_range(loop);
  EXPECT_TRUE(ctx.ge(v("J"), v("KK") + 1));
  EXPECT_TRUE(ctx.ge(v("J"), v("P")));
}

TEST(Assume, NonnegExprCaseSplitsGoalMin) {
  Assumptions ctx;
  ctx.assert_ge(v("X"), v("A"));
  ctx.assert_ge(v("X"), v("B"));
  // X - MIN(A,B) >= 0 needs only one branch each... both hold here.
  EXPECT_TRUE(ctx.nonneg_expr(isub(v("X"), imin(v("A"), v("B")))));
  // X - MAX(A,B) >= 0 requires both branches; also provable.
  EXPECT_TRUE(ctx.nonneg_expr(isub(v("X"), imax(v("A"), v("B")))));
}

TEST(Assume, NonnegExprFailsWhenOneBranchFails) {
  Assumptions ctx;
  ctx.assert_ge(v("X"), v("A"));
  // X >= MAX(A,B) unprovable without X >= B.
  EXPECT_FALSE(ctx.nonneg_expr(isub(v("X"), imax(v("A"), v("B")))));
}

TEST(Assume, RawMinFactCaseSplits) {
  // J >= MIN(N, K+KS-1)+1 together with KK <= K+KS-1 and KK <= N-1 proves
  // J > KK: the fact's MIN must be case-split.
  Assumptions ctx;
  ctx.assert_ge(v("J"),
                imin(v("N"), v("K") + v("KS") - 1) + 1);
  ctx.assert_le(v("KK"), v("K") + v("KS") - 1);
  ctx.assert_le(v("KK"), v("N") - 1);
  EXPECT_TRUE(ctx.ge(v("J"), v("KK") + 1));
}

TEST(Assume, ResolveMinmaxUsesContext) {
  Assumptions ctx;
  ctx.assert_le(v("K") + v("KS") - 1, v("N") - 1);
  IExprPtr e = imin(isub(iadd(ivar("K"), ivar("KS")), iconst(1)),
                    isub(ivar("N"), iconst(1)));
  EXPECT_EQ(to_string(ctx.resolve_minmax(e)), "K+KS-1");
  // MAX resolves to the other side.
  IExprPtr m = imax(isub(iadd(ivar("K"), ivar("KS")), iconst(1)),
                    isub(ivar("N"), iconst(1)));
  EXPECT_EQ(to_string(ctx.resolve_minmax(m)), "N-1");
}

TEST(Assume, ResolveMinmaxKeepsUnresolvable) {
  Assumptions ctx;
  IExprPtr e = imin(ivar("A"), ivar("B"));
  EXPECT_EQ(to_string(ctx.resolve_minmax(e)), "MIN(A,B)");
}

TEST(Assume, ResolveMinmaxRecursesThroughArithmetic) {
  Assumptions ctx;
  ctx.assert_ge(v("A"), v("B"));
  IExprPtr e = iadd(imin(ivar("A"), ivar("B")), iconst(1));
  EXPECT_EQ(to_string(ctx.resolve_minmax(e)), "B+1");
}

TEST(Assume, ResolveMinmaxLeavesArrayElements) {
  // An index-array element (a loop bound such as B(1)) has no rhs; it is
  // returned as it is, while the MIN/MAX around it still resolves.
  Assumptions ctx;
  ctx.assert_ge(v("A"), v("B"));
  EXPECT_EQ(to_string(ctx.resolve_minmax(ielem("B", c(1)))), "B(1)");
  IExprPtr e = iadd(ielem("B", imin(v("A"), v("B"))), imin(v("A"), v("B")));
  EXPECT_EQ(to_string(ctx.resolve_minmax(e)), "B(MIN(A,B))+B");
}

TEST(Assume, ArrayElementFactDoesNotBlockProofs) {
  // A MIN inside an element's subscript is not split: the element is
  // opaque, so the fact is dropped at the leaf and every other proof
  // goes through.
  Assumptions ctx;
  ctx.assert_ge(v("N"), ielem("B", imin(v("I"), v("J"))));
  ctx.assert_ge(v("N"), c(5));
  EXPECT_TRUE(ctx.nonneg_expr(c(1)));
  EXPECT_TRUE(ctx.ge(v("N"), c(5)));
  EXPECT_TRUE(ctx.nonneg_expr(v("N") - 5));
  EXPECT_FALSE(ctx.ge(v("N"), c(6)));
}

TEST(Assume, EqViaBidirectionalProof) {
  Assumptions ctx;
  ctx.assert_ge(v("A"), v("B"));
  ctx.assert_ge(v("B"), v("A"));
  EXPECT_TRUE(ctx.eq(v("A"), v("B")));
}

TEST(Assume, ConstantAssertionsIgnored) {
  Assumptions ctx;
  ctx.assert_ge(c(1), c(0));  // carries no information
  EXPECT_EQ(ctx.fact_count(), 0u);
}

TEST(Assume, NestedMinMaxFactIsConjunctive) {
  Assumptions ctx;
  ctx.assert_le(v("KK"), imin(v("K") + v("KS") - 1, v("N") - 1));
  // KK <= MIN(a,b) implies KK <= a AND KK <= b (the MIN sits in positive
  // position in the fact), so both consequences are provable.
  EXPECT_TRUE(ctx.ge(v("N"), v("KK") + 1));
  EXPECT_TRUE(ctx.le(v("KK"), v("K") + v("KS") - 1));
  // But nothing false becomes provable.
  EXPECT_FALSE(ctx.ge(v("KK"), v("N")));
}

TEST(Assume, DisjunctiveGoalNeedsOnlyOneBranch) {
  // J > MIN(a,b) is provable from J > a alone (MIN in negative position).
  Assumptions ctx;
  ctx.assert_ge(v("J"), v("A") + 1);
  EXPECT_TRUE(ctx.ge(v("J"), imin(v("A"), v("B")) + 1));
  // J > MAX(a,b) needs both.
  EXPECT_FALSE(ctx.ge(v("J"), imax(v("A"), v("B")) + 1));
  ctx.assert_ge(v("J"), v("B") + 1);
  EXPECT_TRUE(ctx.ge(v("J"), imax(v("A"), v("B")) + 1));
}

// ---- Oracles for the proof search ----------------------------------------

/// The proof search written out plainly: f - F_i [- F_j [- F_k]] is a
/// non-negative constant for some i <= j <= k, where a constant partial
/// residue ends its branch.  `Assumptions::nonneg` must answer exactly as
/// this does on the same fact list.
bool reference_nonneg(const Affine& f, const std::vector<Affine>& facts) {
  if (auto s = constant_sign(f); s && *s >= 0) return true;
  const std::size_t nf = facts.size();
  for (std::size_t i = 0; i < nf; ++i)
    if (auto s = constant_sign(f - facts[i]); s && *s >= 0) return true;
  for (std::size_t i = 0; i < nf; ++i) {
    Affine r1 = f - facts[i];
    if (constant_sign(r1)) continue;
    for (std::size_t j = i; j < nf; ++j) {
      Affine r2 = r1 - facts[j];
      if (auto s = constant_sign(r2)) {
        if (*s >= 0) return true;
        continue;
      }
      for (std::size_t k = j; k < nf; ++k)
        if (auto s = constant_sign(r2 - facts[k]); s && *s >= 0) return true;
    }
  }
  return false;
}

/// A raw fact MIN/MAX(x,y) - z >= 0 or z - MIN/MAX(x,y) >= 0, with the
/// affine instantiations the prover's case split gives it: `both` when
/// the MIN/MAX is conjunctive (the two hold at once and the second is
/// appended after every other fact), else one proof per instantiation.
struct RawFact {
  IExprPtr expr;
  Affine first, second;
  bool both = false;
};

/// The case split of `Assumptions::nonneg_expr` on an affine goal, over
/// raw facts of the shape above, ending in `reference_nonneg`.
bool reference_nonneg_expr(const Affine& goal,
                           const std::vector<Affine>& facts,
                           const std::vector<RawFact>& raw) {
  std::vector<Affine> slot(raw.size()), appended;
  std::function<bool(std::size_t)> prove = [&](std::size_t r) {
    if (r == raw.size()) {
      std::vector<Affine> all = facts;
      all.insert(all.end(), slot.begin(), slot.end());
      all.insert(all.end(), appended.begin(), appended.end());
      return reference_nonneg(goal, all);
    }
    slot[r] = raw[r].first;
    if (raw[r].both) {
      appended.push_back(raw[r].second);
      const bool ok = prove(r + 1);
      appended.pop_back();
      return ok;
    }
    if (!prove(r + 1)) return false;
    slot[r] = raw[r].second;
    return prove(r + 1);
  };
  return prove(0);
}

/// Seeded random fact sets over at most five variables with coefficients
/// in [-2,2].  Most sets hold at a witness point inside the box
/// [-kBox,kBox]^v; one in four is drawn without a witness and gets an
/// explicit contradiction (g >= 0 and -g-c >= 0).
constexpr long kBox = 4;

struct FactSet {
  std::vector<std::string> vars;
  std::vector<Affine> facts;  ///< as asserted, constants included
  std::vector<RawFact> raw;
  Assumptions ctx;
  [[nodiscard]] std::vector<Affine> kept() const {  ///< what ctx stores
    std::vector<Affine> out;
    for (const Affine& f : facts)
      if (!f.is_constant()) out.push_back(f);
    return out;
  }
};

class Gen {
 public:
  explicit Gen(unsigned seed) : rng_(seed) {}

  long pick(long lo, long hi) {
    return std::uniform_int_distribution<long>(lo, hi)(rng_);
  }

  Affine linear(const std::vector<std::string>& vars) {
    Affine a;
    for (const std::string& v : vars)
      if (pick(0, 1)) a += Affine::variable(v, pick(-2, 2));
    return a;
  }

  /// A fact set of up to `max_facts` affine facts and `max_raw` raw
  /// MIN/MAX facts.
  FactSet fact_set(std::size_t max_vars, long max_facts, long max_raw) {
    static const char* const kNames[] = {"I", "J", "K", "N", "KS"};
    FactSet fs;
    const long nv = pick(1, static_cast<long>(max_vars));
    for (long v = 0; v < nv; ++v) fs.vars.emplace_back(kNames[v]);
    const bool witnessed = pick(0, 3) != 0;
    std::map<std::string, long> w;
    for (const std::string& v : fs.vars) w[v] = pick(-kBox, kBox);
    // An affine form that is >= 0 at the witness (any sign without one).
    auto holding = [&](Affine a) {
      a.constant = witnessed ? pick(0, 3) - value(a, w) : pick(-4, 4);
      return a;
    };
    const long n = pick(0, max_facts);
    for (long i = 0; i < n; ++i) {
      const long shape = pick(0, 9);
      if (shape == 0 && !fs.facts.empty()) {  // a duplicate
        Affine dup = fs.facts[static_cast<std::size_t>(
            pick(0, static_cast<long>(fs.facts.size()) - 1))];
        fs.facts.push_back(std::move(dup));
      } else {
        fs.facts.push_back(holding(linear(fs.vars)));
      }
    }
    if (!witnessed) {
      Affine g = linear(fs.vars);
      fs.facts.push_back(g);
      fs.facts.push_back(g * -1 - Affine::constant_term(pick(1, 3)));
    }
    for (const Affine& f : fs.facts) fs.ctx.assert_nonneg(f);

    const long nraw = pick(0, max_raw);
    for (long r = 0; r < nraw; ++r) {
      // x - y must not be constant, or simplify drops the MIN/MAX.
      Affine x = linear(fs.vars), y = linear(fs.vars);
      if ((x - y).is_constant()) continue;
      x.constant = pick(-3, 3);
      y.constant = pick(-3, 3);
      // z shares x's linear part now and then: a constant instantiation.
      Affine z = pick(0, 2) == 0 ? x : linear(fs.vars);
      z.constant = pick(-3, 3);
      const IExprPtr xe = from_affine(x), ye = from_affine(y),
                     ze = from_affine(z);
      RawFact raw;
      switch (pick(0, 3)) {
        case 0:  // MIN(x,y) >= z: both x >= z and y >= z
          raw = {isub(imin(xe, ye), ze), x - z, y - z, true};
          fs.ctx.assert_ge(imin(xe, ye), ze);
          break;
        case 1:  // MAX(x,y) >= z: x >= z or y >= z
          raw = {isub(imax(xe, ye), ze), x - z, y - z, false};
          fs.ctx.assert_ge(imax(xe, ye), ze);
          break;
        case 2:  // z >= MIN(x,y): z >= x or z >= y
          raw = {isub(ze, imin(xe, ye)), z - x, z - y, false};
          fs.ctx.assert_ge(ze, imin(xe, ye));
          break;
        default:  // z >= MAX(x,y): both z >= x and z >= y
          raw = {isub(ze, imax(xe, ye)), z - x, z - y, true};
          fs.ctx.assert_ge(ze, imax(xe, ye));
          break;
      }
      fs.raw.push_back(std::move(raw));
    }
    return fs;
  }

  /// A goal that is a sum of 1-3 terms of `pool` plus a constant, or now
  /// and then an unrelated affine form.
  Affine goal(const FactSet& fs, const std::vector<Affine>& pool) {
    if (pool.empty() || pick(0, 5) == 0) {
      Affine g = linear(fs.vars);
      g.constant = pick(-3, 3);
      return g;
    }
    Affine g = Affine::constant_term(pick(-3, 3));
    for (long t = pick(1, 3); t > 0; --t)
      g += pool[static_cast<std::size_t>(
          pick(0, static_cast<long>(pool.size()) - 1))];
    return g;
  }

  static long value(const Affine& a, const std::map<std::string, long>& p) {
    long s = a.constant;
    for (const auto& [v, k] : a.coef) s += k * p.at(v);
    return s;
  }

 private:
  std::mt19937 rng_;
};

TEST(AssumeOracle, IndexedSearchMatchesCubicSearch) {
  Gen gen(20261019);
  int proved = 0, refused = 0;
  for (int set = 0; set < 80; ++set) {
    FactSet fs = gen.fact_set(5, 40, 0);
    const std::vector<Affine> kept = fs.kept();
    for (int q = 0; q < 16; ++q) {
      const Affine g = gen.goal(fs, kept);
      const bool want = reference_nonneg(g, kept);
      ASSERT_EQ(fs.ctx.nonneg(g), want)
          << "set " << set << ", goal " << to_string(from_affine(g));
      ++(want ? proved : refused);
    }
  }
  EXPECT_GT(proved, 300);
  EXPECT_GT(refused, 300);
}

TEST(AssumeOracle, CaseSplitMatchesCubicSearch) {
  // Raw MIN/MAX facts reach the search as extra facts after the asserted
  // ones, some of them constant.
  Gen gen(7);
  int proved = 0, refused = 0;
  for (int set = 0; set < 60; ++set) {
    FactSet fs = gen.fact_set(4, 24, 3);
    const std::vector<Affine> kept = fs.kept();
    std::vector<Affine> pool = kept;
    for (const RawFact& r : fs.raw) {
      pool.push_back(r.first);
      pool.push_back(r.second);
    }
    for (int q = 0; q < 12; ++q) {
      const Affine g = gen.goal(fs, pool);
      const bool want = reference_nonneg_expr(g, kept, fs.raw);
      ASSERT_EQ(fs.ctx.nonneg_expr(from_affine(g)), want)
          << "set " << set << ", goal " << to_string(from_affine(g));
      ++(want ? proved : refused);
    }
  }
  EXPECT_GT(proved, 100);
  EXPECT_GT(refused, 100);
}

TEST(AssumeOracle, ProofsHoldOnEveryBoxPoint) {
  Gen gen(42);
  int checked = 0;
  for (int set = 0; set < 60; ++set) {
    FactSet fs = gen.fact_set(4, 30, 2);
    const std::vector<Affine> kept = fs.kept();
    // Every point of [-kBox,kBox]^v that satisfies the facts, raw MIN/MAX
    // facts evaluated pointwise.
    std::vector<std::map<std::string, long>> points;
    std::map<std::string, long> p;
    std::function<void(std::size_t)> walk = [&](std::size_t d) {
      if (d < fs.vars.size()) {
        for (long x = -kBox; x <= kBox; ++x) {
          p[fs.vars[d]] = x;
          walk(d + 1);
        }
        return;
      }
      for (const Affine& f : kept)
        if (Gen::value(f, p) < 0) return;
      for (const RawFact& r : fs.raw)
        if (evaluate(r.expr, p) < 0) return;
      points.push_back(p);
    };
    walk(0);

    std::vector<Affine> pool = kept;
    for (const RawFact& r : fs.raw) pool.push_back(r.first);
    for (int q = 0; q < 20; ++q) {
      // Affine goals, and MIN/MAX goals for the goal-side case split.
      IExprPtr g = from_affine(gen.goal(fs, pool));
      if (q % 4 == 3)
        g = isub(imin(g, from_affine(gen.goal(fs, pool))),
                 from_affine(gen.goal(fs, {})));
      else if (q % 4 == 2)
        g = imax(g, from_affine(gen.goal(fs, pool)));
      if (!fs.ctx.nonneg_expr(g)) continue;
      for (const auto& pt : points) {
        ASSERT_GE(evaluate(g, pt), 0)
            << "set " << set << ": proved " << to_string(g);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 1000);
}

}  // namespace
}  // namespace blk::analysis
