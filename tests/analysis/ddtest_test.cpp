// Dependence-testing tests: classical subscript tests, direction vectors,
// and the symbolic Banerjee screen.
#include <gtest/gtest.h>

#include "analysis/ddtest.hpp"
#include "ir/builder.hpp"
#include "ir/error.hpp"
#include "kernels/ir_kernels.hpp"

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

}  // namespace
}  // namespace blk::analysis
