// Bounded-regular-section tests: the Fig. 2 / Fig. 5 computations.
#include <gtest/gtest.h>

#include "analysis/sections.hpp"
#include "ir/builder.hpp"
#include "kernels/ir_kernels.hpp"
#include "transform/stripmine.hpp"

namespace blk::analysis {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;

/// §3.3's strip-mined loop (the paper's Fig. 2 data space):
///   DO I = 1,N,IS / DO II = I,I+IS-1 / T(II)=A(II) / DO K=II,N /
///   A(K) = A(K) + T(II)
Program fig2_program() {
  Program p;
  p.param("N");
  p.param("IS");
  p.array("A", {v("N")});
  p.array("T", {v("N")});
  p.add(loop_step(
      "I", c(1), v("N"), v("IS"),
      loop("II", v("I"), v("I") + v("IS") - 1,
           assign(lv("T", {v("II")}), a("A", {v("II")})),
           loop("K", v("II"), v("N"),
                assign(lv("A", {v("K")}),
                       a("A", {v("K")}) + a("T", {v("II")}), 10)))));
  return p;
}

/// Reference matching array/written-ness, or abort.
RefInfo get_ref(std::vector<RefInfo>& refs, const std::string& array,
                bool write, int which = 0) {
  int seen = 0;
  for (auto& r : refs)
    if (r.array == array && r.is_write == write && seen++ == which)
      return r;
  ADD_FAILURE() << "ref not found: " << array;
  return {};
}

TEST(Sections, Fig2DataSpace) {
  Program p = fig2_program();
  auto refs = collect_refs(p.body);
  Loop& ii = p.body[0]->as_loop().body[0]->as_loop();

  // A(II) read: section A(I : I+IS-1) over the II loop.
  RefInfo a_read = get_ref(refs, "A", false, 0);
  Section s_read = section_within(a_read, ii);
  EXPECT_EQ(s_read.to_string(), "A(I:I+IS-1)");

  // A(K) write: section A(I : N).
  RefInfo a_write = get_ref(refs, "A", true, 0);
  Section s_write = section_within(a_write, ii);
  EXPECT_EQ(s_write.to_string(), "A(I:N)");
}

TEST(Sections, Fig2SplitBoundary) {
  Program p = fig2_program();
  auto refs = collect_refs(p.body);
  Loop& ii = p.body[0]->as_loop().body[0]->as_loop();
  Section s_read = section_within(get_ref(refs, "A", false, 0), ii);
  Section s_write = section_within(get_ref(refs, "A", true, 0), ii);

  Assumptions ctx;
  ctx.assert_le(v("I") + v("IS") - 1, v("N") - 1);  // full-strip hint
  auto bounds = split_boundaries(s_read, s_write, ctx);
  ASSERT_FALSE(bounds.empty());
  // The paper: split K at I+IS-1 (the boundary between common and
  // disjoint).  The write section is the larger; boundary = read's ub.
  EXPECT_TRUE(bounds[0].split_b);
  EXPECT_EQ(to_string(bounds[0].boundary), "I+IS-1");
}

TEST(Sections, LuStripMinedSections) {
  // Figure 5: sections of A over the whole KK loop in strip-mined LU.
  Program p = blk::kernels::lu_point_ir();
  p.param("KS");
  Loop& k = p.body[0]->as_loop();
  Loop& kk = blk::transform::strip_mine(p, k, ivar("KS"), /*exact=*/true);
  auto refs = collect_refs(p.body);

  // Statement 20's write A(I,KK): A(K+1:N, K:K+KS-1).
  RefInfo w20 = get_ref(refs, "A", true, 0);
  EXPECT_EQ(section_within(w20, kk).to_string(), "A(K+1:N,K:K+KS-1)");
  // Statement 10's write A(I,J): A(K+1:N, K+1:N).
  RefInfo w10 = get_ref(refs, "A", true, 1);
  EXPECT_EQ(section_within(w10, kk).to_string(), "A(K+1:N,K+1:N)");
}

TEST(Sections, LuSplitBoundaryIsBlockEdge) {
  Program p = blk::kernels::lu_point_ir();
  p.param("KS");
  Loop& k = p.body[0]->as_loop();
  Loop& kk = blk::transform::strip_mine(p, k, ivar("KS"), /*exact=*/true);
  auto refs = collect_refs(p.body);
  Section s20 = section_within(get_ref(refs, "A", true, 0), kk);
  Section s10 = section_within(get_ref(refs, "A", true, 1), kk);

  Assumptions ctx;
  ctx.assert_le(v("K") + v("KS") - 1, v("N") - 1);
  auto bounds = split_boundaries(s20, s10, ctx);
  bool found = false;
  for (const auto& b : bounds)
    if (b.split_b && b.upper_side &&
        to_string(b.boundary) == "K+KS-1")
      found = true;
  EXPECT_TRUE(found) << "expected the J split at K+KS-1";
}

TEST(Sections, SubsetEqualDisjointVerdicts) {
  Assumptions ctx;
  ctx.assert_ge(v("N"), c(10));
  Section a{.array = "A",
            .dims = {{.lb = c(2), .ub = c(5)}}};
  Section b{.array = "A",
            .dims = {{.lb = c(1), .ub = v("N")}}};
  EXPECT_EQ(subset(a, b, ctx), true);
  EXPECT_EQ(subset(b, a, ctx), false);  // N >= 10 > 5 proves non-subset
  EXPECT_EQ(equal(a, b, ctx), false);
  Section c2{.array = "A",
             .dims = {{.lb = c(6), .ub = c(9)}}};
  EXPECT_EQ(disjoint(a, c2, ctx), true);
  EXPECT_EQ(equal(a, a, ctx), true);
}

TEST(Sections, UnknownComparisonsReturnNullopt) {
  Assumptions ctx;
  Section a{.array = "A", .dims = {{.lb = ivar("P"), .ub = ivar("Q")}}};
  Section b{.array = "A", .dims = {{.lb = ivar("R"), .ub = ivar("S")}}};
  EXPECT_EQ(subset(a, b, ctx), std::nullopt);
  EXPECT_EQ(disjoint(a, b, ctx), std::nullopt);
}

TEST(Sections, MismatchedArraysGiveNullopt) {
  Assumptions ctx;
  Section a{.array = "A", .dims = {{.lb = c(1), .ub = c(2)}}};
  Section b{.array = "B", .dims = {{.lb = c(1), .ub = c(2)}}};
  EXPECT_EQ(subset(a, b, ctx), std::nullopt);
}

TEST(Sections, SweepExtremeTriangular) {
  // K in [I, N] inside I in [1, N]: extremes of K's lower bound I are
  // [1, N]; of K+2 are [3, N+2].
  Loop i("I", iconst(1), ivar("N"), iconst(1));
  std::vector<Loop*> loops{&i};
  std::span<Loop* const> sp(loops.data(), loops.size());
  EXPECT_EQ(to_string(sweep_extreme(ivar("I"), sp, true)), "1");
  EXPECT_EQ(to_string(sweep_extreme(ivar("I"), sp, false)), "N");
  EXPECT_EQ(to_string(sweep_extreme(iadd(ivar("I"), iconst(2)), sp, false)),
            "N+2");
  // Negative coefficient flips which bound is used (min of -I is -N).
  Env env{{"N", 9}};
  EXPECT_EQ(evaluate(sweep_extreme(isub(iconst(0), ivar("I")), sp, true),
                     env),
            -9);
}

TEST(Sections, StepSignDecidesTheSweep) {
  // DO K = N, 1, -1 counts down: K spans 1..N, not the inverted N..1
  // that would look disjoint from itself.
  Loop down("K", ivar("N"), iconst(1), iconst(-1));
  std::vector<Loop*> loops{&down};
  std::span<Loop* const> sp(loops.data(), loops.size());
  EXPECT_EQ(to_string(sweep_extreme(ivar("K"), sp, true)), "1");
  EXPECT_EQ(to_string(sweep_extreme(ivar("K"), sp, false)), "N");
  RefInfo ref{.array = "A", .subs = {ivar("K")}, .loops = loops};
  EXPECT_EQ(section_of(ref, sp).to_string(), "A(1:N)");
  // A symbolic step's sign is unknown: a bound mentioning K gives up,
  // one that does not stays as it is.
  Loop any("K", iconst(1), ivar("N"), ivar("S"));
  std::vector<Loop*> sym{&any};
  std::span<Loop* const> ss(sym.data(), sym.size());
  EXPECT_EQ(sweep_extreme(ivar("K"), ss, true), nullptr);
  EXPECT_EQ(to_string(sweep_extreme(ivar("N"), ss, false)), "N");
}

TEST(Sections, SweepExtremeThroughMinMax) {
  Loop i("I", iconst(0), ivar("N3"), iconst(1));
  std::vector<Loop*> loops{&i};
  std::span<Loop* const> sp(loops.data(), loops.size());
  // max over I of MIN(I, N1) = MIN(N3, N1).
  IExprPtr e = imin(ivar("I"), ivar("N1"));
  EXPECT_EQ(to_string(sweep_extreme(e, sp, false)), "MIN(N3,N1)");
}

TEST(Sections, ConvolutionSections) {
  // The adjoint convolution's F1(K) over the K loop: K in [I, MIN(I+N2,N1)]
  // -> section F1(I : MIN(I+N2,N1)).
  Program p = blk::kernels::aconv_ir();
  auto refs = collect_refs(p.body);
  Loop& kloop = p.body[0]->as_loop().body[0]->as_loop();
  for (auto& r : refs) {
    if (r.array == "F1") {
      Section s = section_within(r, kloop);
      EXPECT_EQ(s.to_string(), "F1(I:MIN(I+N2,N1))");
    }
    if (r.array == "F2") {
      Section s = section_within(r, kloop);
      // I-K for K in [I, MIN(I+N2,N1)]: lb = I - MIN(I+N2,N1), ub = 0.
      EXPECT_EQ(to_string(s.dims[0].ub), "0");
    }
  }
}

}  // namespace
}  // namespace blk::analysis
