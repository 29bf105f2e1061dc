// Reuse-analysis tests (§2.2's taxonomy).
#include <gtest/gtest.h>

#include "analysis/reuse.hpp"
#include "ir/builder.hpp"
#include "kernels/ir_kernels.hpp"

namespace blk::analysis {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;

const LoopReuse& for_loop(const std::vector<LoopReuse>& all,
                          const std::string& var) {
  for (const auto& lr : all)
    if (lr.loop->var == var) return lr;
  ADD_FAILURE() << "loop " << var << " not analyzed";
  static LoopReuse dummy;
  return dummy;
}

ReuseKind kind_of(const LoopReuse& lr, const std::string& array,
                  bool is_write) {
  for (const auto& r : lr.refs)
    if (r.ref.array == array && r.ref.is_write == is_write) return r.kind;
  ADD_FAILURE() << "ref " << array << " not found";
  return ReuseKind::None;
}

TEST(Reuse, PaperSection22Example) {
  // DO I: A(I) = A(I-5) + B(I)
  Program p;
  p.param("N");
  p.array_bounds("A", {{.lb = isub(c(0), c(5)), .ub = v("N")}});
  p.array("B", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}),
                    a("A", {v("I") - 5}) + a("B", {v("I")}))));
  auto all = analyze_reuse(p.body);
  const LoopReuse& i = for_loop(all, "I");
  // The paper: "A(I-5) has temporal reuse of the value defined by A(I) 5
  // iterations earlier"; B(I) has spatial reuse.
  bool saw_self_temporal = false;
  for (const auto& r : i.refs)
    if (r.ref.array == "A" && r.kind == ReuseKind::SelfTemporal) {
      saw_self_temporal = true;
      EXPECT_TRUE(r.distance.has_value());
      EXPECT_EQ(std::abs(*r.distance), 5);
    }
  EXPECT_TRUE(saw_self_temporal);
  EXPECT_EQ(kind_of(i, "B", false), ReuseKind::SelfSpatial);
}

TEST(Reuse, Section23SumExample) {
  // DO J / DO I / A(I) = A(I) + B(J): A invariant in J, B invariant in I.
  Program p = blk::kernels::sum_example_ir();
  auto all = analyze_reuse(p.body);
  const LoopReuse& j = for_loop(all, "J");
  const LoopReuse& i = for_loop(all, "I");
  EXPECT_EQ(kind_of(j, "A", true), ReuseKind::TemporalInvariant);
  EXPECT_EQ(kind_of(j, "B", false), ReuseKind::SelfSpatial);
  EXPECT_EQ(kind_of(i, "A", true), ReuseKind::SelfSpatial);
  EXPECT_EQ(kind_of(i, "B", false), ReuseKind::TemporalInvariant);
}

TEST(Reuse, RowWalkHasNoReuse) {
  // A(L,K) over K in a column-major array: a new line every iteration —
  // the Fig. 9 cache problem.
  Program p;
  p.param("M");
  p.param("N");
  p.array("A", {v("M"), v("N")});
  p.param("L");
  p.add(loop("K", c(1), v("N"),
             assign(lv("A", {v("L"), v("K")}), f(1.0))));
  auto all = analyze_reuse(p.body);
  EXPECT_EQ(kind_of(for_loop(all, "K"), "A", true), ReuseKind::None);
}

TEST(Reuse, ColumnWalkIsSpatial) {
  Program p;
  p.param("M");
  p.param("N");
  p.param("L");
  p.array("A", {v("M"), v("N")});
  p.add(loop("J", c(1), v("M"),
             assign(lv("A", {v("J"), v("L")}), f(1.0))));
  auto all = analyze_reuse(p.body);
  EXPECT_EQ(kind_of(for_loop(all, "J"), "A", true), ReuseKind::SelfSpatial);
}

TEST(Reuse, LargeStrideIsNotSpatial) {
  // A(16*I): strides past the line every iteration.
  Program p;
  p.param("N");
  p.array("A", {imul(c(16), v("N"))});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {imul(c(16), v("I"))}), f(1.0))));
  auto all = analyze_reuse(p.body, /*line_elements=*/8);
  EXPECT_EQ(kind_of(for_loop(all, "I"), "A", true), ReuseKind::None);
}

TEST(Reuse, LuUpdateClassification) {
  Program p = blk::kernels::lu_point_ir();
  auto all = analyze_reuse(p.body);
  // In the innermost I loop, A(K,J) is invariant and the column accesses
  // are spatial.
  const LoopReuse* inner_i = nullptr;
  for (const auto& lr : all)
    if (lr.loop->var == "I" && lr.refs.size() >= 3) inner_i = &lr;
  ASSERT_NE(inner_i, nullptr);
  int invariant = 0, spatial = 0;
  for (const auto& r : inner_i->refs) {
    if (r.kind == ReuseKind::TemporalInvariant) ++invariant;
    if (r.kind == ReuseKind::SelfSpatial) ++spatial;
  }
  EXPECT_GE(invariant, 1);  // A(K,J)
  EXPECT_GE(spatial, 2);    // A(I,J) read+write, A(I,K)
}

TEST(Reuse, KindNamesPrintable) {
  EXPECT_STREQ(to_string(ReuseKind::TemporalInvariant),
               "temporal-invariant");
  EXPECT_STREQ(to_string(ReuseKind::None), "none");
}

}  // namespace
}  // namespace blk::analysis
