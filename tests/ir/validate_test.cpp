// IR validator tests.
#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/error.hpp"
#include "ir/validate.hpp"
#include "kernels/ir_kernels.hpp"
#include "pm/runner.hpp"
#include "testutil.hpp"
#include "transform/ifinspect.hpp"

namespace blk::ir {
namespace {

using namespace blk::ir::dsl;

TEST(Validate, AllKernelFactoriesAreWellFormed) {
  using Factory = Program (*)();
  const Factory factories[] = {
      blk::kernels::lu_point_ir,       blk::kernels::lu_pivot_point_ir,
      blk::kernels::givens_qr_ir,      blk::kernels::matmul_guarded_ir,
      blk::kernels::conv_ir,           blk::kernels::aconv_ir,
      blk::kernels::sum_example_ir,    blk::kernels::partial_recurrence_ir};
  for (Factory f : factories) {
    Program p = f();
    EXPECT_TRUE(validate(p).empty());
  }
  for (const char* file :
       {"lu_sorensen.f", "householder.f", "householder_wy.f"})
    EXPECT_TRUE(validate(blk::test::example(file)).empty()) << file;
}

TEST(Validate, DerivedProgramsStayWellFormed) {
  Program p = blk::kernels::lu_point_ir();
  p.param("KS");
  analysis::Assumptions hints;
  hints.assert_le(isub(iadd(ivar("K"), ivar("KS")), iconst(1)),
                  isub(ivar("N"), iconst(1)));
  (void)pm::run_spec(p, "autoblockplus(b=KS, u=2)", hints);
  EXPECT_NO_THROW(validate_or_throw(p));

  Program g = blk::kernels::givens_qr_ir();
  (void)pm::run_spec(g, "optgivens");
  EXPECT_NO_THROW(validate_or_throw(g));
}

TEST(Validate, CatchesUndeclaredArray) {
  Program p;
  p.param("N");
  p.add(loop("I", c(1), v("N"),
             assign(lv("Z", {v("I")}), f(1.0))));
  auto problems = validate(p);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("undeclared array Z"), std::string::npos);
  EXPECT_THROW(validate_or_throw(p), blk::Error);
}

TEST(Validate, CatchesRankMismatch) {
  Program p;
  p.param("N");
  p.array("A", {v("N"), v("N")});
  p.add(loop("I", c(1), v("N"), assign(lv("A", {v("I")}), f(1.0))));
  auto problems = validate(p);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("rank mismatch"), std::string::npos);
}

TEST(Validate, CatchesShadowedLoop) {
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.add(loop("I", c(1), v("N"),
             loop("I", c(1), v("N"), assign(lv("A", {v("I")}), f(0.0)))));
  auto problems = validate(p);
  bool found = false;
  for (const auto& q : problems)
    if (q.find("shadows") != std::string::npos) found = true;
  EXPECT_TRUE(found);
}

TEST(Validate, CatchesUnknownIndexName) {
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {iadd(v("I"), ivar("Q"))}), f(0.0))));
  auto problems = validate(p);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("unknown index name Q"), std::string::npos);
}

TEST(Validate, CatchesUndeclaredScalar) {
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), s("T"))));
  auto problems = validate(p);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("undeclared scalar T"), std::string::npos);
}

TEST(Validate, AcceptsIfInspectionRuntimeForms) {
  Program p = blk::kernels::matmul_guarded_ir();
  Loop& k = p.body[0]->as_loop().body[0]->as_loop();
  (void)transform::if_inspect(p, p.body, k);
  EXPECT_NO_THROW(validate_or_throw(p));
}

}  // namespace
}  // namespace blk::ir
