// Convolution kernel tests: the optimized variants, which the compiler
// derives with optconv, must match the point forms bitwise (§3.2's table
// T1 subjects) at the paper's sizes and at sizes whose unrolled main
// loops barely run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "interp/vm.hpp"
#include "kernels/conv.hpp"
#include "kernels/ir_kernels.hpp"
#include "pm/runner.hpp"

namespace blk::kernels {
namespace {

/// Run `p` on `in`'s signals; returns the final F3.
std::vector<double> run(const ir::Program& p, const ConvProblem& in,
                        interp::Engine engine) {
  interp::ExecEngine e(p, {{"N1", in.n1}, {"N2", in.n2}, {"N3", in.n3}},
                       engine);
  for (const auto& [name, sig] :
       {std::pair{"F1", &in.f1}, {"F2", &in.f2}, {"F3", &in.f3}})
    std::ranges::copy(sig->flat(), e.store().arrays.at(name).flat().begin());
  e.store().scalars["DT"] = in.dt;
  e.run();
  auto f3 = e.store().arrays.at("F3").flat();
  return {f3.begin(), f3.end()};
}

/// optconv(u=4)'s kernel, on the VM and natively, is bitwise equal to the
/// point program on the VM.
void expect_derived_matches_point(ir::Program (*source)(),
                                  const ConvProblem& in) {
  const ir::Program point = source();
  ir::Program derived = source();
  (void)pm::run_spec(derived, "optconv(u=4)");
  const std::vector<double> want = run(point, in, interp::Engine::Vm);
  for (interp::Engine engine : {interp::Engine::Vm, interp::Engine::Native}) {
    const std::vector<double> got = run(derived, in, engine);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          want.size() * sizeof(double)),
              0)
        << interp::to_string(engine) << ", size " << in.n3 + 1;
  }
}

class ConvSizes : public ::testing::TestWithParam<long> {};

TEST_P(ConvSizes, AconvOptMatchesPoint) {
  expect_derived_matches_point(aconv_ir,
                               ConvProblem::make_aconv(GetParam(), 5));
}

TEST_P(ConvSizes, ConvOptMatchesPoint) {
  expect_derived_matches_point(conv_ir, ConvProblem::make_conv(GetParam(), 6));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConvSizes,
                         ::testing::Values(2L, 3L, 5L, 8L, 17L, 64L, 300L,
                                           500L));

TEST(Conv, ProblemGeometry) {
  ConvProblem p = ConvProblem::make_aconv(300, 1);
  EXPECT_EQ(p.n3, 299);
  EXPECT_EQ(p.n1, 299);
  EXPECT_EQ(p.n2, 6 * 299 / 7);
  EXPECT_EQ(p.f2.lower(), -p.n2);
  EXPECT_EQ(p.f2.upper(), 0);
  ConvProblem q = ConvProblem::make_conv(300, 1);
  EXPECT_EQ(q.f2.lower(), 0);
  EXPECT_EQ(q.f2.upper(), q.n2);
}

TEST(Conv, TriangularWorkFractionNearPaperSetting) {
  // The paper: "75% of the execution in the triangular regions".
  ConvProblem p = ConvProblem::make_aconv(500, 2);
  double rect = 0, tri = 0;
  for (long i = 0; i <= p.n3; ++i) {
    long khi = std::min(i + p.n2, p.n1);
    double w = static_cast<double>(khi - i + 1);
    if (i + p.n2 <= p.n1)
      rect += w;
    else
      tri += w;
  }
  double frac = tri / (tri + rect);
  EXPECT_GT(frac, 0.65);
  EXPECT_LT(frac, 0.85);
}

}  // namespace
}  // namespace blk::kernels
