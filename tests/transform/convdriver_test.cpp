// The §3.2 optconv pass: trapezoid splitting + normalization + register
// blocking, fully automatic, on the seismic convolutions.
#include <gtest/gtest.h>

#include "interp/interp.hpp"
#include "ir/builder.hpp"
#include "ir/error.hpp"
#include "ir/printer.hpp"
#include "ir/validate.hpp"
#include "kernels/ir_kernels.hpp"
#include "pm/runner.hpp"
#include "testutil.hpp"

namespace blk::transform {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;

/// Run optconv(u=`unroll`) over `p`; returns the stage note
/// ("<pieces> pieces, <normalized> normalized, <jammed> jammed").
std::string optconv(Program& p, long unroll) {
  return pm::run_spec(p, "optconv(u=" + std::to_string(unroll) + ")")
      .passes[0]
      .note;
}

double run_conv_diff(const Program& a, const Program& b, long size,
                     std::uint64_t seed) {
  ir::Env env{{"N1", size - 1}, {"N2", 6 * (size - 1) / 7},
              {"N3", size - 1}};
  interp::Interpreter ia(a, env), ib(b, env);
  for (auto* in : {&ia, &ib}) {
    blk::test::seed_inputs(*in, seed);
    in->store().scalars["DT"] = 0.25;
  }
  ia.run();
  ib.run();
  return interp::max_abs_diff(ia.store(), ib.store());
}

TEST(ConvDriver, AconvSplitsNormalizesAndJams) {
  Program p = blk::kernels::aconv_ir();
  // Rhomboid + triangle; the rhomboid became rectangular and was
  // register-blocked.
  EXPECT_EQ(optconv(p, 4), "2 pieces, 1 normalized, 1 jammed");
  std::string out = print(p.body);
  // Four accumulators in registers over the normalized K loop.
  EXPECT_NE(out.find("T0 = F3(I)"), std::string::npos) << out;
  EXPECT_NE(out.find("T3 = T3 + DT*F1(K+I+3)"), std::string::npos) << out;
  EXPECT_NO_THROW(validate_or_throw(p));
}

TEST(ConvDriver, ConvSplitsIntoTheFourPaperLoops) {
  // §3.2: "complete splitting ... would result in four separate loops
  // that can each be blocked".
  Program p = blk::kernels::conv_ir();
  EXPECT_EQ(optconv(p, 4), "4 pieces, 1 normalized, 1 jammed");
  EXPECT_NO_THROW(validate_or_throw(p));
}

class ConvDriverEquivalence : public ::testing::TestWithParam<long> {};

TEST_P(ConvDriverEquivalence, BothKernelsExact) {
  const long size = GetParam();
  {
    Program p = blk::kernels::aconv_ir();
    Program orig = p.clone();
    (void)optconv(p, 4);
    EXPECT_EQ(run_conv_diff(orig, p, size, 81), 0.0) << "aconv " << size;
  }
  {
    Program p = blk::kernels::conv_ir();
    Program orig = p.clone();
    (void)optconv(p, 3);  // odd factor: remainder paths
    EXPECT_EQ(run_conv_diff(orig, p, size, 82), 0.0) << "conv " << size;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ConvDriverEquivalence,
                         ::testing::Values(3L, 8L, 15L, 25L, 47L));

TEST(ConvDriver, RejectsNonLoopProgram) {
  Program p;
  p.scalar("X");
  p.add(assign(lvs("X"), f(1.0)));
  EXPECT_THROW((void)optconv(p, 4), blk::Error);
}

}  // namespace
}  // namespace blk::transform
