// The §3.2 optconv pass: trapezoid splitting + normalization + register
// blocking, fully automatic, on the seismic convolutions.
#include <gtest/gtest.h>

#include "interp/interp.hpp"
#include "interp/vm.hpp"
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

/// The derived convolution is bitwise equal to its point program on the
/// VM, and its native kernel to the VM.
void expect_exact(const Program& point, const Program& derived, long size,
                  std::uint64_t seed, const std::string& what) {
  ir::Env env{{"N1", size - 1}, {"N2", 6 * (size - 1) / 7},
              {"N3", size - 1}};
  auto run = [&](const Program& p, interp::Engine engine) {
    interp::ExecEngine e(p, env, engine);
    blk::test::seed_inputs(e, seed);
    e.store().scalars["DT"] = 0.25;
    e.run();
    return std::move(e.store());
  };
  interp::Store vm = run(derived, interp::Engine::Vm);
  EXPECT_EQ(interp::max_abs_diff(run(point, interp::Engine::Vm), vm), 0.0)
      << what << print(derived.body);
  EXPECT_EQ(interp::max_abs_diff(vm, run(derived, interp::Engine::Native)),
            0.0)
      << what << " native";
}

TEST(ConvDriver, AconvSplitsNormalizesAndJams) {
  Program p = blk::kernels::aconv_ir();
  // Rhomboid + triangle; the rhomboid became rectangular, and both were
  // register-blocked.
  EXPECT_EQ(optconv(p, 4), "2 pieces, 1 normalized, 2 jammed");
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
  EXPECT_EQ(optconv(p, 4), "4 pieces, 1 normalized, 4 jammed");
  EXPECT_NO_THROW(validate_or_throw(p));
}

TEST(ConvDriver, NamesEveryRefusedPiece) {
  // F3(I) = F3(I-1) + ...: a recurrence carried by I that any jam of I
  // would reorder.  Both pieces stay as split, each named with its reason.
  Program p = blk::kernels::aconv_ir();
  Assign& st = p.body[0]->as_loop().body[0]->as_loop().body[0]->as_assign();
  st.rhs = a("F3", {v("I") - 1}) + s("DT") * a("F1", {v("K")});
  EXPECT_EQ(optconv(p, 4),
            "2 pieces, 1 normalized, 0 jammed; "
            "piece 1 not jammed: unroll_and_jam: dependences forbid jamming "
            "I; piece 2 not jammed: unroll_and_jam_triangular: dependences "
            "forbid jamming I");
}

class ConvDriverEquivalence : public ::testing::TestWithParam<long> {};

TEST_P(ConvDriverEquivalence, BothKernelsExact) {
  const long size = GetParam();
  {
    Program p = blk::kernels::aconv_ir();
    Program orig = p.clone();
    (void)optconv(p, 4);
    expect_exact(orig, p, size, 81, "aconv u=4, size " + std::to_string(size));
  }
  for (long u : {3L, 4L}) {  // odd factor: remainder paths
    Program p = blk::kernels::conv_ir();
    Program orig = p.clone();
    (void)optconv(p, u);
    expect_exact(orig, p, size, 82,
                 "conv u=" + std::to_string(u) + ", size " +
                     std::to_string(size));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ConvDriverEquivalence,
                         ::testing::Values(2L, 3L, 4L, 8L, 15L, 25L, 47L,
                                           64L));

TEST(ConvDriver, RejectsNonLoopProgram) {
  Program p;
  p.scalar("X");
  p.add(assign(lvs("X"), f(1.0)));
  EXPECT_THROW((void)optconv(p, 4), blk::Error);
}

}  // namespace
}  // namespace blk::transform
