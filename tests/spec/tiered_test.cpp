// The tiered adaptive engine's contract: cold invocations run on the
// profiling VM, the promotion threshold launches exactly one compile job,
// the specialized variant serves guard-passing bindings bit-identically
// to the VM, a guard-violating binding deopts to the generic kernel with
// the correct result and a recorded deopt event, and guard churn demotes
// the variant.  Every dispatch path is differentially checked against the
// VM oracle; the stats-JSON schemas (tiered and the native registry's
// guard extensions) are pinned here.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "interp/interp.hpp"
#include "interp/tiered.hpp"
#include "interp/vm.hpp"
#include "ir/error.hpp"
#include "kernels/ir_kernels.hpp"
#include "native/engine.hpp"
#include "pm/runner.hpp"
#include "testutil.hpp"

namespace blk::interp {
namespace {

/// Arrays and scalars bitwise identical between two stores.
void expect_bitwise_equal(const Store& a, const Store& b) {
  ASSERT_EQ(a.arrays.size(), b.arrays.size());
  for (const auto& [name, ta] : a.arrays) {
    const Tensor& tb = b.arrays.at(name);
    ASSERT_EQ(ta.size(), tb.size()) << name;
    EXPECT_EQ(std::memcmp(ta.flat().data(), tb.flat().data(),
                          ta.size() * sizeof(double)),
              0)
        << "array " << name << " differs bitwise";
  }
  for (const auto& [name, va] : a.scalars) {
    const double vb = b.scalars.at(name);
    EXPECT_EQ(std::memcmp(&va, &vb, sizeof(double)), 0)
        << "scalar " << name << " differs bitwise";
  }
}

/// One tiered invocation vs the VM oracle, same seeded inputs.
void expect_tiered_matches_vm(const ir::Program& p, const ir::Env& env,
                              const TieredOptions& opts, std::uint64_t seed,
                              const std::map<std::string, double>& boost) {
  ExecEngine vm(p, env, Engine::Vm);
  ExecEngine td(p, env, Engine::Tiered, nullptr, &opts);
  ASSERT_EQ(td.engine(), Engine::Tiered);
  test::seed_inputs(vm, seed, boost);
  test::seed_inputs(td, seed, boost);
  vm.run();
  td.run();
  expect_bitwise_equal(vm.store(), td.store());
}

/// Fresh profile per test: the tiered profile is process-wide.
class Tiered : public ::testing::Test {
 protected:
  void SetUp() override { reset_tiered_stats(); }
  void TearDown() override { reset_tiered_stats(); }
};

TEST_F(Tiered, ColdRunsStayOnVmAndCountStatements) {
  ir::Program p = kernels::lu_point_ir();
  TieredOptions opts;
  opts.promote_after = 100;  // never promote in this test
  opts.synchronous = true;
  ExecEngine e(p, {{"N", 9}}, Engine::Tiered, nullptr, &opts);
  test::seed_inputs(e, 1, {{"A", 9.0}});
  e.run();
  EXPECT_GT(e.statements_executed(), 0u)
      << "cold tier is the profiling VM";
  const TieredStats s = tiered_stats();
  EXPECT_EQ(s.invocations, 1u);
  EXPECT_EQ(s.vm_runs, 1u);
  EXPECT_EQ(s.promotions, 0u);
  EXPECT_EQ(s.background_compiles, 0u);
}

TEST_F(Tiered, PromotionCompilesOnceAndGoesSpecialized) {
  if (!native::available()) GTEST_SKIP() << "no host C toolchain";
  ir::Program p = kernels::lu_point_ir();
  pm::run_spec(p, "autoblock(b=KS)");
  const ir::Env env{{"N", 26}, {"KS", 5}};
  TieredOptions opts;
  opts.promote_after = 3;
  opts.synchronous = true;

  for (int r = 0; r < 6; ++r)
    expect_tiered_matches_vm(p, env, opts, 7 + r, {{"A", 26.0}});

  const TieredStats s = tiered_stats();
  EXPECT_EQ(s.invocations, 6u);
  EXPECT_EQ(s.vm_runs, 2u) << "runs 1..2 are cold";
  EXPECT_EQ(s.promotions, 1u);
  EXPECT_EQ(s.background_compiles, 1u)
      << "one job builds generic + specialized";
  EXPECT_EQ(s.specialized_runs, 4u)
      << "run 3 promotes synchronously and already runs specialized";
  EXPECT_EQ(s.deopts, 0u);
}

TEST_F(Tiered, GuardViolatingBindingDeoptsToGenericWithCorrectResult) {
  if (!native::available()) GTEST_SKIP() << "no host C toolchain";
  ir::Program p = kernels::lu_point_ir();
  pm::run_spec(p, "autoblock(b=KS)");
  TieredOptions hot;
  hot.promote_after = 1;
  hot.demote_after = 1000;  // keep the variant alive through the test
  hot.synchronous = true;

  // Make the divisible binding hot: its variant pins N=26, KS=5.
  expect_tiered_matches_vm(p, {{"N", 26}, {"KS", 5}}, hot, 3,
                           {{"A", 26.0}});
  ASSERT_EQ(tiered_stats().specialized_runs, 1u);

  // A different binding of the same kernel violates the param_eq guards:
  // below its own promotion threshold it has no variant of its own, so
  // it must deopt to the generic kernel — and still be bit-exact.
  TieredOptions opts = hot;
  opts.promote_after = 2;
  expect_tiered_matches_vm(p, {{"N", 24}, {"KS", 5}}, opts, 5,
                           {{"A", 24.0}});
  const TieredStats s = tiered_stats();
  EXPECT_EQ(s.deopts, 1u);
  EXPECT_EQ(s.generic_runs, 1u);
  EXPECT_EQ(s.demotions, 0u);

  const std::string json = tiered_stats_json();
  EXPECT_NE(json.find("\"deopt_events\": [{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"binding\": \"KS=5,N=24\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"action\": \"generic\""), std::string::npos)
      << json;

  // The violating binding's second run crosses its own threshold, buys
  // its own variant, and runs specialized (no further deopts).
  expect_tiered_matches_vm(p, {{"N", 24}, {"KS", 5}}, opts, 6,
                           {{"A", 24.0}});
  const TieredStats s2 = tiered_stats();
  EXPECT_EQ(s2.specialized_runs, 2u);
  EXPECT_EQ(s2.deopts, 1u);
  EXPECT_EQ(s2.background_compiles, 2u);
}

TEST_F(Tiered, GuardChurnDemotesTheVariant) {
  if (!native::available()) GTEST_SKIP() << "no host C toolchain";
  ir::Program p = kernels::lu_point_ir();
  pm::run_spec(p, "autoblock(b=KS)");
  TieredOptions opts;
  opts.promote_after = 1000;  // violating bindings stay below threshold
  opts.demote_after = 2;
  opts.synchronous = true;

  // One hot binding builds the variant...
  TieredOptions hot = opts;
  hot.promote_after = 1;
  expect_tiered_matches_vm(p, {{"N", 26}, {"KS", 5}}, hot, 3,
                           {{"A", 26.0}});
  // ...then a stream of violating bindings churns its guards.
  for (int r = 0; r < 3; ++r)
    expect_tiered_matches_vm(p, {{"N", 20 + r}, {"KS", 5}}, opts, 5 + r,
                             {{"A", 20.0 + r}});
  const TieredStats s = tiered_stats();
  EXPECT_EQ(s.demotions, 1u) << "second consecutive fail demotes";
  EXPECT_EQ(s.deopts, 2u)
      << "the third violating run finds no live variant — straight to "
         "generic, no deopt";
  // Demoted: later runs skip the variant and go straight to generic.
  expect_tiered_matches_vm(p, {{"N", 26}, {"KS", 5}}, hot, 9,
                           {{"A", 26.0}});
  EXPECT_EQ(tiered_stats().specialized_runs, 1u)
      << "the demoted variant must not run again";
}

TEST_F(Tiered, ScalarsRoundTripThroughEveryTier) {
  if (!native::available()) GTEST_SKIP() << "no host C toolchain";
  // Pivoted LU writes IMAX/TAU: scalar write-back must match the VM on
  // the VM tier, the promoting run, and the specialized steady state.
  ir::Program p = kernels::lu_pivot_point_ir();
  TieredOptions opts;
  opts.promote_after = 2;
  opts.synchronous = true;
  for (int r = 0; r < 4; ++r)
    expect_tiered_matches_vm(p, {{"N", 23}}, opts, 11 + r, {});
}

TEST_F(Tiered, FallsBackToVmWithoutToolchain) {
  native::force_unavailable_for_testing(true);
  ir::Program p = kernels::lu_point_ir();
  TieredOptions opts;
  opts.promote_after = 1;
  opts.synchronous = true;
  ExecEngine e(p, {{"N", 9}}, Engine::Tiered, nullptr, &opts);
  test::seed_inputs(e, 1, {{"A", 9.0}});
  e.run();  // promotion fails fast; the run still completes on the VM
  e.run();
  native::force_unavailable_for_testing(false);
  const TieredStats s = tiered_stats();
  EXPECT_EQ(s.vm_runs, 2u);
  EXPECT_EQ(s.specialized_runs, 0u);
  EXPECT_EQ(s.generic_runs, 0u);
}

TEST_F(Tiered, AsyncPromotionDrainsAndServesNative) {
  if (!native::available()) GTEST_SKIP() << "no host C toolchain";
  ir::Program p = kernels::lu_point_ir();
  const ir::Env env{{"N", 12}};
  TieredOptions opts;
  opts.promote_after = 1;
  opts.synchronous = false;  // a real background thread
  for (int r = 0; r < 2; ++r)
    expect_tiered_matches_vm(p, env, opts, r, {{"A", 12.0}});
  tiered_drain();
  expect_tiered_matches_vm(p, env, opts, 9, {{"A", 12.0}});
  const TieredStats s = tiered_stats();
  EXPECT_EQ(s.background_compiles, 1u);
  EXPECT_GE(s.specialized_runs + s.generic_runs, 1u)
      << "after drain the pair must run natively";
}

TEST_F(Tiered, TracedRunThrows) {
  ir::Program p = kernels::lu_point_ir();
  ExecEngine e(p, {{"N", 9}}, Engine::Tiered);
  TraceBuffer tb;
  EXPECT_THROW(e.run(tb), Error);
}

TEST_F(Tiered, ParseEngineAndRunSeededRoundTrip) {
  EXPECT_EQ(parse_engine("tiered"), Engine::Tiered);
  EXPECT_STREQ(to_string(Engine::Tiered), "tiered");
  EXPECT_THROW((void)parse_engine("warp"), Error);
  ir::Program p = kernels::lu_point_ir();
  const Store a = run_seeded(p, {{"N", 9}}, 42, Engine::Vm);
  const Store b = run_seeded(p, {{"N", 9}}, 42, Engine::Tiered);
  expect_bitwise_equal(a, b);
}

// ---- Stats JSON schemas -----------------------------------------------------

TEST_F(Tiered, StatsJsonSchemaIsPinned) {
  const std::string json = tiered_stats_json();
  for (const char* key :
       {"\"invocations\":", "\"vm_runs\":", "\"generic_runs\":",
        "\"specialized_runs\":", "\"promotions\":",
        "\"background_compiles\":", "\"deopts\":", "\"demotions\":",
        "\"deopt_events\":"})
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
}

TEST_F(Tiered, NativeStatsJsonCarriesGuardExtensions) {
  const std::string json = native::stats_json();
  for (const char* key :
       {"\"kernels_built\":", "\"compiles\":", "\"cache_hits\":",
        "\"runs\":", "\"guard_fails\":", "\"demotions\":",
        "\"compile_seconds\":", "\"load_seconds\":", "\"run_seconds\":",
        "\"kernels\":"})
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
}

}  // namespace
}  // namespace blk::interp
