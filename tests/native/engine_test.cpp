// The native JIT engine's semantics contract: bit-identical stores to the
// bytecode VM (arrays and scalars), one compile amortized over every
// parameter binding, silent fallback to the VM when the toolchain is
// missing, hard errors for the features the JIT cannot provide (traces),
// and — the suite's reason to exist — a deliberately broken emitter being
// caught by the differential harness rather than shipping wrong numbers.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <vector>

#include "interp/interp.hpp"
#include "interp/trace.hpp"
#include "interp/vm.hpp"
#include "ir/error.hpp"
#include "kernels/ir_kernels.hpp"
#include "native/cache.hpp"
#include "native/engine.hpp"
#include "pm/runner.hpp"
#include "pm/spec.hpp"
#include "testutil.hpp"

namespace blk::native {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const char* tag) {
  fs::path d = fs::path(::testing::TempDir()) / tag;
  fs::remove_all(d);
  fs::create_directories(d);
  return d.string();
}

/// Arrays and scalars bitwise identical between two stores.
void expect_bitwise_equal(const interp::Store& a, const interp::Store& b) {
  ASSERT_EQ(a.arrays.size(), b.arrays.size());
  for (const auto& [name, ta] : a.arrays) {
    const interp::Tensor& tb = b.arrays.at(name);
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

/// A bare Store seen through the `store()` accessor test::seed_inputs takes.
struct StoreRef {
  interp::Store& s;
  interp::Store& store() { return s; }
};

/// Run `p` on both engines with identically seeded inputs and require
/// bitwise agreement.
void expect_native_matches_vm(
    const ir::Program& p, const ir::Env& env, std::uint64_t seed,
    const std::map<std::string, double>& diag_boost = {}) {
  interp::ExecEngine vm(p, env, interp::Engine::Vm);
  interp::ExecEngine nat(p, env, interp::Engine::Native);
  ASSERT_EQ(nat.engine(), interp::Engine::Native);
  test::seed_inputs(vm, seed, diag_boost);
  test::seed_inputs(nat, seed, diag_boost);
  vm.run();
  nat.run();
  expect_bitwise_equal(vm.store(), nat.store());
}

TEST(NativeEngine, LuPointBitIdenticalToVm) {
  if (!available()) GTEST_SKIP() << "no host C toolchain";
  expect_native_matches_vm(kernels::lu_point_ir(), {{"N", 37}}, 7,
                           {{"A", 37.0}});
}

/// Compile `p` at the hot tier (opt_level 3: -O3 -funroll-loops), call it
/// on a seeded store and require bitwise agreement with the VM.
void expect_hot_tier_matches_vm(const ir::Program& p, const ir::Env& env) {
  const std::map<std::string, double> boost{{"A", 37.0}};
  interp::ExecEngine vm(p, env, interp::Engine::Vm);
  test::seed_inputs(vm, 13, boost);
  vm.run();

  Kernel hot(p, "blk_kernel", nullptr, nullptr, 3);
  interp::Store st = interp::make_store(p, env);
  StoreRef ref{st};
  test::seed_inputs(ref, 13, boost);
  std::vector<long> params;
  for (const auto& name : hot.param_names()) params.push_back(env.at(name));
  std::vector<double*> arrays;
  for (const auto& name : hot.array_names())
    arrays.push_back(st.arrays.at(name).flat().data());
  std::vector<double> scalars;
  for (const auto& name : hot.scalar_names())
    scalars.push_back(st.scalars.at(name));
  hot.call(params.data(), arrays.data(), scalars.data());
  for (std::size_t i = 0; i < scalars.size(); ++i)
    st.scalars[hot.scalar_names()[i]] = scalars[i];
  expect_bitwise_equal(vm.store(), st);
}

// bench_paper times every table at the hot tier, so its code must stay
// bitwise equal to the VM on the point form and on the derived "2+".
TEST(NativeEngine, HotTierBitIdenticalToVm) {
  if (!available()) GTEST_SKIP() << "no host C toolchain";
  expect_hot_tier_matches_vm(kernels::lu_point_ir(), {{"N", 37}});

  ir::Program plus = kernels::lu_point_ir();
  analysis::Assumptions hints;
  pm::add_fact(hints, "K+KS-1<=N-1");
  (void)pm::run_spec(plus, "autoblockplus(b=KS)", hints);
  expect_hot_tier_matches_vm(plus, {{"N", 37}, {"KS", 8}});
}

TEST(NativeEngine, PivotedLuScalarsRoundTripLikeVm) {
  if (!available()) GTEST_SKIP() << "no host C toolchain";
  // IMAX and TAU are live-out scalars: the entry wrapper must read the
  // caller's block at entry and write results back at return.
  expect_native_matches_vm(kernels::lu_pivot_point_ir(), {{"N", 23}}, 11);
}

TEST(NativeEngine, GivensScalarsRoundTripLikeVm) {
  if (!available()) GTEST_SKIP() << "no host C toolchain";
  expect_native_matches_vm(kernels::givens_qr_ir(), {{"M", 19}, {"N", 13}},
                           3, {{"A", 19.0}});
}

// Scalar replacement's temporaries are not observable state: no engine's
// store holds them and the native scalar block leaves them out, while
// the arrays still agree bitwise across the three engines.
TEST(NativeEngine, ScalarReplacementTemporariesStayLocal) {
  if (!available()) GTEST_SKIP() << "no host C toolchain";
  ir::Program p = kernels::aconv_ir();
  (void)pm::run_spec(p, "optconv(u=4)");
  std::vector<std::string> temps;
  for (const auto& name : p.scalars())
    if (p.is_temporary(name)) temps.push_back(name);
  ASSERT_FALSE(temps.empty());
  const ir::Env env{{"N1", 40}, {"N2", 34}, {"N3", 40}};
  interp::ExecEngine tree(p, env, interp::Engine::TreeWalker);
  interp::ExecEngine vm(p, env, interp::Engine::Vm);
  interp::ExecEngine nat(p, env, interp::Engine::Native);
  for (interp::ExecEngine* e : {&tree, &vm, &nat}) {
    test::seed_inputs(*e, 5);
    e->store().scalars["DT"] = 0.25;
    e->run();
    for (const auto& t : temps)
      EXPECT_FALSE(e->store().scalars.contains(t))
          << t << " in the " << interp::to_string(e->engine()) << " store";
  }
  expect_bitwise_equal(tree.store(), vm.store());
  expect_bitwise_equal(vm.store(), nat.store());
  EXPECT_EQ(Kernel(p).scalar_names(), std::vector<std::string>{"DT"});
}

TEST(NativeEngine, OneCompileServesEveryParameterBinding) {
  if (!available()) GTEST_SKIP() << "no host C toolchain";
  ir::Program p = kernels::lu_point_ir();
  const Stats s0 = stats();
  interp::ExecEngine e1(p, {{"N", 8}}, interp::Engine::Native);
  const Stats s1 = stats();
  interp::ExecEngine e2(p, {{"N", 31}}, interp::Engine::Native);
  const Stats s2 = stats();
  EXPECT_EQ(s1.kernels, s0.kernels + 1);
  EXPECT_EQ(s2.kernels, s1.kernels + 1);
  EXPECT_EQ(s2.compiles, s1.compiles)
      << "a different N must reuse the same shared object";
  EXPECT_EQ(s2.cache_hits, s1.cache_hits + 1);
}

TEST(NativeEngine, FallsBackToVmWithoutToolchain) {
  force_unavailable_for_testing(true);
  EXPECT_FALSE(available());
  ir::Program p = kernels::lu_point_ir();
  interp::ExecEngine e(p, {{"N", 9}}, interp::Engine::Native);
  EXPECT_EQ(e.engine(), interp::Engine::Vm)
      << "engine() reports the effective engine";
  test::seed_inputs(e, 1, {{"A", 9.0}});
  e.run();  // and it actually executes
  force_unavailable_for_testing(false);
}

TEST(NativeEngine, TracedRunThrowsAndStatementCountIsZero) {
  if (!available()) GTEST_SKIP() << "no host C toolchain";
  ir::Program p = kernels::lu_point_ir();
  interp::ExecEngine e(p, {{"N", 9}}, interp::Engine::Native);
  test::seed_inputs(e, 1, {{"A", 9.0}});
  interp::TraceBuffer tb;
  EXPECT_THROW(e.run(tb), Error);
  e.run();
  EXPECT_EQ(e.statements_executed(), 0u)
      << "compiled code has no IR statement counter";
}

TEST(NativeEngine, ParseEngineSpellingsAndErrors) {
  EXPECT_EQ(interp::parse_engine("tree"), interp::Engine::TreeWalker);
  EXPECT_EQ(interp::parse_engine("vm"), interp::Engine::Vm);
  EXPECT_EQ(interp::parse_engine("native"), interp::Engine::Native);
  EXPECT_THROW((void)interp::parse_engine("cuda"), Error);
  EXPECT_THROW((void)interp::parse_engine("tiered"), Error);
  EXPECT_STREQ(interp::to_string(interp::Engine::Native), "native");
}

// blk-opt's --bench_json "native" section is this string verbatim.
TEST(NativeEngine, StatsJsonSchemaIsPinned) {
  const std::string json = stats_json();
  for (const char* key :
       {"\"kernels_built\":", "\"compiles\":", "\"cache_hits\":",
        "\"runs\":", "\"compile_seconds\":", "\"load_seconds\":",
        "\"run_seconds\":", "\"kernels\":"})
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
}

TEST(NativeEngine, UnboundParameterIsRejected) {
  if (!available()) GTEST_SKIP() << "no host C toolchain";
  ir::Program p = kernels::lu_point_ir();
  EXPECT_THROW(
      interp::ExecEngine(p, /*params=*/{}, interp::Engine::Native), Error);
}

// The acceptance test for the differential suite itself: sabotage the
// emitted C (flip a subtraction), compile the broken kernel directly
// through the cache, and require that running it against the VM oracle
// exposes a nonzero divergence.  If the harness ever stops catching this,
// emitter bugs would ship silently.
TEST(NativeEngine, BrokenEmitterIsCaughtByDifferential) {
  if (!available()) GTEST_SKIP() << "no host C toolchain";
  ir::Program p = kernels::lu_point_ir();
  Kernel good(p);  // also the source of the marshaling order
  // Flip the elimination update A(I,J) -= ... into += (the first " - "
  // in the file is inside the division macros, which LU never expands).
  std::string sabotaged = good.source();
  const std::size_t pos = sabotaged.find(" - (A(");
  ASSERT_NE(pos, std::string::npos) << good.source();
  sabotaged.replace(pos, 3, " + ");

  KernelCache cache(fresh_dir("sabotage"));
  CompileOutcome out = cache.get_or_compile(sabotaged, *toolchain());
  Module mod(out.so_path);
  auto* entry = reinterpret_cast<EntryFn>(mod.sym("blk_kernel_entry"));
  ASSERT_NE(entry, nullptr);

  const ir::Env env{{"N", 12}};
  interp::ExecEngine vm(p, env, interp::Engine::Vm);
  test::seed_inputs(vm, 5, {{"A", 12.0}});
  vm.run();

  interp::Store broken = interp::make_store(p, env);
  StoreRef ref{broken};
  test::seed_inputs(ref, 5, {{"A", 12.0}});

  std::vector<long> params;
  for (const auto& name : p.params()) params.push_back(env.at(name));
  std::vector<double*> arrays;
  for (auto& [name, t] : broken.arrays) arrays.push_back(t.flat().data());
  std::vector<double> scalars(broken.scalars.size(), 0.0);
  entry(params.data(), arrays.data(), scalars.data());

  EXPECT_GT(interp::max_abs_diff(vm.store(), broken), 0.0)
      << "the differential harness failed to catch a broken emitter";
}

}  // namespace
}  // namespace blk::native
