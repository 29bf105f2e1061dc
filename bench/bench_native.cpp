// A5: the native JIT engine (IR -> C -> host toolchain -> dlopen) vs the
// bytecode VM across the paper's kernels — point and auto-blocked LU
// (§5.1), pivoted LU through the declarative pipeline (§5.2), Givens QR
// (§5.4), and convolution (§4) — at sizes the VM cannot reach interactively.
// The JIT must clear 20x over the VM on point LU.
//
// Writes machine-readable results (BENCH_native.json by default, override
// with --bench_json=<path>), including the native engine's compile/cache
// stats — a second run against a warm kernel cache must report zero
// compiles.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/benchutil.hpp"
#include "interp/interp.hpp"
#include "interp/vm.hpp"
#include "ir/builder.hpp"
#include "kernels/ir_kernels.hpp"
#include "native/engine.hpp"
#include "pm/runner.hpp"
#include "pm/spec.hpp"

namespace {

using namespace blk;
using namespace blk::ir;
using namespace blk::ir::dsl;

constexpr long kSizes[] = {120, 500};
constexpr long kBlock = 32;

struct Case {
  std::string name;
  ir::Program prog;
  ir::Env (*env_for)(long n);
  double diag_boost;  // added to A's diagonal (0 = none)
  bool set_dt;        // conv kernels read the DT scalar
};

ir::Env env_n(long n) { return {{"N", n}}; }
ir::Env env_n_ks(long n) { return {{"N", n}, {"KS", kBlock}}; }
ir::Env env_n_bs(long n) { return {{"N", n}, {"BS", kBlock}}; }
ir::Env env_mn(long n) { return {{"M", n}, {"N", n}}; }
ir::Env env_conv(long n) {
  return {{"N1", n - 1}, {"N2", 6 * (n - 1) / 7}, {"N3", n - 1}};
}

std::vector<Case> make_cases() {
  std::vector<Case> cases;

  cases.push_back({"lu_point", kernels::lu_point_ir(), env_n, 3.0, false});

  // Auto-blocked LU: the §5.1 driver under the standard full-block hint.
  {
    ir::Program blocked = kernels::lu_point_ir();
    blocked.param("KS");
    analysis::Assumptions hints;
    hints.assert_le(isub(iadd(ivar("K"), ivar("KS")), iconst(1)),
                    isub(ivar("N"), iconst(1)));
    (void)pm::run_spec(blocked, "autoblock(b=KS)", hints);
    cases.push_back({"lu_blocked", std::move(blocked), env_n_ks, 3.0, false});
  }

  cases.push_back(
      {"lu_pivot_point", kernels::lu_pivot_point_ir(), env_n, 0.0, false});

  // Pivoted LU blocked by the §5.2 declarative pipeline (distribution
  // legalized by commutativity of the interchange/max search).
  {
    ir::Program blocked = kernels::lu_pivot_point_ir();
    analysis::Assumptions hints;
    pm::add_fact(hints, "K+BS-1<=N-1");
    (void)pm::run_spec(
        blocked, "stripmine(b=BS); split; distribute(commutativity); "
                 "interchange",
        hints);
    cases.push_back(
        {"lu_pivot_blocked", std::move(blocked), env_n_bs, 0.0, false});
  }

  cases.push_back(
      {"givens_point", kernels::givens_qr_ir(), env_mn, 3.0, false});
  {
    ir::Program opt = kernels::givens_qr_ir();
    (void)pm::run_spec(opt, "optgivens");
    cases.push_back({"givens_opt", std::move(opt), env_mn, 3.0, false});
  }

  cases.push_back({"conv", kernels::conv_ir(), env_conv, 0.0, true});

  return cases;
}

void seed_engine(interp::ExecEngine& e, const Case& c) {
  interp::seed_store(e.store(), 42);
  for (auto& [name, t] : e.store().arrays) {
    if (c.diag_boost == 0.0 || t.rank() != 2) continue;
    for (long i = t.lower(0); i <= t.upper(0); ++i) {
      if (i < t.lower(1) || i > t.upper(1)) continue;
      std::vector<long> idx{i, i};
      t.at(idx) += c.diag_boost;
    }
  }
  if (c.set_dt) e.store().scalars["DT"] = 0.25;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json =
      blk::bench::extract_json_path(argc, argv, "BENCH_native.json");

  const bool have_native = blk::native::available();
  if (!have_native)
    std::fprintf(stderr,
                 "bench_native: no host C toolchain; native rows fall back "
                 "to the VM\n");

  std::vector<Case> cases = make_cases();
  for (const Case& c : cases) {
    for (long n : kSizes) {
      benchmark::RegisterBenchmark(
          (c.name + "/vm").c_str(),
          [&c](benchmark::State& st) {
            interp::ExecEngine e(c.prog, c.env_for(st.range(0)),
                                 interp::Engine::Vm);
            for (auto _ : st) {
              st.PauseTiming();
              seed_engine(e, c);
              st.ResumeTiming();
              e.run();
              benchmark::DoNotOptimize(
                  e.store().arrays.begin()->second.flat().data());
            }
          })
          ->Arg(n)
          ->Unit(benchmark::kMillisecond);
      benchmark::RegisterBenchmark(
          (c.name + "/native").c_str(),
          [&c](benchmark::State& st) {
            interp::ExecEngine e(c.prog, c.env_for(st.range(0)),
                                 interp::Engine::Native);
            for (auto _ : st) {
              st.PauseTiming();
              seed_engine(e, c);
              st.ResumeTiming();
              e.run();
              benchmark::DoNotOptimize(
                  e.store().arrays.begin()->second.flat().data());
            }
          })
          ->Arg(n)
          ->Unit(benchmark::kMillisecond);
    }
  }

  auto rep = blk::bench::run_all(argc, argv);

  blk::bench::JsonWriter jw(json);
  blk::bench::Table t(
      {"Kernel", "N", "VM", "Native", "Native speedup"});
  for (const Case& c : cases) {
    for (long n : kSizes) {
      const std::string sfx = "/" + std::to_string(n);
      double vm = rep.get(c.name + "/vm" + sfx);
      double nat = rep.get(c.name + "/native" + sfx);
      t.row({c.name, std::to_string(n), blk::bench::fmt_time(vm),
             blk::bench::fmt_time(nat), blk::bench::fmt_speedup(vm, nat)});
      jw.row(c.name + "/vm" + sfx, vm);
      if (vm > 0 && nat > 0)
        jw.row(c.name + "/native" + sfx, nat, vm / nat);
      else
        jw.row(c.name + "/native" + sfx, nat);
    }
  }
  t.print("A5: bytecode VM vs native JIT (target >=20x on point LU)");

  jw.extra("native", blk::native::stats_json());
  if (jw.write()) std::printf("\nwrote %s\n", json.c_str());
  return 0;
}
