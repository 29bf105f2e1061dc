// A4 (§14): certified multicore scaling of the parallel native backend.
//
// Three programs whose plans come straight out of `parallelize(check)` —
// the certifier labels the loops, the race re-check cross-examines the
// labels, and the plan drives the thread-pool codegen:
//
//   lu_blocked        auto-blocked §5.1 LU (N=1500, KS=64): the
//                     right-looking update J loops carry almost all the
//                     work and certify parallel.
//   lu_pivot_blocked  §5.2 pivoted LU through the declarative blocking
//                     pipeline (N=1500, BS=64).
//   stencil_wavefront the §14 Gauss-Seidel stencil (N=4000), serial as
//                     written; skew(f=1) + interchange expose the
//                     diagonal wavefront and the certifier re-proves the
//                     inner loop parallel.
//
// Each case times the serial native kernel and the threaded kernel at
// 1/2/4/8 threads.  Before any timing, every threaded variant is
// differentially checked against serial native on identical seeded
// inputs: the plans here contain no reductions, so the comparison is
// bitwise (memcmp), and any divergence exits 1.  Targets: blocked LU
// >=3x at 8 threads, the skewed stencil >=2x at 4 threads.
//
// Writes schema-3 machine-readable results (BENCH_parallel.json by
// default, override with --bench_json=<path>) with host.threads = 8 and
// host.parallel = true.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/benchutil.hpp"
#include "interp/interp.hpp"
#include "interp/vm.hpp"
#include "ir/builder.hpp"
#include "ir/codegen.hpp"
#include "kernels/ir_kernels.hpp"
#include "native/engine.hpp"
#include "pm/pass.hpp"
#include "pm/runner.hpp"
#include "pm/spec.hpp"

namespace {

using namespace blk;
using namespace blk::ir;

constexpr int kThreadCounts[] = {1, 2, 4, 8};

struct Case {
  std::string name;
  ir::Program prog;
  ir::ParallelOptions plan;  ///< from parallelize(check); threads set per run
  ir::Env env;
  double diag_boost;  ///< added to A's diagonal (0 = none)
};

/// Run spec (ending in parallelize(check)) over `p` and return the
/// certified plan.  The pipeline throws if the race re-check disagrees
/// with any certificate, so a plan that comes back here is vouched for
/// twice.
ir::ParallelOptions certified_plan(ir::Program& p, const std::string& spec,
                                   const std::string& fact) {
  analysis::Assumptions hints;
  if (!fact.empty()) pm::add_fact(hints, fact);
  pm::PipelineContext ctx(p, std::move(hints));
  (void)pm::run_pipeline(pm::parse_pipeline(spec), ctx);
  if (!ctx.parallel || !ctx.parallel->enabled()) {
    std::fprintf(stderr, "bench_parallel: no parallel plan from '%s'\n",
                 spec.c_str());
    std::exit(1);
  }
  return *ctx.parallel;
}

std::vector<Case> make_cases() {
  std::vector<Case> cases;

  {
    Case c;
    c.name = "lu_blocked";
    c.prog = kernels::lu_point_ir();
    c.prog.param("KS");
    c.plan = certified_plan(c.prog, "autoblock(b=KS); parallelize(check)",
                            "K+KS-1<=N-1");
    c.env = {{"N", 1500}, {"KS", 64}};
    c.diag_boost = 3.0;
    cases.push_back(std::move(c));
  }

  {
    Case c;
    c.name = "lu_pivot_blocked";
    c.prog = kernels::lu_pivot_point_ir();
    c.plan = certified_plan(c.prog,
                            "stripmine(b=BS); split; "
                            "distribute(commutativity); interchange; "
                            "parallelize(check)",
                            "K+BS-1<=N-1");
    c.env = {{"N", 1500}, {"BS", 64}};
    c.diag_boost = 0.0;
    cases.push_back(std::move(c));
  }

  {
    Case c;
    c.name = "stencil_wavefront";
    c.prog = kernels::stencil2d_ir();
    c.plan = certified_plan(
        c.prog, "skew(f=1); interchange; parallelize(check)", "");
    c.env = {{"N", 4000}};
    c.diag_boost = 0.0;
    cases.push_back(std::move(c));
  }

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
}

/// Threaded run vs serial native on identical inputs; the plans contain
/// no reductions, so bitwise equality is the contract.  Exits 1 on any
/// divergence — scaling numbers from a wrong answer are worthless.
void differential_check(const Case& c, const ir::ParallelOptions& plan) {
  interp::ExecEngine serial(c.prog, c.env, interp::Engine::Native);
  interp::ExecEngine par(c.prog, c.env, interp::Engine::Native, &plan);
  seed_engine(serial, c);
  seed_engine(par, c);
  serial.run();
  par.run();
  for (const auto& [name, ta] : serial.store().arrays) {
    const interp::Tensor& tb = par.store().arrays.at(name);
    if (ta.size() != tb.size() ||
        std::memcmp(ta.flat().data(), tb.flat().data(),
                    ta.size() * sizeof(double)) != 0) {
      std::fprintf(stderr,
                   "bench_parallel: %s diverges from serial on array %s "
                   "(%s)\n",
                   plan.summary().c_str(), name.c_str(), c.name.c_str());
      std::exit(1);
    }
  }
  for (const auto& [name, va] : serial.store().scalars) {
    const double vb = par.store().scalars.at(name);
    if (std::memcmp(&va, &vb, sizeof(double)) != 0) {
      std::fprintf(stderr,
                   "bench_parallel: %s diverges from serial on scalar %s "
                   "(%s)\n",
                   plan.summary().c_str(), name.c_str(), c.name.c_str());
      std::exit(1);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string json =
      blk::bench::extract_json_path(argc, argv, "BENCH_parallel.json");

  if (!blk::native::available()) {
    std::fprintf(stderr,
                 "bench_parallel: no host C toolchain; nothing to "
                 "measure\n");
    return 0;
  }

  std::vector<Case> cases = make_cases();

  // Per-thread-count plans, stable addresses for the benchmark lambdas.
  struct Variant {
    const Case* c;
    ir::ParallelOptions plan;
  };
  std::vector<Variant> variants;
  variants.reserve(cases.size() * std::size(kThreadCounts));
  for (const Case& c : cases) {
    for (int nt : kThreadCounts) {
      Variant v{&c, c.plan};
      v.plan.threads = nt;
      variants.push_back(std::move(v));
    }
  }

  // Correctness before speed: every threaded kernel must reproduce the
  // serial native answer bitwise on the benchmark-size inputs.
  for (const Variant& v : variants) {
    differential_check(*v.c, v.plan);
    std::printf("bench_parallel: %s serial-vs-parallel ok (%s)\n",
                v.c->name.c_str(), v.plan.summary().c_str());
  }

  for (const Case& c : cases) {
    benchmark::RegisterBenchmark(
        (c.name + "/serial").c_str(), [&c](benchmark::State& st) {
          interp::ExecEngine e(c.prog, c.env, interp::Engine::Native);
          for (auto _ : st) {
            st.PauseTiming();
            seed_engine(e, c);
            st.ResumeTiming();
            e.run();
            benchmark::DoNotOptimize(
                e.store().arrays.begin()->second.flat().data());
          }
        })->Unit(benchmark::kMillisecond);
  }
  for (const Variant& v : variants) {
    benchmark::RegisterBenchmark(
        (v.c->name + "/t" + std::to_string(v.plan.threads)).c_str(),
        [&v](benchmark::State& st) {
          interp::ExecEngine e(v.c->prog, v.c->env, interp::Engine::Native,
                               &v.plan);
          for (auto _ : st) {
            st.PauseTiming();
            seed_engine(e, *v.c);
            st.ResumeTiming();
            e.run();
            benchmark::DoNotOptimize(
                e.store().arrays.begin()->second.flat().data());
          }
        })->Unit(benchmark::kMillisecond);
  }

  auto rep = blk::bench::run_all(argc, argv);

  blk::bench::JsonWriter jw(json);
  jw.set_threads(8);
  jw.set_parallel(true);
  blk::bench::Table t({"Case", "Serial", "1T", "2T", "4T", "8T",
                       "Speedup@4", "Speedup@8"});
  for (const Case& c : cases) {
    double serial = rep.get(c.name + "/serial");
    jw.row(c.name + "/serial", serial);
    std::vector<double> times;
    for (int nt : kThreadCounts) {
      double s = rep.get(c.name + "/t" + std::to_string(nt));
      times.push_back(s);
      if (serial > 0 && s > 0)
        jw.row(c.name + "/t" + std::to_string(nt), s, serial / s);
      else
        jw.row(c.name + "/t" + std::to_string(nt), s);
    }
    t.row({c.name, blk::bench::fmt_time(serial),
           blk::bench::fmt_time(times[0]), blk::bench::fmt_time(times[1]),
           blk::bench::fmt_time(times[2]), blk::bench::fmt_time(times[3]),
           blk::bench::fmt_speedup(serial, times[2]),
           blk::bench::fmt_speedup(serial, times[3])});
  }
  t.print(
      "A6: certified parallel scaling (targets: blocked LU >=3x @8T, "
      "wavefront stencil >=2x @4T)");

  jw.extra("native", blk::native::stats_json());
  if (jw.write()) std::printf("\nwrote %s\n", json.c_str());
  return 0;
}
