// blk-opt: an opt-style driver for the pass manager.
//
// Parses a mini-Fortran program, runs a declarative pass pipeline over it
// under translation validation, and prints the resulting IR plus per-pass
// statistics.
//
//   blk-opt -p "stripmine(b=BS); split; distribute(commutativity); interchange"
//           --assume 'K+BS-1<=N-1' --check N=24,BS=5 lu_pivot.f
//
// Automatic blocking-factor selection (§6):
//
//   blk-opt --auto-b [--cache 64K/64B/4 [--cache 4M/64B/8]] lu.f
//
// runs "selectblock(grid); autoblock(b=KS)": the machine model picks KS
// (analytic working-set candidates refined by a cache-simulator sweep that
// runs each candidate on the VM and streams its accesses into the
// simulated hierarchy), prints the model-vs-sweep evidence, and exits 1
// when the chosen KS's metric is not within --tolerance of the swept
// optimum.  Probe size and sweep threads are selectblock options:
//
//   blk-opt --auto-b -p "selectblock(grid, workers=2); autoblock(b=KS)" lu.f
//
// Options:
//   -p, --pipeline SPEC  the pass pipeline (required unless --auto-b;
//                        see --print-registry)
//   --auto-b             choose the blocking factor automatically; without
//                        -p, runs "selectblock(grid); autoblock(b=KS)" and
//                        enforces --tolerance against the swept optimum
//   --cache GEOM         cache level SIZE/LINE/ASSOC, e.g. 64K/64B/4
//                        (repeatable, L1 first; default one 64K/64B/4 L1)
//   --latency LIST       comma-separated per-level + memory hit latencies
//                        (cycles); arity num_levels+1 ranks by AMAT
//   --tolerance PCT      --auto-b acceptance band in percent (default 10)
//   --model_json PATH    write the BlockChoice record (analytic prediction
//                        plus measured sweep) as JSON
//   --assume FACT        add a symbolic fact for the analyses (repeatable)
//   --check BINDINGS     run the original and transformed programs with the
//                        given parameter bindings (e.g. N=24,BS=5) and
//                        compare results (repeatable); with --engine=native
//                        each check also cross-validates the native engine
//                        against the bytecode VM on both programs
//   --bind BINDINGS      resolve parameters ahead of the pipeline (e.g.
//                        N=500,KS=50): they fill in parameters a --check
//                        binding leaves out and fix sizes selectblock
//                        would otherwise probe (repeatable; selectblock's
//                        own choice wins on a name clash)
//   --engine NAME        execution engine for --check: tree, vm (default)
//                        or native (JIT through the C backend; falls back
//                        to the VM when no host toolchain exists)
//   --parallel           build the certified parallel plan (appends
//                        "parallelize(check)" to the pipeline when absent)
//                        and run native checks through it; each --check
//                        then also differentially validates parallel
//                        against serial native (bit-identical unless the
//                        plan contains reductions); requires
//                        --engine=native
//   --threads N          fixed thread count for the parallel plan
//                        (implies --parallel; default: $BLK_THREADS else
//                        online CPUs)
//   --keep-c DIR         write the C emitted for the original and
//                        transformed programs to DIR/original.c and
//                        DIR/transformed.c
//   --golden FILE        diff the printed result against FILE; exit 1 on
//                        mismatch
//   --bench_json PATH    write per-pass stats (wall time, IR statement
//                        delta, analysis cache hits/misses) as JSON
//   --no-verify          skip translation validation of each pass
//   --print-registry     list every registered pass and exit
//   --quiet              suppress the pass-stat table on stderr
//
// Exit status: 0 success, 1 verification/check/golden failure, 2 usage or
// compile error, 3 incompatible-option usage (--threads/--parallel with a
// non-native engine — the code blk-lint uses for usage errors, kept
// distinct from 2 so scripts can tell "bad invocation" from "bad
// input").
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "interp/interp.hpp"
#include "interp/vm.hpp"
#include "ir/codegen.hpp"
#include "ir/error.hpp"
#include "ir/printer.hpp"
#include "native/engine.hpp"
#include "lang/parser.hpp"
#include "model/model.hpp"
#include "pm/runner.hpp"
#include "pm/spec.hpp"
#include "verify/pipeline.hpp"

namespace {

using blk::pm::PassStat;

/// Parse "N=24,BS=5" into an Env.  `flag` names the option in errors.
blk::ir::Env parse_bindings(const std::string& text,
                            const char* flag = "--check") {
  blk::ir::Env env;
  std::istringstream is(text);
  std::string item;
  while (std::getline(is, item, ',')) {
    auto eq = item.find('=');
    if (eq == std::string::npos)
      throw blk::Error(std::string(flag) + ": expected NAME=INT in '" +
                       item + "'");
    env[item.substr(0, eq)] = std::stol(item.substr(eq + 1));
  }
  if (env.empty())
    throw blk::Error(std::string(flag) + ": empty binding list");
  return env;
}

/// Input seed of every --check run.
constexpr std::uint64_t kCheckSeed = 0x5eed;

/// Max elementwise difference between the two programs' results under
/// `params` on the chosen engine.
double run_and_diff(const blk::ir::Program& a, const blk::ir::Program& b,
                    const blk::ir::Env& params,
                    blk::interp::Engine engine) {
  blk::interp::ExecEngine ia(a, params, engine);
  blk::interp::ExecEngine ib(b, params, engine);
  blk::interp::seed_store(ia.store(), kCheckSeed);
  blk::interp::seed_store(ib.store(), kCheckSeed);
  ia.run();
  ib.run();
  return blk::interp::max_abs_diff(ia.store(), ib.store());
}

/// Location and values of the worst elementwise disagreement between two
/// stores — the payload of the minimized reproducer message.
struct DiffSite {
  std::string var;          // "A(3,5)" or a scalar name
  double va = 0.0, vb = 0.0;
  double diff = 0.0;
};

DiffSite find_max_diff(const blk::interp::Store& a,
                       const blk::interp::Store& b) {
  DiffSite best;
  for (const auto& [name, ta] : a.arrays) {
    auto it = b.arrays.find(name);
    if (it == b.arrays.end()) continue;
    auto fa = ta.flat();
    auto fb = it->second.flat();
    for (std::size_t i = 0; i < fa.size() && i < fb.size(); ++i) {
      double d = std::fabs(fa[i] - fb[i]);
      if (!(d > best.diff)) continue;
      // Column-major unflatten through the declared bounds.
      std::ostringstream sub;
      std::size_t rest = i;
      sub << name << "(";
      for (std::size_t dim = 0; dim < ta.rank(); ++dim) {
        std::size_t extent =
            static_cast<std::size_t>(ta.upper(dim) - ta.lower(dim) + 1);
        sub << (dim ? "," : "")
            << ta.lower(dim) + static_cast<long>(rest % extent);
        rest /= extent;
      }
      sub << ")";
      best = {sub.str(), fa[i], fb[i], d};
    }
  }
  for (const auto& [name, va] : a.scalars) {
    auto it = b.scalars.find(name);
    if (it == b.scalars.end()) continue;
    double d = std::fabs(va - it->second);
    if (d > best.diff) best = {name, va, it->second, d};
  }
  return best;
}

/// Run `p` serially and under `plan` on the native engine with identical
/// seeded inputs.  Non-reduction plans must agree bitwise; reduction
/// plans may differ by the combine order, bounded by a tight relative
/// epsilon.  Prints a reproducer and returns false on divergence.
bool cross_check_parallel(const blk::ir::Program& p, const blk::ir::Env& env,
                          const std::string& bindings_label,
                          const blk::ir::ParallelOptions& plan) {
  blk::interp::ExecEngine ser(p, env, blk::interp::Engine::Native);
  blk::interp::ExecEngine par(p, env, blk::interp::Engine::Native, &plan);
  blk::interp::seed_store(ser.store(), kCheckSeed);
  blk::interp::seed_store(par.store(), kCheckSeed);
  ser.run();
  par.run();
  DiffSite site = find_max_diff(ser.store(), par.store());
  bool has_reduction = false;
  for (const auto& pl : plan.loops) has_reduction |= pl.reduction;
  const double tol =
      has_reduction
          ? 1e-9 * std::max({std::fabs(site.va), std::fabs(site.vb), 1.0})
          : 0.0;
  if (site.diff <= tol) return true;
  std::cerr << "blk-opt: --check " << bindings_label
            << "PARALLEL DIVERGENCE (serial vs " << plan.summary()
            << ") on the transformed program\n"
            << "  worst element: " << site.var << " = " << site.va
            << " (serial) vs " << site.vb
            << " (parallel), |diff| = " << site.diff << "\n";
  return false;
}

/// Run `p` on the VM and the native engine under identical seeded inputs;
/// on divergence print a minimized reproducer (bindings, program, worst
/// element) and return false.  `what` names the program in messages.
bool cross_check_native(const blk::ir::Program& p, const blk::ir::Env& env,
                        const std::string& bindings_label,
                        const char* what) {
  blk::interp::ExecEngine vm(p, env, blk::interp::Engine::Vm);
  blk::interp::ExecEngine nat(p, env, blk::interp::Engine::Native);
  blk::interp::seed_store(vm.store(), kCheckSeed);
  blk::interp::seed_store(nat.store(), kCheckSeed);
  vm.run();
  nat.run();
  DiffSite site = find_max_diff(vm.store(), nat.store());
  if (site.diff == 0.0) return true;
  std::cerr << "blk-opt: --check " << bindings_label
            << "ENGINE DIVERGENCE (vm vs native) on the " << what
            << " program\n"
            << "  worst element: " << site.var << " = " << site.va
            << " (vm) vs " << site.vb << " (native), |diff| = " << site.diff
            << "\n  reproduce: blk-opt --engine=native --check "
            << bindings_label << "... <same pipeline and input>\n";
  return false;
}

void print_registry() {
  const auto& reg = blk::pm::Registry::instance();
  for (const auto& [name, info] : reg.passes()) {
    std::cout << name;
    if (!info.options.empty()) {
      std::cout << "(";
      bool first = true;
      for (const auto& opt : info.options) {
        if (!first) std::cout << ", ";
        first = false;
        std::cout << opt.name << ":" << blk::pm::to_string(opt.kind);
        if (opt.required) std::cout << "!";
      }
      std::cout << ")";
    }
    if (info.composite) std::cout << "  [composite]";
    std::cout << "\n    " << info.doc << "\n";
    for (const auto& opt : info.options)
      std::cout << "      " << opt.name << ": " << opt.doc << "\n";
  }
}

void print_stats(const blk::pm::RunReport& report) {
  std::cerr << "pass                                      seconds   stmts"
               "   cache h/m\n";
  for (const PassStat& s : report.passes) {
    char line[256];
    std::snprintf(line, sizeof line, "%-40s %8.6f %3ld->%-3ld %5llu/%-5llu",
                  s.invocation.c_str(), s.seconds, s.stmts_before,
                  s.stmts_after,
                  static_cast<unsigned long long>(s.analysis_hits),
                  static_cast<unsigned long long>(s.analysis_misses));
    std::cerr << line;
    if (s.skipped) std::cerr << "  [skipped]";
    if (!s.note.empty()) std::cerr << "  " << s.note;
    std::cerr << "\n";
  }
  std::cerr << "analysis cache: " << report.analysis.hits() << " hits, "
            << report.analysis.misses() << " misses, "
            << report.analysis.invalidations << " invalidations, "
            << report.analysis.build_seconds << "s building\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string file;
  std::string spec;
  std::string golden_path;
  std::string json_path;
  std::vector<blk::ir::Env> checks;
  blk::ir::Env binds;
  blk::interp::Engine engine = blk::interp::Engine::Vm;
  std::string keep_c_dir;
  blk::analysis::Assumptions hints;
  bool verify = true;
  bool quiet = false;
  bool auto_b = false;
  std::vector<blk::cachesim::CacheConfig> machine;
  std::vector<double> latencies;
  double tolerance = 0.10;
  std::string model_json_path;
  bool parallel = false;
  long threads = 0;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept --flag=VALUE as well as --flag VALUE.
    std::string inline_value;
    bool has_inline_value = false;
    if (arg.size() > 2 && arg[0] == '-' && arg[1] == '-') {
      if (auto eq = arg.find('='); eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg.erase(eq);
        has_inline_value = true;
      }
    }
    auto need_value = [&](const char* flag) -> std::string {
      if (has_inline_value) {
        has_inline_value = false;
        return inline_value;
      }
      if (i + 1 >= argc) {
        std::cerr << "blk-opt: " << flag << " needs an argument\n";
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (arg == "-p" || arg == "--pipeline") {
        spec = need_value("-p");
      } else if (arg == "--assume") {
        blk::pm::add_fact(hints, need_value("--assume"));
      } else if (arg == "--check") {
        checks.push_back(parse_bindings(need_value("--check")));
      } else if (arg == "--bind") {
        blk::ir::Env env = parse_bindings(need_value("--bind"), "--bind");
        binds.insert(env.begin(), env.end());
      } else if (arg == "--engine") {
        engine = blk::interp::parse_engine(need_value("--engine"));
      } else if (arg == "--parallel") {
        parallel = true;
      } else if (arg == "--threads") {
        threads = std::stol(need_value("--threads"));
        if (threads < 0) {
          std::cerr << "blk-opt: --threads wants a non-negative count\n";
          return 2;
        }
        parallel = true;
      } else if (arg == "--keep-c") {
        keep_c_dir = need_value("--keep-c");
      } else if (arg == "--golden") {
        golden_path = need_value("--golden");
      } else if (arg == "--bench_json") {
        json_path = need_value("--bench_json");
      } else if (arg == "--auto-b") {
        auto_b = true;
      } else if (arg == "--cache") {
        machine.push_back(
            blk::model::parse_cache_config(need_value("--cache")));
      } else if (arg == "--latency") {
        std::istringstream is(need_value("--latency"));
        std::string item;
        while (std::getline(is, item, ','))
          latencies.push_back(std::stod(item));
      } else if (arg == "--tolerance") {
        tolerance = std::stod(need_value("--tolerance")) / 100.0;
      } else if (arg == "--model_json") {
        model_json_path = need_value("--model_json");
      } else if (arg == "--no-verify") {
        verify = false;
      } else if (arg == "--quiet") {
        quiet = true;
      } else if (arg == "--print-registry") {
        print_registry();
        return 0;
      } else if (arg == "--help" || arg == "-h") {
        std::cout << "usage: blk-opt -p SPEC [--assume FACT]... "
                     "[--check N=24,BS=5]... [--bind N=24,BS=5]...\n"
                     "               [--golden FILE]\n"
                     "               [--engine tree|vm|native]\n"
                     "               [--keep-c DIR] [--bench_json PATH] "
                     "[--no-verify] [--quiet] [file.f]\n"
                     "       blk-opt --auto-b [-p SPEC] "
                     "[--cache SIZE/LINE/ASSOC]... [--latency L1,..,MEM]\n"
                     "               [--tolerance PCT] [--model_json PATH] "
                     "[file.f]\n"
                     "       blk-opt -p SPEC --engine=native --parallel "
                     "[--threads N] [--check ...]...\n"
                     "       blk-opt --print-registry\n";
        return 0;
      } else if (arg.size() > 1 && arg[0] == '-') {
        std::cerr << "blk-opt: unknown option '" << arg
                  << "' (see --help)\n";
        return 2;
      } else if (!file.empty()) {
        std::cerr << "blk-opt: more than one input file\n";
        return 2;
      } else {
        file = std::move(arg);
      }
      if (has_inline_value) {
        std::cerr << "blk-opt: option '" << arg << "' does not take a "
                     "value\n";
        return 2;
      }
    } catch (const std::exception& e) {
      std::cerr << "blk-opt: " << e.what() << "\n";
      return 2;
    }
  }
  if (parallel && engine != blk::interp::Engine::Native) {
    // The tree-walker and VM have no threads to give; silently running
    // the plan serially would report meaningless "parallel ok" checks.
    std::cerr << "blk-opt: --parallel/--threads need --engine=native "
                 "(the tree and vm engines execute serially)\n";
    return 3;
  }
  if (spec.empty()) {
    if (!auto_b) {
      std::cerr << "blk-opt: no pipeline (-p SPEC or --auto-b; see "
                   "--print-registry)\n";
      return 2;
    }
    // The canonical §6 pipeline: model-chosen KS through the §5.1 driver.
    spec = "selectblock(grid); autoblock(b=KS)";
  }
  if (parallel && spec.find("parallelize") == std::string::npos)
    spec += "; parallelize(check)";
  if (file.empty()) file = "-";

  blk::lang::CompileResult compiled;
  blk::pm::Pipeline pipeline;
  try {
    compiled = blk::lang::compile(blk::lang::read_source(file));
    pipeline = blk::pm::parse_pipeline(spec);
  } catch (const std::exception& e) {
    std::cerr << "blk-opt: " << e.what() << "\n";
    return 2;
  }

  blk::ir::Program& prog = compiled.program;
  blk::ir::Program original = prog.clone();

  blk::pm::PipelineContext ctx(prog, hints);
  ctx.machine = machine;
  ctx.latencies = latencies;
  // --bind values are resolved bindings: they complete every --check
  // binding and fix the sizes selectblock probes at; passes that choose
  // values themselves (selectblock) overwrite a binding of the same name.
  ctx.resolved = binds;
  blk::pm::RunReport report;
  try {
    if (verify) {
      blk::verify::VerifiedPipeline vp(prog);
      report = blk::pm::run_pipeline(pipeline, ctx);
      vp.throw_if_failed();
    } else {
      report = blk::pm::run_pipeline(pipeline, ctx);
    }
  } catch (const std::exception& e) {
    std::cerr << "blk-opt: pipeline failed: " << e.what() << "\n";
    return 1;
  }

  std::string printed = blk::ir::print(prog);
  std::cout << printed;
  if (!quiet) print_stats(report);

  // The certified plan the native checks (and --keep-c) execute under.
  const blk::ir::ParallelOptions* plan = nullptr;
  if (parallel) {
    if (!ctx.parallel) {
      std::cerr << "blk-opt: --parallel but the pipeline built no plan "
                   "(add a parallelize stage)\n";
      return 2;
    }
    if (threads > 0) ctx.parallel->threads = static_cast<int>(threads);
    if (ctx.parallel->enabled()) {
      plan = &*ctx.parallel;
      if (!quiet)
        std::cerr << "blk-opt: parallel plan: " << plan->summary() << "\n";
    } else if (!quiet) {
      std::cerr << "blk-opt: parallel plan is empty (no certified loops); "
                   "checks run serially\n";
    }
  }

  if (!keep_c_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(keep_c_dir, ec);
    for (const auto& [name, p] :
         {std::pair<const char*, const blk::ir::Program*>{"original.c",
                                                          &original},
          {"transformed.c", &prog}}) {
      std::filesystem::path path =
          std::filesystem::path(keep_c_dir) / name;
      std::ofstream out(path);
      if (!out) {
        std::cerr << "blk-opt: cannot write " << path.string() << "\n";
        return 2;
      }
      // The transformed program shows the threaded form when a plan
      // exists (the original predates the plan's loop coordinates).
      out << blk::ir::emit_c(*p, "blk_kernel",
                             {.scalar_io = true,
                              .entry_wrapper = true,
                              .parallel = p == &prog ? plan : nullptr});
      if (!quiet) std::cerr << "blk-opt: wrote " << path.string() << "\n";
    }
  }

  int status = 0;
  if (ctx.block_choice) {
    const blk::model::BlockChoice& choice = *ctx.block_choice;
    if (!quiet) std::cerr << choice.to_string();
    if (!model_json_path.empty()) {
      std::ofstream out(model_json_path);
      if (!out) {
        std::cerr << "blk-opt: cannot write " << model_json_path << "\n";
        return 2;
      }
      out << choice.to_json();
    }
    if (auto_b && choice.swept && !choice.within_tolerance(tolerance)) {
      std::cerr << "blk-opt: chosen KS=" << choice.ks << " ("
                << choice.metric_name << " " << choice.chosen_metric
                << ") misses the swept optimum KS=" << choice.best_swept_ks
                << " (" << choice.best_swept_metric << ") by more than "
                << tolerance * 100.0 << "%\n";
      status = 1;
    }
  } else if (auto_b) {
    std::cerr << "blk-opt: --auto-b pipeline produced no block choice\n";
    status = 1;
  }

  for (const blk::ir::Env& env : checks) {
    // Symbolic factors the pipeline resolved (e.g. KS from selectblock)
    // back the user's bindings; explicit NAME=INT on the command line wins.
    blk::ir::Env full = env;
    full.insert(ctx.resolved.begin(), ctx.resolved.end());
    std::ostringstream label;
    for (const auto& [k, v] : env) label << k << "=" << v << " ";
    double diff = 0.0;
    try {
      diff = run_and_diff(original, prog, full, engine);
    } catch (const std::exception& e) {
      std::cerr << "blk-opt: --check failed to run: " << e.what() << "\n";
      status = 1;
      continue;
    }
    if (diff != 0.0) {
      std::cerr << "blk-opt: --check " << label.str() << "DIVERGED on the "
                << blk::interp::to_string(engine)
                << " engine (max |diff| = " << diff << ")\n";
      status = 1;
    } else if (!quiet) {
      std::cerr << "blk-opt: --check " << label.str() << "ok ("
                << blk::interp::to_string(engine) << ")\n";
    }
    // On the native engine every check also differentially validates the
    // JIT against the VM oracle, independently for both programs — a
    // divergence here is an emitter or toolchain bug, not a bad pass.
    if (engine == blk::interp::Engine::Native && blk::native::available()) {
      try {
        if (!cross_check_native(original, full, label.str(), "original"))
          status = 1;
        else if (!cross_check_native(prog, full, label.str(), "transformed"))
          status = 1;
        else if (!quiet)
          std::cerr << "blk-opt: --check " << label.str()
                    << "vm-vs-native ok\n";
      } catch (const std::exception& e) {
        std::cerr << "blk-opt: --check " << label.str()
                  << "vm-vs-native failed to run: " << e.what() << "\n";
        status = 1;
      }
      // With a parallel plan, also validate the threaded kernel against
      // serial native: bit-identical for non-reduction plans, pinned
      // deterministic combine (tight epsilon) for reductions.
      if (plan) {
        try {
          if (!cross_check_parallel(prog, full, label.str(), *plan))
            status = 1;
          else if (!quiet)
            std::cerr << "blk-opt: --check " << label.str()
                      << "serial-vs-parallel ok (" << plan->summary()
                      << ")\n";
        } catch (const std::exception& e) {
          std::cerr << "blk-opt: --check " << label.str()
                    << "serial-vs-parallel failed to run: " << e.what()
                    << "\n";
          status = 1;
        }
      }
    }
  }

  // Written after the checks so the native section reflects every kernel
  // the differential runs built (compile counts, cache hits, run timings).
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "blk-opt: cannot write " << json_path << "\n";
      return 2;
    }
    std::string native_json;
    if (blk::native::stats().kernels > 0)
      native_json = blk::native::stats_json();
    out << blk::pm::report_json(report, file, pipeline.to_string(),
                                native_json);
  }

  if (!golden_path.empty()) {
    std::string golden;
    try {
      golden = blk::lang::read_source(golden_path);
    } catch (const blk::Error& e) {
      std::cerr << "blk-opt: golden: " << e.what() << "\n";
      return 2;
    }
    if (golden != printed) {
      std::cerr << "blk-opt: output differs from golden " << golden_path
                << "\n--- golden ---\n"
                << golden << "--- got ---\n"
                << printed;
      status = 1;
    } else if (!quiet) {
      std::cerr << "blk-opt: golden match\n";
    }
  }
  return status;
}
