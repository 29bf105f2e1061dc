// blk-perfbench: one sample of one benchmark workload, in one process.
//
// The process walks the compiler's whole user path once:
//
//   source text -> lang::compile -> pm::run_pipeline (translation-validated
//   by verify::VerifiedPipeline, as blk-opt runs it) -> ir::emit_c + host cc
//   + dlopen (native::Kernel) -> calls of the derived kernel at the
//   workload's size
//
// against a private, initially empty kernel cache and a fresh process-wide
// TraceStore, then checks the result: translation validation, derived vs
// original on the VM, VM vs native on both programs, the derived kernel's
// output at full size, the golden IR or the block-size tolerance.
//
// Protocol (perfbench/run.py drives it): after set-up the process prints
// "ready" on its own line, and when done one JSON object on the last line.
//
//   blk-perfbench --workload lu_autob --seed 7 --repo . --cache-dir DIR
//                 [--traced]
//
// --traced times each layer from outside, around calls to its public entry
// points: lang::compile, pm::run_pipeline one stage at a time, the pass
// observer stack around verify::VerifiedPipeline, model::build_analytic_model
// and model::sweep_block_sizes, trace::synthesize_or_record and
// trace::replay, ir::emit_c, the native::Kernel constructor and
// Kernel::call.  Counts come from the reports those layers return.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/depgraph.hpp"
#include "interp/vm.hpp"
#include "ir/codegen.hpp"
#include "ir/error.hpp"
#include "ir/printer.hpp"
#include "lang/parser.hpp"
#include "model/model.hpp"
#include "model/sweep.hpp"
#include "native/engine.hpp"
#include "pm/runner.hpp"
#include "pm/spec.hpp"
#include "trace/replay.hpp"
#include "trace/store.hpp"
#include "trace/synth.hpp"
#include "transform/instrument.hpp"
#include "verify/pipeline.hpp"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using namespace blk;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ---- Workloads ------------------------------------------------------------

enum class Inputs { DiagDominant, Integers };

struct Workload {
  std::string name{};
  std::string source_file{};  ///< relative to the repository; "": generated
  std::string spec{};
  std::vector<std::string> assumes{};
  std::vector<std::string> caches{};  ///< machine description (selectblock)
  std::vector<double> latencies{};
  ir::Env run_env{};    ///< the timed size (plus fixed factors)
  ir::Env check_env{};  ///< the small size the VM checks run at
  std::string golden{};  ///< expected derived IR, relative to the repository
  bool tolerance_check = false;  ///< selectblock within 10% of swept best
  Inputs inputs = Inputs::DiagDominant;
};

/// Wall time each process spends calling a kernel, spread over many short
/// calls so the median averages over the host's speed swings.
constexpr double kRunWindow = 1.5;

constexpr int kDeepNest = 7;  ///< loop depth of the generated deep_nest
constexpr unsigned kSweepWorkers = 2;  ///< as pinned in lu_autob's spec

/// One statement in a kDeepNest-deep rectangular nest.
std::string deep_nest_source() {
  std::ostringstream os;
  os << "PARAMETER N\nREAL*8 A(N,N)\n";
  for (int d = 1; d <= kDeepNest; ++d)
    os << std::string(2 * (d - 1), ' ') << "DO I" << d << " = 1, N\n";
  os << std::string(2 * kDeepNest, ' ') << "A(I1,I2) = A(I1,I2) + 1.0\n";
  for (int d = kDeepNest; d >= 1; --d)
    os << std::string(2 * (d - 1), ' ') << "ENDDO\n";
  return os.str();
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {.name = "lu_autob",
       .source_file = "tools/examples/lu.f",
       .spec = "selectblock(grid, workers=2); autoblockplus(b=KS)",
       .caches = {"32K/64B/8", "1M/64B/16"},
       .latencies = {4, 14, 200},
       .run_env = {{"N", 400}},
       .check_env = {{"N", 24}},
       .tolerance_check = true},
      {.name = "lu_pivot_derive",
       .source_file = "tools/examples/lu_pivot.f",
       .spec = "stripmine(b=BS); split; distribute(commutativity); "
               "interchange",
       .assumes = {"K+BS-1<=N-1"},
       .run_env = {{"N", 400}, {"BS", 32}},
       .check_env = {{"N", 24}, {"BS", 5}},
       .golden = "tools/examples/lu_pivot_blocked.golden"},
      {.name = "deep_nest",
       .spec = "interchange",
       .run_env = {{"N", 12}},
       .check_env = {{"N", 4}},
       .inputs = Inputs::Integers},
  };
  return all;
}

// ---- Seeded inputs --------------------------------------------------------

struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// The N x N matrix A, column-major.  LU inputs are strictly diagonally
/// dominant by columns (off-diagonal in [-1,1), diagonal N+1+[0,1)): no
/// pivot is ever small, partial pivoting never swaps, and no value is
/// inf, NaN or denormal, so the kernels' run time does not depend on the
/// seed.  The deep nest gets integers in [-1000,1000], so its additions
/// are exact.
std::vector<double> make_matrix(Inputs kind, long n, std::uint64_t seed) {
  SplitMix rng{seed * 0x100000001b3ULL + static_cast<std::uint64_t>(n)};
  std::vector<double> a(static_cast<std::size_t>(n * n));
  for (long j = 0; j < n; ++j)
    for (long i = 0; i < n; ++i) {
      const double u = rng.unit();
      double v = 0.0;
      if (kind == Inputs::Integers)
        v = std::floor(u * 2001.0) - 1000.0;
      else
        v = i == j ? static_cast<double>(n) + 1.0 + u : 2.0 * u - 1.0;
      a[static_cast<std::size_t>(i + j * n)] = v;
    }
  return a;
}

void load_matrix(interp::Store& st, const std::vector<double>& a) {
  auto flat = st.arrays.at("A").flat();
  if (flat.size() != a.size()) throw Error("perfbench: A has the wrong size");
  std::copy(a.begin(), a.end(), flat.begin());
}

/// Is `f` the factored (or incremented) form of the input `a0`?  LU: the
/// product L*U reproduces a0 at 64 seeded positions plus the far corner.
/// Deep nest: every element gained exactly N^(depth-2).
bool output_correct(Inputs kind, long n, const std::vector<double>& a0,
                    std::span<const double> f, std::uint64_t seed) {
  auto at = [n](auto& m, long i, long j) {  // 1-based A(i,j)
    return m[static_cast<std::size_t>((i - 1) + (j - 1) * n)];
  };
  if (kind == Inputs::Integers) {
    const double inc = std::pow(static_cast<double>(n), kDeepNest - 2);
    for (std::size_t k = 0; k < a0.size(); ++k)
      if (f[k] != a0[k] + inc) return false;
    return true;
  }
  SplitMix rng{seed ^ 0x5eedULL};
  const double tol = 1e-9 * static_cast<double>(n);
  for (int s = 0; s <= 64; ++s) {
    long i = n, j = n;
    if (s < 64) {
      i = 1 + static_cast<long>(rng.next() % static_cast<std::uint64_t>(n));
      j = 1 + static_cast<long>(rng.next() % static_cast<std::uint64_t>(n));
    }
    double sum = 0.0;
    for (long k = 1; k <= std::min(i, j); ++k) {
      const double l = k == i ? 1.0 : at(f, i, k);
      sum += l * at(f, k, j);
    }
    if (!(std::fabs(sum - at(a0, i, j)) <= tol)) return false;
  }
  return true;
}

// ---- Kernel calls ---------------------------------------------------------

/// A native kernel bound to a store: the entry point's three arrays.
struct BoundKernel {
  native::Kernel& kernel;
  std::vector<long> params;
  std::vector<double*> arrays;
  std::vector<double> scalars;

  BoundKernel(native::Kernel& k, interp::Store& st, const ir::Env& env)
      : kernel(k), scalars(k.scalar_names().size(), 0.0) {
    for (const std::string& p : k.param_names()) params.push_back(env.at(p));
    for (const std::string& a : k.array_names())
      arrays.push_back(st.arrays.at(a).flat().data());
  }
  /// One call from scalars at zero (the VM's start state); returns seconds.
  double call() {
    std::fill(scalars.begin(), scalars.end(), 0.0);
    const auto t0 = Clock::now();
    kernel.call(params.data(), arrays.data(), scalars.data());
    return since(t0);
  }
};

/// One untimed warm call, then timed calls for about kRunWindow seconds
/// (at least five rounds), cycling through `inputs`, which are reloaded
/// outside the timed region.  Returns the call times per input; the last
/// call ran on inputs.back().  `busy` accumulates every call's time.
std::vector<std::vector<double>> time_calls(
    BoundKernel& bk, interp::Store& st,
    const std::vector<const std::vector<double>*>& inputs, double& busy) {
  load_matrix(st, *inputs.front());
  busy += bk.call();
  std::vector<std::vector<double>> times(inputs.size());
  const auto t0 = Clock::now();
  for (int round = 0; round < 5 || since(t0) < kRunWindow; ++round)
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      load_matrix(st, *inputs[i]);
      const double dt = bk.call();
      busy += dt;
      times[i].push_back(dt);
    }
  return times;
}

// ---- Checks ---------------------------------------------------------------

struct Checks {
  std::vector<std::pair<std::string, bool>> results;
  void add(const std::string& name, bool ok, const std::string& why = "") {
    results.emplace_back(name, ok);
    if (!ok)
      std::cerr << "perfbench: check " << name << " FAILED"
                << (why.empty() ? "" : ": " + why) << "\n";
  }
  /// Run `fn` as check `name`; an exception fails the check, not the run.
  template <typename Fn>
  void run(const std::string& name, Fn&& fn) {
    try {
      add(name, fn());
    } catch (const std::exception& e) {
      add(name, false, e.what());
    }
  }
};

/// Run `p` on `engine` at `env` over the seeded check inputs.
interp::Store run_small(const ir::Program& p, const ir::Env& env,
                        interp::Engine engine, const std::vector<double>& a) {
  interp::ExecEngine e(p, env, engine);
  load_matrix(e.store(), a);
  e.run();
  return e.store();
}

bool same_bits(const interp::Store& x, const interp::Store& y) {
  auto a = x.arrays.at("A").flat();
  auto b = y.arrays.at("A").flat();
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ---- Verification timing --------------------------------------------------

/// Time inside verify::VerifiedPipeline's callbacks, measured by two plain
/// observers stacked around it: the outer one fires first on before_pass
/// and last on after_pass, the inner one the other way round, so the gaps
/// between them are exactly the validator's snapshot and check work.
/// Analysis builds inside those gaps are tracked so they are not counted
/// twice.
struct VerifyClock {
  const analysis::AnalysisManager* am = nullptr;
  Clock::time_point mark;
  double mark_build = 0.0;
  double seconds = 0.0;
  double build_seconds = 0.0;

  void open() {
    mark = Clock::now();
    mark_build = am->stats().build_seconds;
  }
  void close() {
    seconds += since(mark);
    build_seconds += am->stats().build_seconds - mark_build;
  }
};

class GapObserver final : public transform::PassObserver {
 public:
  GapObserver(VerifyClock& clock, bool outer) : clock_(clock), outer_(outer) {}
  void before_pass(std::string_view, ir::StmtList&) override {
    outer_ ? clock_.open() : clock_.close();
  }
  void after_pass(std::string_view, ir::StmtList&, bool) override {
    outer_ ? clock_.close() : clock_.open();
  }

 private:
  VerifyClock& clock_;
  bool outer_;
};

// ---- The compile path -----------------------------------------------------

/// Everything one trip through the compiler leaves behind.
struct Compiled {
  std::unique_ptr<lang::CompileResult> parsed;  ///< owns the derived program
  ir::Program original;
  std::unique_ptr<pm::PipelineContext> ctx;
  bool verified = false;
  std::size_t verify_steps = 0;
  std::size_t verify_errors = 0;
  long stmts_out = 0;
  std::unique_ptr<native::Kernel> kernel;
  std::uint64_t compiles_at_load = 0;
  double seconds = 0.0;  ///< source text -> loaded kernel

  ir::Program& derived() { return parsed->program; }
};

/// Per-layer numbers of the traced compile.
struct LayerTimes {
  double parse = 0.0;
  std::map<std::string, double> stage;  ///< pm pass name -> seconds
  double verify = 0.0;
  double transform = 0.0;
  double emit = 0.0;
  double native_ctor = 0.0;
};

struct Setup {
  const Workload* w = nullptr;
  fs::path repo;
  std::string source;
  std::string golden;
  native::KernelCache* cache = nullptr;
};

void start_pipeline(const Setup& s, Compiled& c, pm::Pipeline& pipe) {
  pipe = pm::parse_pipeline(s.w->spec);
  c.original = c.derived().clone();
  analysis::Assumptions hints;
  for (const std::string& f : s.w->assumes) pm::add_fact(hints, f);
  c.ctx = std::make_unique<pm::PipelineContext>(c.derived(), hints);
  for (const std::string& g : s.w->caches)
    c.ctx->machine.push_back(model::parse_cache_config(g));
  c.ctx->latencies = s.w->latencies;
}

void finish_compile(const Setup& s, Compiled& c) {
  c.kernel = std::make_unique<native::Kernel>(c.derived(), "blk_kernel",
                                              s.cache);
  c.compiles_at_load = native::stats().compiles;
}

/// The untraced path, exactly as blk-opt runs it by default.
Compiled compile_plain(const Setup& s) {
  Compiled c;
  const auto t0 = Clock::now();
  c.parsed = std::make_unique<lang::CompileResult>(lang::compile(s.source));
  pm::Pipeline pipe;
  start_pipeline(s, c, pipe);
  {
    verify::VerifiedPipeline vp(c.derived());
    pm::RunReport report = pm::run_pipeline(pipe, *c.ctx);
    c.verified = vp.ok();
    c.verify_steps = vp.steps().size();
    c.verify_errors = vp.combined().error_count();
    c.stmts_out = report.passes.empty() ? 0 : report.passes.back().stmts_after;
  }
  finish_compile(s, c);
  c.seconds = since(t0);
  return c;
}

/// The same path with a span around every layer call.
Compiled compile_traced(const Setup& s, LayerTimes& lt) {
  Compiled c;
  const auto t0 = Clock::now();
  auto t = Clock::now();
  c.parsed = std::make_unique<lang::CompileResult>(lang::compile(s.source));
  lt.parse = since(t);
  pm::Pipeline pipe;
  start_pipeline(s, c, pipe);
  // run_pipeline arms commutativity when any stage names it; stage-at-a-
  // time runs must see it from the first stage on, as the whole run does.
  c.ctx->commutativity = pipe.uses_commutativity();

  VerifyClock vc;
  vc.am = &c.ctx->am;
  GapObserver outer(vc, true), inner(vc, false);
  struct Restore {  // pops all three observers, on exceptions too
    transform::PassObserver* prev;
    ~Restore() { transform::set_pass_observer(prev); }
  } restore{transform::set_pass_observer(&outer)};
  {
    verify::VerifiedPipeline vp(c.derived());
    transform::set_pass_observer(&inner);
    for (const pm::PassInvocation& inv : pipe.passes) {
      const double b0 = c.ctx->am.stats().build_seconds;
      const double v0 = vc.seconds, vb0 = vc.build_seconds;
      t = Clock::now();
      pm::RunReport r = pm::run_pipeline(pm::Pipeline{{inv}}, *c.ctx);
      const double span = since(t);
      lt.stage[inv.pass] += span;
      const double b = c.ctx->am.stats().build_seconds - b0;
      const double v = vc.seconds - v0, vb = vc.build_seconds - vb0;
      lt.verify += v - vb;
      // selectblock's own work is the model layer's (timed below).
      if (inv.pass != "selectblock") lt.transform += span - v + vb - b;
      if (!r.passes.empty()) c.stmts_out = r.passes.back().stmts_after;
    }
    transform::set_pass_observer(&vp);  // pop the inner observer
    c.verified = vp.ok();
    c.verify_steps = vp.steps().size();
    c.verify_errors = vp.combined().error_count();
  }

  t = Clock::now();
  const std::string src = ir::emit_c(
      c.derived(), "blk_kernel", {.scalar_io = true, .entry_wrapper = true});
  lt.emit = since(t);
  t = Clock::now();
  finish_compile(s, c);
  lt.native_ctor = since(t);
  if (src != c.kernel->source())
    throw Error("perfbench: emit_c differs from the kernel's own source");
  c.seconds = since(t0);
  return c;
}

// ---- Model / trace / cachesim re-run (traced only) ------------------------

/// The program's first top-level loop (the pipeline's default focus).
ir::Loop& first_loop(ir::Program& p) {
  for (auto& st : p.body)
    if (st->kind() == ir::SKind::Loop) return st->as_loop();
  throw Error("perfbench: program has no top-level loop");
}

struct ModelTimes {
  double analytic = 0.0, sweep = 0.0, synth = 0.0, replay = 0.0;
  std::uint64_t records = 0;
  double compression = 0.0, l1_miss_ratio = 0.0, amat = 0.0;
  bool agrees = false;  ///< the re-run reproduces selectblock's table
};

/// Repeat selectblock's model and sweep on the original program with the
/// layers' public entry points (and a private TraceStore), then trace and
/// replay the chosen block size once more for the cache-level numbers.
ModelTimes rerun_model(const Workload& w, Compiled& c) {
  const model::BlockChoice& choice = *c.ctx->block_choice;
  ModelTimes mt;
  model::MachineParams machine;
  machine.levels = c.ctx->machine;
  machine.latencies = w.latencies;
  ir::Env probe_env;
  for (const std::string& p : c.original.params())
    if (p != choice.ks_name) probe_env[p] = choice.probe;

  ir::Program orig = c.original.clone();
  auto t = Clock::now();
  model::AnalyticModel am = model::build_analytic_model(
      orig.body, first_loop(orig), choice.ks_name, probe_env, machine);
  mt.analytic = since(t);

  // The blocked clone selectblock sweeps: autoblock under the full-block
  // hint, with the factor as a runtime scalar.
  ir::Program blocked = c.original.clone();
  {
    transform::ObserverMute mute;
    analysis::Assumptions hints;
    for (const std::string& f : w.assumes) pm::add_fact(hints, f);
    ir::Loop& f = first_loop(blocked);
    hints.assert_le(ir::isub(ir::iadd(ir::ivar(f.var), ir::ivar(choice.ks_name)),
                             ir::iconst(1)),
                    f.ub);
    pm::PipelineContext bctx(blocked, hints);
    (void)pm::run_pipeline(
        pm::parse_pipeline("autoblock(b=" + choice.ks_name + ")"), bctx);
  }
  blocked.scalar(choice.ks_name);

  model::SweepOptions so;
  for (const auto& row : choice.table) so.candidates.push_back(row.ks);
  so.ks_scalar = choice.ks_name;
  so.probe_params = probe_env;
  so.levels = machine.levels;
  so.latencies = machine.latencies;
  so.workers = kSweepWorkers;
  trace::TraceStore store;
  so.store = &store;
  t = Clock::now();
  model::SweepResult sw = model::sweep_block_sizes(blocked, so);
  mt.sweep = since(t);
  mt.agrees = sw.rows.size() == choice.table.size() &&
              am.candidates() == choice.candidates;
  for (std::size_t i = 0; mt.agrees && i < sw.rows.size(); ++i)
    mt.agrees = sw.rows[i].metric == choice.table[i].metric;

  ir::Env env = probe_env;
  env[choice.ks_name] = choice.ks;
  t = Clock::now();
  trace::EncodedTrace tr = trace::synthesize_or_record(blocked, env, 42);
  mt.synth = since(t);
  mt.records = tr.records;
  mt.compression = tr.compression_ratio();
  trace::ReplayOptions ro;
  ro.levels = machine.levels;
  ro.workers = kSweepWorkers;
  t = Clock::now();
  trace::ReplayResult rr = trace::replay(tr, ro);
  mt.replay = since(t);
  mt.l1_miss_ratio = rr.levels.at(0).miss_ratio();
  mt.amat = rr.amat(machine.latencies);
  return mt;
}

// ---- Output ---------------------------------------------------------------

/// A JSON number with every measured digit; null for n/a (NaN).
std::string fmt(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

class Json {
 public:
  void num(const std::string& k, double v) {
    key(k);
    os_ << fmt(v);
  }
  void str(const std::string& k, const std::string& v) {
    key(k);
    os_ << '"' << v << '"';
  }
  void raw(const std::string& k, const std::string& v) {
    key(k);
    os_ << v;
  }
  [[nodiscard]] std::string done() const { return "{" + os_.str() + "}"; }

 private:
  void key(const std::string& k) {
    if (!first_) os_ << ", ";
    first_ = false;
    os_ << '"' << k << "\": ";
  }
  std::ostringstream os_;
  bool first_ = true;
};

std::string list_json(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + fmt(v[i]);
  return out + "]";
}

std::string hex(std::uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double kernel_flops(const Workload& w, long n) {
  const double dn = static_cast<double>(n);
  if (w.inputs == Inputs::Integers) return std::pow(dn, kDeepNest);
  return 2.0 * dn * dn * dn / 3.0;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p);
  if (!in) throw Error("perfbench: cannot read " + p.string());
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

int run(int argc, char** argv) {
  std::string name, repo = ".", cache_dir;
  std::uint64_t seed = 1;
  bool traced = false, setup_only = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw Error("perfbench: " + a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") name = value();
    else if (a == "--seed") seed = std::stoull(value());
    else if (a == "--repo") repo = value();
    else if (a == "--cache-dir") cache_dir = value();
    else if (a == "--traced") traced = true;
    else if (a == "--setup-only") setup_only = true;
    else throw Error("perfbench: unknown argument " + a);
  }
  const Workload* w = nullptr;
  for (const Workload& x : workloads())
    if (x.name == name) w = &x;
  if (!w) throw Error("perfbench: unknown workload '" + name + "'");
  if (cache_dir.empty()) throw Error("perfbench: --cache-dir is required");

  // ---- Set-up: source, private kernel cache, toolchain, inputs.
  Setup s;
  s.w = w;
  s.repo = repo;
  s.source = w->source_file.empty() ? deep_nest_source()
                                    : read_file(s.repo / w->source_file);
  if (!w->golden.empty()) s.golden = read_file(s.repo / w->golden);
  fs::create_directories(cache_dir);
  ::setenv("BLK_NATIVE_CACHE_DIR", cache_dir.c_str(), 1);  // checks' kernels
  native::KernelCache cache(cache_dir);
  s.cache = &cache;
  if (!native::available()) throw Error("perfbench: no host C toolchain");
  const long n = w->run_env.at("N");
  const long check_n = w->check_env.at("N");
  const std::vector<double> input = make_matrix(w->inputs, n, seed);
  const std::vector<double> input_b = make_matrix(w->inputs, n, seed + 1);
  const std::vector<double> check_input =
      make_matrix(w->inputs, check_n, seed);
  std::cout << "ready" << std::endl;
  if (setup_only) return 0;

  // ---- Compile.
  LayerTimes lt;
  Compiled c = traced ? compile_traced(s, lt) : compile_plain(s);
  ir::Program& derived = c.derived();
  const std::string printed = ir::print(derived);
  ir::Env run_env = w->run_env, check_env = w->check_env;
  for (const auto& [k, v] : c.ctx->resolved) {
    run_env.insert({k, v});
    check_env.insert({k, v});
  }

  // ---- Run.  The traced run alternates the run's inputs with another
  // seed's, to show that run time does not depend on the seed.
  interp::Store store = interp::make_store(derived, run_env);
  BoundKernel bk(*c.kernel, store, run_env);
  std::vector<const std::vector<double>*> inputs = {&input};
  if (traced) inputs.push_back(&input_b);
  double run_span = 0.0;
  const auto run_times = time_calls(bk, store, inputs, run_span);
  const std::vector<double>& run_s = run_times.front();

  // ---- Checks.
  Checks checks;
  checks.add("verify", c.verified && c.verify_errors == 0);
  checks.add("cold_kernel_cache",
             !c.kernel->timings().cache_hit && c.compiles_at_load >= 1);
  const model::BlockChoice* choice =
      c.ctx->block_choice ? &*c.ctx->block_choice : nullptr;
  if (choice) checks.add("cold_trace_store", choice->store_hits == 0);
  if (w->tolerance_check)
    checks.add("selectblock_tolerance",
               choice && choice->swept && choice->within_tolerance(0.10));
  if (!w->golden.empty()) checks.add("golden", printed == s.golden);
  checks.run("run_output", [&] {
    return output_correct(w->inputs, n, *inputs.back(),
                          store.arrays.at("A").flat(), seed);
  });
  const auto t_check = Clock::now();
  const std::size_t before_vm = checks.results.size();
  checks.run("derived_vs_original_vm", [&] {
    return same_bits(
        run_small(c.original, check_env, interp::Engine::Vm, check_input),
        run_small(derived, check_env, interp::Engine::Vm, check_input));
  });
  for (const auto& [label, prog] :
       {std::pair<const char*, const ir::Program*>{"original", &c.original},
        {"derived", &derived}})
    checks.run(std::string("vm_vs_native_") + label, [&] {
      return same_bits(
          run_small(*prog, check_env, interp::Engine::Vm, check_input),
          run_small(*prog, check_env, interp::Engine::Native, check_input));
    });
  const double check_s = since(t_check);
  const std::size_t vm_checks = checks.results.size() - before_vm;

  Json out;
  out.str("workload", w->name);
  out.str("mode", traced ? "traced" : "plain");
  out.num("compile_s", c.seconds);
  out.raw("run_s", list_json(run_s));
  out.num("peak_rss_mb", peak_rss_mb());
  out.str("ir_hash", hex(trace::fnv1a(printed)));
  {
    Json counts;
    counts.num("pm.stmts_out", static_cast<double>(c.stmts_out));
    counts.num("model.ks", choice ? static_cast<double>(choice->ks) : 0.0);
    counts.num("codegen.c_bytes",
               static_cast<double>(c.kernel->source().size()));
    counts.num("analysis.hits",
               static_cast<double>(c.ctx->am.stats().hits()));
    counts.num("analysis.misses",
               static_cast<double>(c.ctx->am.stats().misses()));
    out.raw("counts", counts.done());
  }

  if (traced) {
    const double na = std::nan("");
    Json L;
    L.num("lang.parse_s", lt.parse);
    for (const char* st : {"stripmine", "split", "distribute", "interchange",
                           "selectblock", "autoblockplus"}) {
      auto it = lt.stage.find(st);
      L.num(std::string("pm.") + st + "_s",
            it == lt.stage.end() ? na : it->second);
    }
    L.num("pm.stmts_out", static_cast<double>(c.stmts_out));
    const auto& as = c.ctx->am.stats();
    const double lookups = static_cast<double>(as.hits() + as.misses());
    L.num("analysis.build_s", as.build_seconds);
    L.num("analysis.hits", static_cast<double>(as.hits()));
    L.num("analysis.misses", static_cast<double>(as.misses()));
    L.num("analysis.hit_ratio",
          lookups > 0 ? static_cast<double>(as.hits()) / lookups : na);
    {
      // One uncached dependence graph of the input's outermost loop.
      ir::Program p = c.original.clone();
      analysis::Assumptions hints;
      for (const std::string& f : w->assumes) pm::add_fact(hints, f);
      ir::Loop& outer = first_loop(p);
      const auto t = Clock::now();
      analysis::DepGraph g(p.body, outer, &hints);
      L.num("analysis.depgraph_s", since(t));
      L.num("analysis.depgraph_edges", static_cast<double>(g.edges().size()));
    }
    L.num("transform.self_s", lt.transform);
    L.num("verify.self_s", lt.verify);
    L.num("verify.passes", static_cast<double>(c.verify_steps));
    L.num("verify.errors", static_cast<double>(c.verify_errors));

    std::optional<ModelTimes> mt;
    if (choice) {
      mt = rerun_model(*w, c);
      checks.add("model_rerun_agrees", mt->agrees);
    }
    auto m = [&](double ModelTimes::*f) { return mt ? (*mt).*f : na; };
    L.num("model.analytic_s", m(&ModelTimes::analytic));
    L.num("model.sweep_s", m(&ModelTimes::sweep));
    L.num("model.candidates",
          choice ? static_cast<double>(choice->table.size()) : na);
    L.num("model.ks", choice ? static_cast<double>(choice->ks) : na);
    L.num("model.gap",
          choice && choice->best_swept_metric > 0
              ? choice->chosen_metric / choice->best_swept_metric - 1.0
              : na);
    L.num("trace.synth_s", m(&ModelTimes::synth));
    L.num("trace.replay_s", m(&ModelTimes::replay));
    L.num("trace.records", mt ? static_cast<double>(mt->records) : na);
    L.num("trace.compression", m(&ModelTimes::compression));
    L.num("trace.store_hits",
          choice ? static_cast<double>(choice->store_hits) : na);
    L.num("trace.store_misses",
          choice ? static_cast<double>(choice->store_misses) : na);
    L.num("cachesim.l1_miss_ratio", m(&ModelTimes::l1_miss_ratio));
    L.num("cachesim.amat", m(&ModelTimes::amat));

    L.num("codegen.emit_s", lt.emit);
    L.num("codegen.c_bytes", static_cast<double>(c.kernel->source().size()));
    const native::KernelTimings& kt = c.kernel->timings();
    L.num("native.cc_s", kt.compile_seconds);
    L.num("native.load_s", kt.load_seconds);
    L.num("native.so_bytes",
          static_cast<double>(fs::file_size(c.kernel->so_path())));
    L.num("native.compiles", static_cast<double>(c.compiles_at_load));
    const double run_med = median(run_s);
    L.num("native.run_s", run_med);
    L.num("native.run_s_other_seed", median(run_times.back()));
    L.num("native.gflops", kernel_flops(*w, n) / run_med / 1e9);
    {
      // The point (source) program compiled and timed the same way.
      native::Kernel point(c.original, "blk_point", &cache);
      interp::Store ps = interp::make_store(c.original, run_env);
      BoundKernel pk(point, ps, run_env);
      double busy = 0.0;
      const double pt = median(time_calls(pk, ps, {&input}, busy).front());
      L.num("native.point_run_s", pt);
      L.num("native.speedup_vs_point", pt / run_med);
    }
    L.num("interp.check_s", check_s);
    L.num("interp.checks", static_cast<double>(vm_checks));

    // Span coverage of the traced compile + run: every top-level span.
    double spans = lt.parse + lt.emit + lt.native_ctor + run_span;
    for (const auto& [k, v] : lt.stage) spans += v;
    const double covered = spans / (c.seconds + run_span);
    L.num("bench.span_coverage", covered);
    checks.add("span_coverage", covered >= 0.90);
    out.raw("layers", L.done());
    if (mt) out.num("trace_records", static_cast<double>(mt->records));
  }

  Json cj;
  for (const auto& [k, ok] : checks.results) cj.raw(k, ok ? "true" : "false");
  out.raw("checks", cj.done());
  std::cout << out.done() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "blk-perfbench: " << e.what() << "\n";
    return 1;
  }
}
