// The paper's timing tables (T1-T5), the A2 block-size sweep and the A3
// Householder comparison on the compiler's own output: every derived row
// runs the pm spec that produces the paper's variant from a point program
// (kernels::*_ir()) under verify::VerifiedPipeline and compiles it at the
// native hot tier (opt_level 3: -O3 -funroll-loops).  The block algorithms
// the compiler cannot derive (T3's Sorensen "1", A3's compact-WY
// Householder) are §6 BLOCK DO programs from tools/examples, their factor
// BS_K bound to the table's KS.  Hand C++ rows remain only where the
// compiler does not yet match them.  Gates run before any timing, for every
// row whatever --benchmark_filter selects, and any failure exits 1: each
// derivation verifies, each row's program (or hand kernel) is bitwise
// equal to its table's point program on the VM at a small binding, or
// within the row's tolerance where it reassociates, and each native kernel
// is bitwise equal to the VM there.  Writes BENCH_paper.json
// (--bench_json=).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "bench/benchutil.hpp"
#include "interp/vm.hpp"
#include "ir/error.hpp"
#include "ir/printer.hpp"
#include "kernels/conv.hpp"
#include "kernels/ir_kernels.hpp"
#include "kernels/matmul.hpp"
#include "kernels/qr_givens.hpp"
#include "lang/parser.hpp"
#include "native/engine.hpp"
#include "pm/runner.hpp"
#include "pm/spec.hpp"
#include "verify/pipeline.hpp"

namespace {

using namespace blk;
using kernels::Matrix;
using Args = std::vector<long>;

/// One binding of a table: parameter values plus the inputs every row
/// starts from.  Matrix, Signal and interp::Tensor share the column-major
/// layout, so derived kernels run on these buffers directly.
struct Inputs {
  ir::Env env{};
  Matrix a{}, b{}, c{};         ///< LU and Givens: A; guarded matmul: A, B, C
  kernels::ConvProblem conv{};  ///< T1: F1, F2, F3 and DT
};

/// The non-empty input arrays under their IR names.
std::map<std::string, std::span<double>> views(Inputs& in) {
  std::map<std::string, std::span<double>> all{
      {"A", in.a.flat()},        {"B", in.b.flat()},
      {"C", in.c.flat()},        {"F1", in.conv.f1.flat()},
      {"F2", in.conv.f2.flat()}, {"F3", in.conv.f3.flat()}};
  std::erase_if(all, [](const auto& kv) { return kv.second.empty(); });
  return all;
}

struct Derived {
  ir::Program prog;
  std::unique_ptr<native::Kernel> kernel;
};

struct Variant {
  std::string name;                   ///< column label
  ir::Program (*source)() = nullptr;  ///< derived rows: the point program
  std::string spec{};                 ///< pm spec ("" = the source as is)
  std::size_t reads = 0;  ///< leading size args the row depends on (0: all)
  void (*hand)(Inputs&) = nullptr;  ///< hand rows: the C++ kernel
  double tol = 0.0;  ///< allowed distance from the point row (0: bitwise)
  Derived* derived = nullptr;
};

Variant ir_row(std::string name, ir::Program (*source)(),
               std::string spec = "", std::size_t reads = 0) {
  return {.name = std::move(name), .source = source, .spec = std::move(spec),
          .reads = reads};
}

struct Table {
  std::string id, title;
  std::function<Inputs(const Args&)> make;
  std::vector<Args> sizes;
  Args gate;                          ///< the small binding gates run at
  std::vector<Variant> variants;      ///< [0] is the point row
  std::vector<std::string> facts{};   ///< pipeline assumptions
  /// The kernels overwrite their inputs, so each call starts from a copy
  /// restored outside the timed region.  Accumulating kernels (convolution,
  /// matmul) run back to back instead: their calls take microseconds, which
  /// pausing the timer would swamp.
  bool restore = false;
  std::string refused{};  ///< a spec the compiler must refuse (T2's UJ)
};

/// A §6 BLOCK DO program from tools/examples, compiled with its factor
/// BS_K left symbolic: the tables bind it to their KS.
ir::Program example(const std::string& file) {
  return lang::compile(lang::read_source(BLK_EXAMPLES_DIR "/" + file))
      .program;
}

Inputs square(long n, std::uint64_t seed, double diag_boost, long ks = 1) {
  Inputs in{.env = {{"N", n}, {"M", n}, {"KS", ks}, {"BS_K", ks}},
            .a = Matrix(n, n)};
  kernels::fill_random(in.a, seed);
  for (long i = 0; i < n; ++i) in.a(i, i) += diag_boost;
  return in;
}

/// T1: one convolution's point, derived optconv and hand rows.
Table conv_table(std::string id, std::string title, ir::Program (*source)(),
                 kernels::ConvProblem (*problem)(long, std::uint64_t),
                 std::uint64_t seed, void (*hand)(Inputs&)) {
  auto make = [problem, seed](const Args& s) {
    Inputs in{.conv = problem(s[0], seed)};
    in.env = {{"N1", in.conv.n1}, {"N2", in.conv.n2}, {"N3", in.conv.n3}};
    return in;
  };
  return {.id = std::move(id), .title = std::move(title), .make = make,
          .sizes = {{300}, {500}, {2000}}, .gate = {24},
          .variants = {ir_row("point", source),
                       ir_row("optconv", source, "optconv(u=4)"),
                       {.name = "hand-optconv", .hand = hand, .tol = 1e-12}}};
}

std::vector<Table> make_tables() {
  const std::vector<std::string> block = {"K+KS-1<=N-1"};
  const std::vector<Args> lu = {{300, 32}, {300, 64},  {500, 32},
                                {500, 64}, {1000, 32}, {1000, 64}};
  const std::vector<Args> sweep = {
      {500, 8}, {500, 16}, {500, 32}, {500, 64}, {500, 128}};
  auto lu_in = [](const Args& s) { return square(s[0], 3, s[0], s[1]); };
  auto pivot_in = [](const Args& s) { return square(s[0], 7, 0, s[1]); };
  const std::string plus = "autoblockplus(b=KS, u=4)";
  const std::string pivot_plus = "autoblockplus(b=KS, u=4, commutativity)";
  using kernels::lu_point_ir, kernels::lu_pivot_point_ir;
  return {
      conv_table("T1/aconv", "adjoint convolution (paper: 1.80-1.87x)",
                 kernels::aconv_ir, kernels::ConvProblem::make_aconv, 5,
                 [](Inputs& in) { kernels::aconv_opt(in.conv); }),
      conv_table("T1/conv", "convolution (paper: 1.82-1.91x)",
                 kernels::conv_ir, kernels::ConvProblem::make_conv, 6,
                 [](Inputs& in) { kernels::conv_opt(in.conv); }),
      {.id = "T2",
       .title = "guarded matmul, N/frequency(0.1%)/run length (paper: UJ "
                "slower, UJ+IF ~1.45x)",
       .make = [](const Args& s) {
         Inputs in = square(s[0], 17, 0);
         in.b = kernels::make_guard_matrix(s[0], s[1] / 1000.0, s[2], 18);
         in.c = Matrix(s[0], s[0]);
         return in;
       },
       .sizes = {{300, 25, 8}, {300, 100, 8}, {300, 25, 1}, {300, 100, 1}},
       .gate = {24, 250, 8},
       .variants = {ir_row("original", kernels::matmul_guarded_ir),
                    ir_row("UJ+IF", kernels::matmul_guarded_ir,
                           "focus(var=K); ifinspect; focus(var=K, index=1); "
                           "unrolljam(u=4)"),
                    {.name = "hand-UJ",
                     .hand = [](Inputs& in) {
                       kernels::matmul_uj_guard_inside(in.a, in.b, in.c);
                     },
                     .tol = 1e-11},
                    {.name = "hand-UJ+IF",
                     .hand = [](Inputs& in) {
                       kernels::matmul_uj_ifinspect(in.a, in.b, in.c);
                     },
                     .tol = 1e-11}},
       .refused = "focus(var=K); unrolljam(u=4)"},
      {.id = "T3", .title = "LU without pivoting (paper: 2.53-3.17x for 2+)",
       .make = lu_in, .sizes = lu, .gate = {24, 5},
       .variants = {ir_row("point", lu_point_ir, "", 1),
                    ir_row("1", [] { return example("lu_sorensen.f"); }),
                    ir_row("2", lu_point_ir, "autoblock(b=KS)"),
                    ir_row("2+", lu_point_ir, plus)},
       .facts = block, .restore = true},
      {.id = "T4", .title = "LU with pivoting (paper: 2.27-2.72x for 1+)",
       .make = pivot_in, .sizes = lu, .gate = {24, 5},
       .variants = {ir_row("point", lu_pivot_point_ir, "", 1),
                    ir_row("1", lu_pivot_point_ir,
                           "stripmine(b=KS); split; "
                           "distribute(commutativity); interchange"),
                    ir_row("1+", lu_pivot_point_ir, pivot_plus)},
       .facts = block, .restore = true},
      {.id = "T5", .title = "Givens QR (paper: 2.04x at 300, 5.49x at 500)",
       .make = [](const Args& s) { return square(s[0], 9, 0); },
       .sizes = {{300}, {500}, {1000}}, .gate = {24},
       .variants = {ir_row("point", kernels::givens_qr_ir),
                    ir_row("optgivens", kernels::givens_qr_ir, "optgivens"),
                    {.name = "hand-optgivens",
                     .hand = [](Inputs& in) { kernels::givens_qr_opt(in.a); },
                     .tol = 1e-10}},
       .restore = true},
      {.id = "A3",
       .title = "Householder QR, compact-WY BLOCK DO (§5.3: underivable)",
       .make = [](const Args& s) { return square(s[0], 29, 0, s[1]); },
       .sizes = {{300, 16}, {300, 32}, {500, 16}, {500, 32}, {1000, 16},
                 {1000, 32}},
       .gate = {24, 5},
       .variants = {ir_row("point", [] { return example("householder.f"); },
                           "", 1),
                    // Applying the block's reflectors at once reassociates
                    // the trailing update.
                    {.name = "WY",
                     .source = [] { return example("householder_wy.f"); },
                     .tol = 1e-12}},
       .restore = true},
      {.id = "A2/lu", .title = "block-size sweep, LU 2+", .make = lu_in,
       .sizes = sweep, .gate = {24, 5},
       .variants = {ir_row("point", lu_point_ir, "", 1),
                    ir_row("2+", lu_point_ir, plus)},
       .facts = block, .restore = true},
      {.id = "A2/lu_pivot", .title = "block-size sweep, pivoted LU 1+",
       .make = pivot_in, .sizes = sweep, .gate = {24, 5},
       .variants = {ir_row("point", lu_pivot_point_ir, "", 1),
                    ir_row("1+", lu_pivot_point_ir, pivot_plus)},
       .facts = block, .restore = true},
  };
}

/// Derive `v` under translation validation and compile it at the hot
/// tier.  Memoized: the A2 rows reuse T3's and T4's kernels.
Derived& derive(const Variant& v, const std::vector<std::string>& facts) {
  static std::map<std::string, Derived> memo;
  ir::Program p = v.source();
  std::string key = ir::print(p.body) + "|" + v.spec;
  for (const auto& f : facts) key += "|" + f;
  if (auto it = memo.find(key); it != memo.end()) return it->second;
  if (!v.spec.empty()) {
    analysis::Assumptions hints;
    for (const auto& f : facts) pm::add_fact(hints, f);
    verify::VerifiedPipeline vp(p);
    (void)pm::run_spec(p, v.spec, hints);
    if (!vp.ok()) throw Error("verification failed:\n" + vp.to_string());
  }
  auto kernel =
      std::make_unique<native::Kernel>(p, "blk_kernel", nullptr, nullptr, 3);
  return memo[key] = Derived{std::move(p), std::move(kernel)};
}

/// The row's kernel bound to `in`.  A derived kernel reads and writes the
/// input buffers in place; the compiler's temporaries get their own.
std::function<void()> bind(const Variant& v, Inputs& in) {
  if (v.hand) return [&v, &in] { v.hand(in); };
  native::Kernel& k = *v.derived->kernel;
  auto temps = std::make_shared<interp::Store>(
      interp::make_store(v.derived->prog, in.env));
  auto named = views(in);
  std::vector<long> params;
  for (const auto& name : k.param_names()) params.push_back(in.env.at(name));
  std::vector<double*> arrays;
  for (const auto& name : k.array_names()) {
    std::span<double> buf = temps->arrays.at(name).flat();
    if (auto it = named.find(name); it != named.end()) {
      if (it->second.size() != buf.size())
        throw Error("input " + name + " does not match its declaration");
      buf = it->second;
    }
    arrays.push_back(buf.data());
  }
  std::vector<double> init(k.scalar_names().size() + 1, 0.0);
  for (std::size_t i = 0; i < k.scalar_names().size(); ++i)
    if (k.scalar_names()[i] == "DT") init[i] = in.conv.dt;
  return [&k, temps, params, arrays, init, scalars = init]() mutable {
    scalars = init;
    k.call(params.data(), arrays.data(), scalars.data());
  };
}

/// Run `p` on the VM over a copy of `in`.
Inputs run_vm(const ir::Program& p, const Inputs& in) {
  Inputs out = in;
  interp::ExecEngine e(p, in.env);
  auto named = views(out);
  for (auto& [name, t] : e.store().arrays)
    if (named.contains(name)) std::ranges::copy(named[name], t.flat().begin());
  if (e.store().scalars.contains("DT")) e.store().scalars["DT"] = in.conv.dt;
  e.run();
  for (auto& [name, t] : e.store().arrays)
    if (named.contains(name)) std::ranges::copy(t.flat(), named[name].begin());
  return out;
}

/// Largest |x - y| over the inputs; NaN compares as infinitely far.
double max_diff(Inputs& x, Inputs& y) {
  auto ys = views(y);
  double worst = 0.0;
  for (auto& [name, xs] : views(x))
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const double d = std::fabs(xs[i] - ys.at(name)[i]);
      worst = std::isnan(d) ? INFINITY : std::max(worst, d);
    }
  return worst;
}

bool bitwise_equal(Inputs& x, Inputs& y) {
  auto ys = views(y);
  return std::ranges::all_of(views(x), [&](const auto& kv) {
    return std::memcmp(kv.second.data(), ys.at(kv.first).data(),
                       kv.second.size_bytes()) == 0;
  });
}

/// Derive every row and run the gates; returns the failures and records
/// each expected refusal as a JSON member in `refusals`.
std::vector<std::string> derive_and_gate(std::vector<Table>& tables,
                                         std::string& refusals) {
  std::vector<std::string> failed;
  for (Table& t : tables) {
    try {
      Inputs g = t.make(t.gate);
      Inputs ref = run_vm(t.variants[0].source(), g);
      for (Variant& v : t.variants) {
        const std::string row = t.id + "/" + v.name + ": ";
        if (!v.hand) v.derived = &derive(v, t.facts);
        Inputs out = g;
        bind(v, out)();
        Inputs vm = v.hand ? out : run_vm(v.derived->prog, g);
        if (v.tol > 0 ? !(max_diff(vm, ref) <= v.tol)
                      : !bitwise_equal(vm, ref))
          failed.push_back(row + "off the point row by " +
                           std::to_string(max_diff(vm, ref)));
        if (!bitwise_equal(out, vm))
          failed.push_back(row + "native kernel differs from the VM");
      }
      if (t.refused.empty()) continue;
      ir::Program p = t.variants[0].source();
      try {
        (void)pm::run_spec(p, t.refused);
        failed.push_back(t.id + ": '" + t.refused + "' was not refused");
      } catch (const Error& e) {
        refusals += (refusals.empty() ? "\"" : ", \"") + t.id +
                    "\": {\"spec\": \"" + t.refused + "\", \"error\": \"" +
                    e.what() + "\"}";
      }
    } catch (const std::exception& e) {
      failed.push_back(t.id + ": " + e.what());
    }
  }
  return failed;
}

/// "500/32": the first `n` size arguments (0: all).
std::string label(const Args& s, std::size_t n = 0) {
  std::string out = std::to_string(s[0]);
  for (std::size_t i = 1; i < (n ? n : s.size()); ++i)
    out.append("/").append(std::to_string(s[i]));
  return out;
}

std::string row_name(const Table& t, const Variant& v, const Args& s) {
  return t.id + "/" + v.name + "/" + label(s, v.reads);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json =
      blk::bench::extract_json_path(argc, argv, "BENCH_paper.json");
  std::vector<Table> tables = make_tables();
  std::string refusals;
  const std::vector<std::string> failed = derive_and_gate(tables, refusals);
  for (const auto& f : failed)
    std::fprintf(stderr, "gate failed: %s\n", f.c_str());
  if (!failed.empty()) return 1;

  // One input set per (table, size), shared read-only by its rows.
  std::vector<std::vector<Inputs>> inputs(tables.size());
  std::set<std::string> registered;
  std::vector<std::pair<std::string, std::string>> rows;  // name, point row
  for (std::size_t ti = 0; ti < tables.size(); ++ti) {
    const Table& t = tables[ti];
    for (const Args& s : t.sizes) inputs[ti].push_back(t.make(s));
    for (std::size_t si = 0; si < t.sizes.size(); ++si)
      for (const Variant& v : t.variants) {
        const std::string name = row_name(t, v, t.sizes[si]);
        if (!registered.insert(name).second) continue;
        rows.emplace_back(name, row_name(t, t.variants[0], t.sizes[si]));
        Inputs& orig = inputs[ti][si];
        benchmark::RegisterBenchmark(
            name.c_str(),
            [&v, &orig, restore = t.restore](benchmark::State& st) {
              Inputs work = orig;
              std::function<void()> call = bind(v, work);
              auto src = views(orig), dst = views(work);
              for (auto _ : st) {
                if (restore) {
                  st.PauseTiming();
                  for (auto& [n, buf] : src)
                    std::ranges::copy(buf, dst.at(n).begin());
                  st.ResumeTiming();
                }
                call();
                benchmark::DoNotOptimize(dst.begin()->second.data());
                benchmark::ClobberMemory();
              }
            })
            ->Unit(benchmark::kMillisecond);
      }
  }

  auto rep = blk::bench::run_all(argc, argv);

  for (const Table& t : tables) {
    std::vector<std::string> head{"Size"};
    for (const Variant& v : t.variants) head.push_back(v.name + " (speedup)");
    blk::bench::Table out(head);
    for (const Args& s : t.sizes) {
      std::vector<std::string> cells{label(s)};
      const double point = rep.get(row_name(t, t.variants[0], s));
      for (const Variant& v : t.variants) {
        const double sec = rep.get(row_name(t, v, s));
        cells.push_back(blk::bench::fmt_time(sec) + " (" +
                        blk::bench::fmt_speedup(point, sec) + ")");
      }
      out.row(cells);
    }
    out.print(t.id + ": " + t.title + "; speedup over point in ()");
  }

  blk::bench::JsonWriter jw(json);
  for (const auto& [name, point] : rows) {
    const double sec = rep.get(name);
    if (sec <= 0) continue;  // filtered out
    const double base = name == point ? -1.0 : rep.get(point);
    jw.row(name, sec, base > 0 ? base / sec : -1.0);
  }
  jw.extra("gates", "{\"passed\": true, \"refused\": {" + refusals + "}}");
  if (jw.write()) std::printf("\nwrote %s\n", json.c_str());
  return 0;
}
