#include "native/engine.hpp"

#include <chrono>
#include <mutex>
#include <sstream>

#include "ir/codegen.hpp"
#include "ir/error.hpp"

namespace blk::native {

namespace {

struct Registry {
  std::mutex mu;
  Stats totals;
  std::vector<KernelTimings> kernels;
};

Registry& registry() {
  static Registry r;
  return r;
}

void record_construction(const KernelTimings& t) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  ++r.totals.kernels;
  if (t.cache_hit)
    ++r.totals.cache_hits;
  else
    ++r.totals.compiles;
  r.totals.compile_seconds += t.compile_seconds;
  r.totals.load_seconds += t.load_seconds;
  r.kernels.push_back(t);
}

void record_run(const std::string& key, double seconds) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  ++r.totals.runs;
  r.totals.run_seconds += seconds;
  for (auto it = r.kernels.rbegin(); it != r.kernels.rend(); ++it) {
    if (it->key == key) {
      ++it->runs;
      it->run_seconds += seconds;
      break;
    }
  }
}

}  // namespace

Kernel::Kernel(const ir::Program& p, const std::string& fn_name,
               KernelCache* cache, const ir::ParallelOptions* parallel,
               int opt_level) {
  const Toolchain* tc = toolchain();
  if (!tc)
    throw Error(
        "native: no host C toolchain (install cc or set BLK_NATIVE_CC); "
        "use the VM engine instead");
  // Hot-tier builds swap -O2 for -O3 -funroll-loops (measured on the LU
  // kernels: -O3 alone helps point LU but regresses blocked LU under
  // gcc's vectorizer; adding -funroll-loops wins on both).  The flag set
  // is part of Toolchain::id(), so the levels never alias in the cache.
  Toolchain hot_tc;
  if (opt_level != 2) {
    hot_tc = *tc;
    for (auto& f : hot_tc.flags)
      if (f == "-O2") f = "-O" + std::to_string(opt_level);
    hot_tc.flags.push_back("-funroll-loops");
    tc = &hot_tc;
  }

  param_names_ = p.params();
  for (const auto& [name, decl] : p.arrays()) array_names_.push_back(name);
  for (const auto& sc : p.scalars())
    if (!p.is_temporary(sc)) scalar_names_.push_back(sc);

  source_ = ir::emit_c(
      p, fn_name,
      {.scalar_io = true, .entry_wrapper = true, .parallel = parallel});
  KernelCache& kc = cache ? *cache : default_cache();
  CompileOutcome out = kc.get_or_compile(source_, *tc);
  so_path_ = out.so_path;
  module_ = std::make_unique<Module>(out.so_path);
  entry_ = reinterpret_cast<EntryFn>(module_->sym(fn_name + "_entry"));
  if (!entry_)
    throw Error("native: compiled object " + out.so_path +
                " does not export " + fn_name + "_entry");

  timings_.key = out.key;
  timings_.fn = fn_name;
  timings_.cache_hit = out.cache_hit;
  timings_.compile_seconds = out.compile_seconds;
  timings_.load_seconds = module_->load_seconds();
  record_construction(timings_);
}

void Kernel::call(const long* params, double* const* arrays,
                  double* scalars) {
  const auto t0 = std::chrono::steady_clock::now();
  entry_(params, arrays, scalars);
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ++timings_.runs;
  timings_.run_seconds += s;
  record_run(timings_.key, s);
}

Stats stats() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.totals;
}

void reset_stats() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.totals = Stats{};
  r.kernels.clear();
}

std::vector<KernelTimings> kernel_stats() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.kernels;
}

std::string stats_json() {
  const Stats t = stats();
  const std::vector<KernelTimings> ks = kernel_stats();
  std::ostringstream os;
  os.precision(9);
  os << "{\"kernels_built\": " << t.kernels
     << ", \"compiles\": " << t.compiles
     << ", \"cache_hits\": " << t.cache_hits << ", \"runs\": " << t.runs
     << ", \"compile_seconds\": " << t.compile_seconds
     << ", \"load_seconds\": " << t.load_seconds
     << ", \"run_seconds\": " << t.run_seconds << ", \"kernels\": [";
  for (std::size_t i = 0; i < ks.size(); ++i) {
    const KernelTimings& k = ks[i];
    os << (i ? ", " : "") << "{\"key\": \"" << k.key << "\", \"fn\": \""
       << k.fn << "\", \"cache_hit\": " << (k.cache_hit ? "true" : "false")
       << ", \"compile_seconds\": " << k.compile_seconds
       << ", \"load_seconds\": " << k.load_seconds
       << ", \"runs\": " << k.runs
       << ", \"run_seconds\": " << k.run_seconds << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace blk::native
