// The native execution backend: IR program -> emitted C -> host-compiled
// shared object -> direct call.
//
// A Kernel compiles one Program through the kernel cache and binds the
// uniform `<fn>_entry` symbol.  Unlike the bytecode VM — which lowers per
// (program, parameter binding) — the emitted C keeps parameters symbolic,
// so one compile serves every N and the on-disk cache amortizes across
// processes and sessions.  Callers marshal state through the same
// ordering contract emit_c's entry wrapper uses: parameter values in
// declaration order, array base pointers in array-name order, program
// scalars in scalar-name order, compiler temporaries left out (the
// interp::ExecEngine facade does this binding against a Store).
//
// Every compile/load/run is timed and aggregated in a process-wide stats
// registry (stats(), stats_json()) so tools can surface per-kernel JIT
// cost next to their other observability output.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/codegen.hpp"
#include "ir/program.hpp"
#include "native/cache.hpp"
#include "native/jit.hpp"

namespace blk::native {

/// The fixed signature emit_c's entry wrapper exports.
using EntryFn = void (*)(const long* params, double* const* arrays,
                         double* scalars);

/// Per-kernel JIT observability record.
struct KernelTimings {
  std::string key;      ///< cache key (hex)
  std::string fn;       ///< emitted function name
  bool cache_hit = false;
  double compile_seconds = 0.0;
  double load_seconds = 0.0;
  std::uint64_t runs = 0;
  double run_seconds = 0.0;
};

/// One compiled program.  Construction emits C, compiles (or reuses the
/// cached object) and resolves the entry point; throws blk::Error when no
/// toolchain is available or compilation fails.
///
/// A non-null `parallel` plan with loops makes the emitted C run those
/// loops on the in-kernel thread pool (see ir::EmitOptions::parallel).
/// The plan's summary is stamped into the source header, so serial and
/// parallel variants of the same program — and different thread-count
/// strategies — occupy distinct cache entries and coexist on disk.
class Kernel {
 public:
  /// `opt_level` selects the host compiler's -O level: the default 2 is
  /// the generic tier, 3 is the hot tier — -O3 plus -funroll-loops, the
  /// build bench_paper times the paper's tables on (the flags are part of
  /// the toolchain id, so the two levels occupy distinct cache entries).
  explicit Kernel(const ir::Program& p,
                  const std::string& fn_name = "blk_kernel",
                  KernelCache* cache = nullptr,
                  const ir::ParallelOptions* parallel = nullptr,
                  int opt_level = 2);

  /// Invoke the compiled code.  `params` / `arrays` / `scalars` follow
  /// the declaration-order contract above; the scalar block is read at
  /// entry and written back at return (VM sync semantics).
  void call(const long* params, double* const* arrays, double* scalars);

  [[nodiscard]] const std::vector<std::string>& param_names() const {
    return param_names_;
  }
  [[nodiscard]] const std::vector<std::string>& array_names() const {
    return array_names_;
  }
  [[nodiscard]] const std::vector<std::string>& scalar_names() const {
    return scalar_names_;
  }

  [[nodiscard]] const std::string& source() const { return source_; }
  [[nodiscard]] const std::string& so_path() const { return so_path_; }
  [[nodiscard]] const KernelTimings& timings() const { return timings_; }

 private:
  std::vector<std::string> param_names_;
  std::vector<std::string> array_names_;
  std::vector<std::string> scalar_names_;
  std::string source_;
  std::string so_path_;
  std::unique_ptr<Module> module_;
  EntryFn entry_ = nullptr;
  KernelTimings timings_;
};

/// Aggregate JIT counters since process start (or reset_stats()).
struct Stats {
  std::uint64_t kernels = 0;      ///< Kernel constructions
  std::uint64_t compiles = 0;     ///< cache misses that ran the compiler
  std::uint64_t cache_hits = 0;
  std::uint64_t runs = 0;
  double compile_seconds = 0.0;
  double load_seconds = 0.0;
  double run_seconds = 0.0;
};

[[nodiscard]] Stats stats();
void reset_stats();

/// Per-kernel records accumulated since reset_stats().
[[nodiscard]] std::vector<KernelTimings> kernel_stats();

/// The whole registry as a JSON object:
///   {"kernels_built": 7, "compiles": 2, "cache_hits": 5, ...,
///    "kernels": [{"key": ..., "fn": ..., "cache_hit": true, ...}, ...]}
[[nodiscard]] std::string stats_json();

}  // namespace blk::native
