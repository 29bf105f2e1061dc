// C code generation from the IR.
//
// The paper's closing argument is that a machine-independent source plus
// compiler technology "could be used to port the library from machine to
// machine".  This backend closes that loop for the reproduction: any IR
// program — point or transformed — can be emitted as a portable C
// function and compiled by the host toolchain.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/program.hpp"

namespace blk::ir {

/// One loop the emitter may run across threads.  Loops are named
/// positionally — `var` plus the pre-order occurrence index among loops
/// with that variable — matching sa::CertifyResult::find, so a plan built
/// from certification verdicts survives the Loop* invalidation that later
/// cloning causes.  The emitter trusts the plan: building one is the
/// certifier's job (the pm `parallelize(check)` pass), never the
/// emitter's.
struct ParallelLoop {
  std::string var;
  int occurrence = 0;  ///< n-th loop (pre-order) with this variable

  /// Reduction lowering: thread-local partials per accumulator, combined
  /// in fixed tid order after the join (tid 0's partial is seeded with the
  /// accumulator's incoming value, every other with the identity), so a
  /// given thread count always produces the same bits and one thread
  /// reproduces the serial kernel exactly.
  bool reduction = false;
  enum class Combine : std::uint8_t { Sum, Product };
  Combine combine = Combine::Sum;
  std::vector<std::string> accumulators;  ///< scalar names (Reduction only)
};

/// The parallel execution plan threaded into emit_c.  An empty `loops`
/// plan emits the ordinary serial kernel.
struct ParallelOptions {
  /// Worker count: > 0 bakes a fixed count into the kernel; 0 defers to
  /// runtime ($BLK_THREADS, else the online CPU count).  Either way the
  /// strategy is part of the emitted source, so serial and parallel
  /// variants (and different fixed counts) get distinct cache keys.
  int threads = 0;
  std::vector<ParallelLoop> loops;

  [[nodiscard]] bool enabled() const { return !loops.empty(); }
  /// One-line rendering ("threads=4 loops=[J#0 red(sum:S)@I#0]") stamped
  /// into the emitted source header — the cache-key salt.
  [[nodiscard]] std::string summary() const;
};

/// Emission knobs for consumers beyond the human-readable default.  The
/// native JIT engine (src/native/) uses both: `scalar_io` makes scalar
/// state round-trip through the caller exactly like the VM's
/// sync_scalars_in/out, and `entry_wrapper` provides one fixed-signature
/// symbol a dlopen caller can bind without per-program FFI.
struct EmitOptions {
  /// Append a trailing `double* blk_scalars` parameter; scalars are
  /// initialized from it (declaration order of Program::scalars(),
  /// temporaries skipped) and written back before return, instead of
  /// starting at 0.0 and being discarded.  Temporaries stay locals.
  bool scalar_io = false;
  /// Also emit
  ///
  ///   void <fn_name>_entry(const long* blk_params,
  ///                        double* const* blk_arrays,
  ///                        double* blk_scalars);
  ///
  /// forwarding to <fn_name> with parameters in declaration order and
  /// arrays in name order — the uniform ABI the JIT dlsyms.
  bool entry_wrapper = false;
  /// When non-null and enabled(), each planned loop is outlined and run
  /// on a persistent pthread pool with a deterministic fixed partition of
  /// its iteration space (contiguous chunks in tid order).  Non-reduction
  /// loops are bit-identical to the serial kernel at any thread count;
  /// reductions are bit-identical at one thread and bit-stable across
  /// runs at any fixed count.  The emitted unit then needs -pthread.
  const ParallelOptions* parallel = nullptr;
};

/// Emit `p` as a standalone C99 translation unit defining
///
///   void <fn_name>(<long params...>, <double* restrict arrays...>);
///
/// Parameters appear in declaration order, arrays in name order (each
/// passed as a flat column-major buffer whose extent matches the declared
/// dimensions).  Distinct IR arrays never overlap (Fortran's rule for
/// distinct arrays), so every caller passes a separate buffer per array
/// and the parameters are `restrict`.  Scalars become local doubles;
/// integer-valued scalars used as subscripts are truncated with (long)
/// casts, matching the interpreter's semantics.  The unit is self-contained (includes math.h
/// and defines MIN/MAX/floor-division helpers).
[[nodiscard]] std::string emit_c(const Program& p,
                                 const std::string& fn_name,
                                 const EmitOptions& opts = {});

}  // namespace blk::ir
