// Bytecode VM for the IR oracle, and the ExecEngine facade that lets every
// consumer (tests, fuzzer, cache ablations, examples) pick an engine.
//
// The Vm executes the register program produced by compile() over the same
// Store layout the tree-walking Interpreter allocates, with the same
// synthetic addresses — so stores are bit-identical and access traces are
// event-for-event identical, at bytecode speed.  The tree-walker remains
// the reference semantics: tests/interp/vm_test.cpp and the fuzzer run
// both and require exact agreement.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "interp/compile.hpp"
#include "interp/interp.hpp"
#include "interp/trace.hpp"
#include "ir/codegen.hpp"

namespace blk::interp {

/// Executes one compiled program instance.
class Vm {
 public:
  Vm(const ir::Program& program, ir::Env params);

  [[nodiscard]] Store& store() { return store_; }
  [[nodiscard]] const Store& store() const { return store_; }
  [[nodiscard]] const ir::Env& params() const { return params_; }
  [[nodiscard]] const CompiledProgram& compiled() const { return prog_; }

  /// Execute; when `trace` is non-null every array-element access appends
  /// one record.  Throws blk::Error on out-of-bounds accesses, unbound
  /// variables, or non-terminating loop steps, like the tree-walker.
  void run(TraceBuffer* trace = nullptr);

  [[nodiscard]] std::uint64_t statements_executed() const { return stmts_; }

 private:
  ir::Env params_;
  Store store_;
  CompiledProgram prog_;
  std::vector<long> ireg_;
  std::vector<double> freg_;
  std::vector<double> scal_;
  std::vector<std::size_t> synced_;  ///< scalar slots the Store mirrors
  std::vector<double*> arr_data_;      ///< array slot -> element storage
  std::vector<std::uint64_t> arr_base_;  ///< array slot -> synthetic base
  std::uint64_t stmts_ = 0;

  void sync_scalars_in();
  void sync_scalars_out();

  /// The dispatch loop, specialized at compile time so the untraced path
  /// carries no per-access branch.
  template <bool kTrace>
  void run_impl(TraceBuffer* trace);
};

// (the Engine enum lives in interp.hpp so run_seeded can default it)

/// "tree", "vm", "native" (the --engine spellings); throws
/// blk::Error on anything else.
[[nodiscard]] Engine parse_engine(std::string_view name);
[[nodiscard]] const char* to_string(Engine e);

class NativeRunner;  // vm.cpp: native::Kernel bound to a Store

/// Uniform front door over the engines.  Construction allocates the
/// store; callers seed inputs through store() and then run().
///
/// Engine::Native compiles the program's emitted C through the host
/// toolchain (content-addressed .so cache, one compile per program shape
/// — parameters stay symbolic).  When no toolchain is available the
/// facade silently falls back to the VM: engine() reports the *effective*
/// engine, so callers can tell.  Compile or load failures with a working
/// toolchain still throw — those are bugs, not environment.  The native
/// engine produces no access traces and no statement counts (the traced
/// run() throws; statements_executed() is 0).
class ExecEngine {
 public:
  /// `parallel` (Native only) is the certified parallel plan forwarded to
  /// native::Kernel; it is copied, so callers may let theirs die.  The
  /// tree-walker and VM ignore it — they have no threads to give — and
  /// the silent-fallback path therefore runs the plan serially, which is
  /// semantically identical by construction.
  ExecEngine(const ir::Program& program, ir::Env params,
             Engine engine = Engine::Vm,
             const ir::ParallelOptions* parallel = nullptr);
  ~ExecEngine();
  ExecEngine(ExecEngine&&) noexcept;
  ExecEngine& operator=(ExecEngine&&) noexcept;

  [[nodiscard]] Store& store();
  [[nodiscard]] const Store& store() const;
  [[nodiscard]] const ir::Env& params() const;
  [[nodiscard]] Engine engine() const { return engine_; }

  void run();                 ///< untraced
  void run(TraceBuffer& tb);  ///< tree-walker and VM only

  [[nodiscard]] std::uint64_t statements_executed() const;

 private:
  Engine engine_;
  std::unique_ptr<Interpreter> tw_;
  std::unique_ptr<Vm> vm_;
  std::unique_ptr<NativeRunner> nat_;
};

}  // namespace blk::interp
