// IR interpreter.
//
// Executes any blk::ir::Program against dense double-precision storage.  It
// is the library's correctness oracle: a transformation is validated by
// running the original and transformed programs on identical random inputs
// and comparing every array element.  An optional TraceBuffer receives
// each array access as a synthetic byte address, which feeds the cache
// simulator (src/cachesim) to measure memory behaviour machine-independently.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "interp/trace.hpp"
#include "ir/program.hpp"

namespace blk::interp {

/// Dense Fortran-layout (column-major) array with per-dimension lower bounds.
/// A dimension with upper < lower has extent zero, as in Fortran: the array
/// holds no elements and every access throws.
class Tensor {
 public:
  Tensor() = default;
  Tensor(std::vector<long> lower, std::vector<long> upper,
         std::uint64_t base_addr);

  [[nodiscard]] std::size_t rank() const { return lower_.size(); }
  [[nodiscard]] long lower(std::size_t d) const { return lower_[d]; }
  [[nodiscard]] long upper(std::size_t d) const { return upper_[d]; }
  [[nodiscard]] std::size_t stride(std::size_t d) const { return stride_[d]; }
  [[nodiscard]] std::uint64_t base_addr() const { return base_addr_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  /// Column-major flat offset of a (bounds-checked) index tuple.
  [[nodiscard]] std::size_t offset(std::span<const long> idx) const;

  [[nodiscard]] double& at(std::span<const long> idx) {
    return data_[offset(idx)];
  }
  [[nodiscard]] double at(std::span<const long> idx) const {
    return data_[offset(idx)];
  }

  /// Synthetic byte address of an element (for cache tracing).
  [[nodiscard]] std::uint64_t address(std::size_t flat) const {
    return base_addr_ + flat * sizeof(double);
  }

  [[nodiscard]] std::span<double> flat() { return data_; }
  [[nodiscard]] std::span<const double> flat() const { return data_; }

 private:
  std::vector<long> lower_;
  std::vector<long> upper_;
  std::vector<std::size_t> stride_;
  std::vector<double> data_;
  std::uint64_t base_addr_ = 0;
};

/// All live variables during a run.
struct Store {
  std::map<std::string, Tensor> arrays;
  std::map<std::string, double> scalars;
};

/// Allocate the Store for a program instance: one Tensor per declared
/// array (evaluated under `params`, each at a distinct 64-byte-aligned
/// synthetic base address with a guard gap) plus zeroed declared scalars
/// (compiler temporaries are not observable state and stay out).
/// Both execution engines build their state through this, so their
/// synthetic address maps — and therefore their traces — agree exactly.
[[nodiscard]] Store make_store(const ir::Program& program,
                               const ir::Env& params);

/// Seed every array with the deterministic per-name stream derived from
/// `seed` (so equivalent programs with extra compiler temporaries still
/// seed the shared arrays identically).
void seed_store(Store& store, std::uint64_t seed);

/// Interpreter for one program instance.
///
/// Lifecycle: construct with the program and concrete parameter values;
/// arrays are allocated from the declarations (each array placed at a
/// distinct 64-byte-aligned synthetic base address); fill inputs through
/// `store()`; then `run()`.
class Interpreter {
 public:
  Interpreter(const ir::Program& program, ir::Env params);

  [[nodiscard]] Store& store() { return store_; }
  [[nodiscard]] const Store& store() const { return store_; }
  [[nodiscard]] const ir::Env& params() const { return params_; }

  /// Execute the program body; when `trace` is non-null every array-
  /// element access appends one record.  Throws blk::Error on out-of-
  /// bounds accesses, unbound variables, or non-terminating loop steps.
  void run(TraceBuffer* trace = nullptr);

  /// Total number of statement executions in the last run (a cheap
  /// operation-count proxy used by tests).
  [[nodiscard]] std::uint64_t statements_executed() const { return stmts_; }

 private:
  const ir::Program& program_;
  ir::Env params_;
  Store store_;
  ir::Env loop_env_;  ///< params + live loop variables
  std::map<std::string, double> temps_;  ///< compiler temporaries
  TraceBuffer* trace_ = nullptr;
  std::uint64_t stmts_ = 0;

  void exec_list(const ir::StmtList& body);
  void exec(const ir::Stmt& s);
  /// Index-expression evaluation with runtime extensions: variables not
  /// bound by a loop or parameter fall back to integer-valued scalars
  /// (IF-inspection counters, pivot indices), and ArrayElem nodes read the
  /// live store (KLB(KN)-style bounds).
  [[nodiscard]] long ieval(const ir::IExpr& e);
  [[nodiscard]] long ieval(const ir::IExprPtr& e) { return ieval(*e); }
  [[nodiscard]] double eval(const ir::VExpr& e);
  [[nodiscard]] bool eval_cond(const ir::Cond& c);
  /// A scalar's storage (temporaries live outside the store); null when
  /// the name is neither.
  [[nodiscard]] double* scalar(const std::string& name);
  [[nodiscard]] double load(const std::string& name,
                            std::span<const long> idx);
  void store_element(const std::string& name, std::span<const long> idx,
                     double v);
  [[nodiscard]] std::vector<long> eval_subs(
      const std::vector<ir::IExprPtr>& subs);
};

// ---- Test / benchmark conveniences ------------------------------------------

/// Fill a tensor with deterministic pseudo-random values in [lo, hi).
void fill_random(Tensor& t, std::uint64_t seed, double lo = -1.0,
                 double hi = 1.0);

/// Max |a-b| over all arrays common to both stores; throws if shapes differ.
[[nodiscard]] double max_abs_diff(const Store& a, const Store& b);

/// Which execution engine backs an ExecEngine instance (facade in vm.hpp).
enum class Engine : std::uint8_t {
  TreeWalker,  ///< reference semantics (src/interp/interp.*)
  Vm,          ///< compiled bytecode (default)
  Native,      ///< JIT through the C backend (src/native/)
};

/// Run `p` under `params` with inputs seeded by `seed`; returns the store.
/// Executes on the bytecode VM by default (`engine` picks another; the
/// native engine falls back to the VM when no toolchain exists); the
/// tree-walker remains the reference semantics everything is
/// differentially tested against.
[[nodiscard]] Store run_seeded(const ir::Program& p, const ir::Env& params,
                               std::uint64_t seed,
                               Engine engine = Engine::Vm);

}  // namespace blk::interp
