// Program: a statement list plus the symbol table describing its arrays,
// scalars and symbolic integer parameters.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "ir/stmt.hpp"

namespace blk::ir {

/// One array dimension with (possibly symbolic) inclusive bounds.
/// Fortran-style: `REAL A(0:N)` has lb=0, ub=N; `REAL A(N,N)` has lb=1.
struct Dim {
  IExprPtr lb;
  IExprPtr ub;
};

/// Declared array: name plus per-dimension bounds.
struct ArrayDecl {
  std::string name;
  std::vector<Dim> dims;

  [[nodiscard]] std::size_t rank() const { return dims.size(); }
};

/// A whole kernel: declarations plus top-level statements.
class Program {
 public:
  /// Declare a rank-k array with 1-based dimensions given by `extents`.
  ArrayDecl& array(const std::string& name, std::vector<IExprPtr> extents);
  /// Declare with explicit per-dimension lower/upper bounds.
  ArrayDecl& array_bounds(const std::string& name, std::vector<Dim> dims);
  /// Declare a scalar double variable.
  void scalar(const std::string& name);
  /// Declare a compiler temporary: a scalar (listed in scalars() too)
  /// whose value is dead outside the code that defines it, such as a
  /// scalar-replacement accumulator.  Engines keep temporaries out of
  /// their Store and the scalar block; emitted C makes them locals.
  void temporary(const std::string& name);
  /// Declare a symbolic integer parameter (N, KS, ...).
  void param(const std::string& name);

  [[nodiscard]] bool has_array(const std::string& name) const;
  [[nodiscard]] bool has_scalar(const std::string& name) const;
  [[nodiscard]] bool is_temporary(const std::string& name) const {
    return temporaries_.contains(name);
  }
  [[nodiscard]] bool has_param(const std::string& name) const;
  [[nodiscard]] const ArrayDecl& array_decl(const std::string& name) const;

  [[nodiscard]] const std::map<std::string, ArrayDecl>& arrays() const {
    return arrays_;
  }
  [[nodiscard]] const std::set<std::string>& scalars() const {
    return scalars_;
  }
  [[nodiscard]] const std::vector<std::string>& params() const {
    return params_;
  }

  /// Append a top-level statement and return a reference to it.
  Stmt& add(StmtPtr s);

  StmtList body;

  /// Deep copy (declarations shared structurally; statements cloned).
  [[nodiscard]] Program clone() const;

  /// Pick a loop-variable name not used anywhere in the program, derived
  /// from `base` ("K" -> "KK", "KK2", ...).
  [[nodiscard]] std::string fresh_var(const std::string& base) const;

  /// Record that `name` is used as a loop variable (fresh_var avoids it).
  void note_var(const std::string& name) { used_vars_.insert(name); }

 private:
  std::map<std::string, ArrayDecl> arrays_;
  std::set<std::string> scalars_;
  std::set<std::string> temporaries_;  ///< subset of scalars_
  std::vector<std::string> params_;
  std::set<std::string> used_vars_;
};

}  // namespace blk::ir
