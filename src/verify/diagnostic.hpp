// Diagnostics shared by the verification passes (lint, dependence check,
// pipeline harness).  One entry point, one format: every finding carries a
// severity, a stable machine-readable code, a human message and the
// statement path it anchors to, so tools (blk-lint, the fuzzer, tests)
// can filter and render uniformly.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "analysis/assume.hpp"
#include "analysis/refs.hpp"
#include "ir/program.hpp"

namespace blk::verify {

enum class Severity : int { Note = 0, Warning = 1, Error = 2 };

[[nodiscard]] const char* to_string(Severity s);

struct Diagnostic {
  Severity severity = Severity::Error;
  std::string code;     ///< stable id, e.g. "oob-subscript", "dep-broken"
  std::string message;  ///< human-readable finding
  std::string where;    ///< statement path, e.g. "DO K > DO I > A(I,K)=..."
  int subscript = 0;    ///< offending subscript position (1-based), 0 = n/a

  [[nodiscard]] std::string to_string() const;
};

/// One statement's segment of a `where` path: "DO K", "IF (B(I).GT.0.0)",
/// or an assignment as "10: A(I,K)=..." (label, target, elided RHS).
[[nodiscard]] std::string describe(const ir::Stmt& s);

/// Every statement of a program by pre-order position, numbered from 1
/// like analysis::RefInfo::textual_pos, and every reference
/// analysis::collect_refs finds in it: the one table the static checks
/// (lint, the certifier, the region checks) query.
class StmtTable {
 public:
  struct At {
    ir::Stmt* stmt = nullptr;
    /// Segments of the statements it is inside and its own, joined by
    /// " > " ("DO K > DO I > A(I,K)=...").
    std::string where;
    std::vector<ir::Loop*> loops;  ///< enclosing loops, outermost first
    int guard = 0;                 ///< innermost enclosing IF (0: none)
    int last = 0;                  ///< last position inside its subtree
  };

  explicit StmtTable(ir::Program& p);

  /// Number of statements; positions run from 1 to size().
  [[nodiscard]] int size() const {
    return static_cast<int>(stmts_.size()) - 1;
  }
  [[nodiscard]] const At& operator[](int pos) const {
    return stmts_[static_cast<std::size_t>(pos)];
  }
  /// The program's references in pre-order (collect_refs).
  [[nodiscard]] const std::vector<analysis::RefInfo>& refs() const {
    return refs_;
  }
  /// The references owned by the statement at `pos` and its subtree.
  [[nodiscard]] std::span<const analysis::RefInfo> subtree(int pos) const;
  /// `base` plus the step-aware range facts of the loops enclosing `pos`.
  [[nodiscard]] analysis::Assumptions context(
      int pos, analysis::Assumptions base) const;
  /// Indexed by position: the outermost loop at or around it whose range
  /// is provably empty under context(loop, base), or 0.  Such a loop's
  /// bounds are evaluated, but nothing after it up to its `last` runs.
  [[nodiscard]] std::vector<int> empty_loops(
      const analysis::Assumptions& base) const;

 private:
  std::vector<analysis::RefInfo> refs_;
  std::vector<At> stmts_ = std::vector<At>(1);

  void number(ir::StmtList& body, const std::string& where,
              std::vector<ir::Loop*>& loops, int guard);
};

/// Outcome of one verification pass.
struct Report {
  std::vector<Diagnostic> diags;

  /// True when no diagnostic reaches Error severity.
  [[nodiscard]] bool ok() const;
  [[nodiscard]] std::size_t error_count() const;
  [[nodiscard]] std::size_t warning_count() const;
  [[nodiscard]] std::string to_string() const;

  void add(Severity sev, std::string code, std::string message,
           std::string where = {}, int subscript = 0);
  /// Append every diagnostic of `other`.
  void merge(const Report& other);

  /// Make the report diff-able: sort by (where, code, subscript, severity
  /// descending) and drop duplicates with the same code+where+subscript,
  /// keeping the most severe (first after the sort).
  void canonicalize();
};

}  // namespace blk::verify
