// Diagnostics shared by the verification passes (lint, dependence check,
// pipeline harness).  One entry point, one format: every finding carries a
// severity, a stable machine-readable code, a human message and the
// statement path it anchors to, so tools (blk-lint, the fuzzer, tests)
// can filter and render uniformly.
#pragma once

#include <string>
#include <vector>

#include "ir/stmt.hpp"

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

/// The `where` path a walker is at: the segments of the statements it is
/// inside, joined by " > " ("DO K > DO I > A(I,K)=...").
class StmtPath {
 public:
  void push(const ir::Stmt& s) { segments_.push_back(describe(s)); }
  void pop() { segments_.pop_back(); }
  [[nodiscard]] std::string str() const;

 private:
  std::vector<std::string> segments_;
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
