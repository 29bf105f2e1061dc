// Recursive-descent parser: mini-Fortran source -> blk::ir::Program.
//
// Declarations:
//   PARAMETER N, KS
//   REAL*8 A(N,N), F2(-N2:0)
//   REAL*8 T(BS_K,BS_K)             ! bounds may name a BLOCK DO factor
//   REAL*8 TAU                      ! scalars have no dimensions
// Statements:
//   DO V = lb, ub [, step] ... ENDDO
//   BLOCK DO V = lb, ub ... ENDDO              (§6 extension)
//   BLOCK(8) DO V = lb, ub ... ENDDO           (explicit factor override)
//   IN V DO VV [= lb, ub] ... ENDDO            (§6 extension)
//   IF (expr .OP. expr) THEN ... [ELSE ...] ENDIF
//   [label:] lvalue = expression
// Index expressions may use MIN(...), MAX(...) (any arity >= 2) and
// LAST(V) inside an IN-region (§6).  Array bounds may name PARAMETERs and
// BLOCK DO factors only.  Nesting of statements and expressions is capped
// at a fixed depth.
//
// Each BLOCK DO introduces a fresh symbolic blocking-factor parameter
// named BS_<var> recorded in CompileResult::block_params; callers bind it
// to a machine-chosen value (see blockdo.hpp) or at interpretation time.
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "ir/program.hpp"

namespace blk::lang {

struct CompileResult {
  ir::Program program;
  /// BLOCK DO loop variable -> blocking-factor parameter name (BS_<var>).
  std::map<std::string, std::string> block_params;
  /// Explicit factors from BLOCK(n) DO, keyed by the parameter name.  The
  /// machine-model chooser honors these verbatim instead of modeling.
  std::map<std::string, long> fixed_factors;
};

/// Parse and lower mini-Fortran source text.  Throws blk::Error with a
/// line number on syntax or symbol errors.
[[nodiscard]] CompileResult compile(std::string_view source);

/// The text of the source file `path` ("-": standard input).  Throws
/// blk::Error when the file cannot be opened.
[[nodiscard]] std::string read_source(const std::string& path);

}  // namespace blk::lang
