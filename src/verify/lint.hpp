// IR lint: static well-formedness and plausibility checks over a whole
// program.
//
// Subsumes the structural validator (ir/validate) and layers semantic
// checks on top of the existing analyses:
//  * provably out-of-bounds subscripts — the bounded regular section of
//    each reference (analysis/sections) is intersected with the declared
//    extents under the symbolic assumption context;
//  * scalars read before any textual write (use-before-def);
//  * loops that provably never execute (zero-trip) under the assumptions;
//  * shadowed induction variables and every other structural invariant,
//    folded in from ir::validate as `structure` diagnostics.
//
// All findings flow through one entry point and carry statement paths, so
// a pass pipeline, the blk-lint CLI and the fuzzer render them the same
// way.
#pragma once

#include "analysis/assume.hpp"
#include "ir/program.hpp"
#include "verify/diagnostic.hpp"

namespace blk::verify {

struct LintOptions {
  /// Extra symbolic facts (driver hints like KS >= 1, K+KS-1 <= N-1) used
  /// for the bounds and zero-trip proofs.  May be null.
  const analysis::Assumptions* ctx = nullptr;
  /// Also report what could NOT be proven: subscripts whose sections defeat
  /// the sweep and references not provably in bounds (as notes).
  bool pedantic = false;
};

/// Lint `p`.  Errors mean the program is definitely broken (structural
/// violation or a subscript provably outside its declared extent on an
/// executed path); warnings flag likely bugs (use-before-def scalars,
/// zero-trip loops, guarded references that can stray out of bounds).
[[nodiscard]] Report lint(ir::Program& p, const LintOptions& opt = {});

}  // namespace blk::verify
