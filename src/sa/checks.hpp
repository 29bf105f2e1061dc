// Region checks: dead/redundant array-region stores, and reads of array
// regions no preceding write can have initialized.  Both are queries over
// analysis::collect_refs and section_of (a region is expanded over its
// enclosing loops, so no fixpoint is needed) and emit verify::Diagnostics;
// both are sound for warnings — an unprovable fact suppresses the finding,
// never invents one.
#pragma once

#include "analysis/assume.hpp"
#include "ir/program.hpp"
#include "verify/diagnostic.hpp"

namespace blk::sa {

struct CheckOptions {
  const analysis::Assumptions* ctx = nullptr;
};

/// Stores whose region is fully overwritten by a later unconditional store
/// that writes every element of its section, before any possibly-
/// overlapping read (code "dead-store", Warning).
[[nodiscard]] verify::Report check_dead_stores(ir::Program& p,
                                               const CheckOptions& opt = {});

/// Array-region reads provably disjoint from every region written before
/// them, on arrays the program does write elsewhere — the regular-section
/// generalization of the scalar use-before-def check (code
/// "uninit-region-read", Warning).
[[nodiscard]] verify::Report check_uninit_reads(ir::Program& p,
                                                const CheckOptions& opt = {});

}  // namespace blk::sa
