// Loop-bound clean-up shared by the blocking pipelines: MIN/MAX bound
// resolution and loop normalization.  The pipelines themselves (§5.1
// autoblock, §3.2 optconv, §5.4 optgivens, ...) are pass-manager passes;
// run them through pm::run_spec / pm::run_pipeline.
#pragma once

#include "analysis/assume.hpp"
#include "ir/program.hpp"

namespace blk::transform {

/// Resolve MIN/MAX in every loop bound under `body` using `hints` plus the
/// enclosing loops' range facts, and canonicalize.  With an empty `hints`
/// this is always semantics-preserving; driver hints (e.g. the full-block
/// assumption) may rewrite a ragged-edge bound into a form that is
/// equivalent only because out-of-range pieces iterate empty ranges — the
/// drivers that pass hints are validated end-to-end by the interpreter
/// equivalence suite.
void simplify_all_bounds(ir::StmtList& body,
                         const analysis::Assumptions& hints = {});

/// Uninstrumented core of simplify_all_bounds (no PassScope): resolve
/// MIN/MAX loop bounds under `ctx` plus inner loops' range facts.  Used by
/// the pass manager's interchange stage, which runs it per distributed
/// piece inside its own instrumentation.
void simplify_bounds_in(ir::StmtList& body, analysis::Assumptions ctx);

/// Normalize `loop` to run from `origin` upward: substitutes
/// var = var' + (lb - origin) so the new lower bound is `origin`.
/// Rhomboidal iteration spaces (convolutions) become rectangular this way,
/// after which plain unroll-and-jam applies.
void normalize_loop(ir::StmtList& root, ir::Loop& loop, long origin = 0);

}  // namespace blk::transform
