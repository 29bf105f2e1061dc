// Internal stage functions of the pass manager.
//
// Each step_* mutates the PipelineContext exactly the way one stage of the
// hand-written drivers used to: the registry's pass entries bind these,
// and the composite drivers (auto_block & friends, re-exported through
// transform/blocking.hpp as thin wrappers) call the *same* functions — so
// a textual pipeline "stripmine(b=BS); split; distribute(commutativity);
// interchange" and a call to transform::auto_block produce bit-identical
// derivations by construction.
#pragma once

#include "pm/pass.hpp"
#include "transform/blocking.hpp"

namespace blk::pm::detail {

/// §2.3/§5.1 step 1: strip-mine the target loop; ctx.strip points at the
/// new inner loop afterwards.  Resets downstream stage products.
void step_stripmine(PipelineContext& ctx, ir::IExprPtr block, bool exact);

/// §5.1 step 2: Procedure IndexSetSplit on the strip (or target) loop.
void step_split(PipelineContext& ctx);

/// §5.1 step 3: distribute the strip (or target) loop over its dependence
/// components, with the §5.2 commutativity filter when armed.  Skips
/// (ctx.stage_skipped) when a preceding split reported not-distributable.
void step_distribute(PipelineContext& ctx);

/// §5.1 step 4: in every distributed piece that forms a perfect nest,
/// resolve MIN/MAX bounds with the enclosing loops' range facts and sink
/// the strip loop inward.  Without pieces, sinks the strip/target loop
/// directly (plain strip-mine-and-interchange).
void step_interchange(PipelineContext& ctx);

/// Register blocking on `loop`: unroll-and-jam (triangular when the shape
/// demands) followed by scalar replacement of every innermost loop.
/// Returns the number of scalar groups replaced.
int step_register_block(PipelineContext& ctx, ir::Loop& loop, long factor);

/// §6: choose the blocking factor from the machine model.
struct SelectBlockOptions {
  std::string ks_name = "KS";
  long probe = 0;          ///< parameter probe size (0: derived from L1)
  long fraction_pct = 75;  ///< effective cache fraction, percent
  bool sweep = true;       ///< refine the analytic pick empirically
  bool grid = false;       ///< also sweep a coverage grid for evidence
  unsigned workers = 0;    ///< simulator threads (0: auto)
  std::uint64_t seed = 42;
  long sample_every = 1;   ///< trace sampling stride (1 = full traces)
  double sample_tolerance = 0.02;  ///< sampled-vs-full miss-ratio bound
};

/// Build the analytic model of ctx.target(), optionally refine it by
/// sweeping a *blocked clone* of the program (the clone is blocked under
/// an ObserverMute with a private AnalysisManager, so the caller's
/// verification observers and caches never see it; one ExecEngine serves
/// every candidate).  Leaves the decision in ctx.block_choice, binds
/// ctx.resolved[ks_name], defaults ctx.default_block to the symbolic
/// name, and adds the full-block hint  focus + ks - 1 <= focus.ub  so a
/// following split finds the §5.1 structure without caller --assume.
model::BlockChoice& step_selectblock(PipelineContext& ctx,
                                     const SelectBlockOptions& opt);

// Composite drivers, operating on ctx.prog / ctx.focus / ctx.hints.
transform::AutoBlockResult auto_block_impl(PipelineContext& ctx,
                                           ir::IExprPtr block);
transform::AutoBlockResult auto_block_plus_impl(PipelineContext& ctx,
                                                ir::IExprPtr block,
                                                long unroll);
transform::ConvOptResult optimize_convolution_impl(PipelineContext& ctx,
                                                   long unroll);
transform::GivensOptResult optimize_givens_impl(PipelineContext& ctx);

}  // namespace blk::pm::detail
