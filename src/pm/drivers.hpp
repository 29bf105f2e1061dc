// Internal stage functions of the pass manager.
//
// Each step_* mutates the PipelineContext as one stage of a pipeline: the
// registry's primitive passes bind these, and the composite passes
// (autoblock & friends, the *_impl functions below) call the *same*
// functions — so the textual pipeline "stripmine(b=BS); split;
// distribute(commutativity); interchange" and "autoblock(b=BS,
// commutativity)" produce bit-identical derivations by construction.
#pragma once

#include <vector>

#include "pm/pass.hpp"

namespace blk::pm::detail {

/// §2.3/§5.1 step 1: strip-mine the target loop (with the MIN guard, so
/// ragged trailing blocks stay exact); ctx.strip points at the new inner
/// loop afterwards.  Resets downstream stage products.
void step_stripmine(PipelineContext& ctx, ir::IExprPtr block);

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

/// §6: choose the blocking factor KS from the machine model.
struct SelectBlockOptions {
  long probe = 0;          ///< parameter probe size (0: derived from L1)
  bool sweep = true;       ///< refine the analytic pick empirically
  bool grid = false;       ///< also sweep a coverage grid for evidence
  unsigned workers = 0;    ///< simulator threads (0: auto)
};

/// Build the analytic model of ctx.target(), optionally refine it by
/// sweeping a *blocked clone* of the program (the clone is blocked under
/// an ObserverMute with a private AnalysisManager, so the caller's
/// verification observers and caches never see it; each sweep worker's
/// ExecEngine serves every candidate it takes).  Leaves the decision in
/// ctx.block_choice, binds ctx.resolved["KS"], defaults ctx.default_block
/// to KS, and adds the full-block hint  focus + KS - 1 <= focus.ub  so a
/// following split finds the §5.1 structure without caller --assume.
model::BlockChoice& step_selectblock(PipelineContext& ctx,
                                     const SelectBlockOptions& opt);

// Composite drivers, operating on ctx.prog / ctx.focus / ctx.hints.

/// Outcome of the §5.1 pipeline.
struct AutoBlockResult {
  bool blocked = false;        ///< distribution succeeded
  int splits = 0;              ///< index-set splits performed
  int interchanges = 0;        ///< loops the strip variable sank past
  std::vector<ir::Loop*> pieces;  ///< distributed strip loops, in order
};

/// The paper's §5.1 pipeline (the autoblock pass):
///
///   1. strip-mine the focus loop by `block`                  (K -> K, KK)
///   2. Procedure IndexSetSplit on the strip loop             (split J)
///   3. distribute the strip loop                             (SCC order)
///   4. in every distributed piece that is a perfect nest, resolve MIN/MAX
///      bounds and sink the strip loop inward (triangular interchange)
///
/// ctx.hints guide the section analysis (e.g. K+BS-1 <= N-1, the full-
/// block view); ctx.commutativity arms the §5.2 pattern matcher so
/// dependences between recognized row interchanges and whole-column
/// updates are discounted during splitting and distribution.  Deriving
/// block LU without pivoting needs only hints; with partial pivoting it
/// needs the commutativity knowledge too.
AutoBlockResult auto_block_impl(PipelineContext& ctx, ir::IExprPtr block);

/// auto_block_impl taken to the paper's "2+" (the autoblockplus pass):
/// every trailing piece is register-blocked by `unroll` (unroll-and-jam,
/// then scalar replacement of the accumulators).  `unroll` <= 1 stops
/// after blocking.
AutoBlockResult auto_block_plus_impl(PipelineContext& ctx, ir::IExprPtr block,
                                     long unroll);

/// Outcome of the §3.2 pipeline.
struct ConvOptResult {
  std::vector<ir::Loop*> pieces;  ///< outer loops after trapezoid splitting
  int normalized = 0;             ///< rhomboidal pieces made rectangular
  int jammed = 0;                 ///< pieces register-blocked
};

/// The §3.2 pipeline (the optconv pass) for a trapezoidal reduction like
/// the seismic convolutions (an outer loop over an inner loop whose
/// MIN/MAX bounds cross):
///
///   1. index-set split the outer loop at every MIN/MAX crossover
///      (split_trapezoid_all) — rectangular, triangular and rhomboidal
///      pieces fall out;
///   2. normalize rhomboidal pieces (both inner bounds tracking the outer
///      variable) so the inner loop becomes rectangular;
///   3. register-block each piece (unroll-and-jam by `unroll`, triangular
///      where the shape demands, then scalar replacement of the invariant
///      accumulators).  Unjammable pieces are left split-but-unjammed.
ConvOptResult optimize_convolution_impl(PipelineContext& ctx, long unroll);

/// The paper's §5.4 pipeline (the optgivens pass), applied to a Fig. 9-
/// shaped program (an L loop over a guarded J loop whose guarded body ends
/// with the K update loop):
///
///   1. if_inspect_auto on the J loop — scalar-expands the rotation
///      coefficients, index-set splits K at the recurrence boundary
///      (K = L), and installs the inspector/executor pair;
///   2. interchanges the executor nest until the K update loop is
///      outermost (giving stride-one column traversal) — Fig. 10.
///      ctx.range_loop is that K loop afterwards.
void optimize_givens_impl(PipelineContext& ctx);

}  // namespace blk::pm::detail
