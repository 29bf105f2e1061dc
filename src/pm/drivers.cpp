// Stage functions and composite drivers of the pass manager.
#include "pm/drivers.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "ir/error.hpp"
#include "model/sweep.hpp"
#include "transform/blocking.hpp"
#include "transform/distribute.hpp"
#include "transform/ifinspect.hpp"
#include "transform/instrument.hpp"
#include "transform/interchange.hpp"
#include "transform/pattern.hpp"
#include "transform/scalarrepl.hpp"
#include "transform/split.hpp"
#include "transform/stripmine.hpp"
#include "transform/unrolljam.hpp"

namespace blk::pm::detail {

using namespace blk::ir;
using analysis::Assumptions;

void step_stripmine(PipelineContext& ctx, IExprPtr block) {
  if (!block) block = ctx.default_block;
  if (!block)
    throw Error("stripmine: no block size (pass b=... or set a default)");
  // A symbolic block size names a parameter; declare it on first use so
  // specs like "stripmine(b=BS)" work on programs that never mention BS.
  if (block->kind == IKind::Var && !ctx.prog.has_param(block->name))
    ctx.prog.param(block->name);
  Loop& strip = transform::strip_mine(ctx.prog, ctx.target(), std::move(block));
  ctx.strip = &strip;
  ctx.split_report.reset();
  ctx.pieces.clear();
}

void step_split(PipelineContext& ctx) {
  ctx.split_report = transform::index_set_split(
      ctx.prog.body, ctx.strip_or_target(), ctx.hints, ctx.commutativity);
}

void step_distribute(PipelineContext& ctx) {
  if (ctx.split_report && !ctx.split_report->distributable) {
    ctx.stage_skipped = true;
    ctx.stage_note = "split left the body non-distributable";
    return;
  }
  Loop& target = ctx.strip_or_target();
  // The commutativity filter is rebuilt here: splitting moved and cloned
  // statements.  Legality must not lean on the driver hints (they may be
  // false on the ragged block); loop-range facts alone decide.
  transform::IgnoreEdge ignore;
  if (ctx.commutativity) ignore = transform::commutativity_filter(target);
  ctx.pieces = transform::distribute(ctx.prog.body, target, nullptr, ignore);
  // Distribution replaced the strip node; re-point at the surviving copy
  // (the first piece still carries the strip variable at its head).
  if (ctx.strip && !ctx.pieces.empty()) ctx.strip = ctx.pieces.front();
}

void step_interchange(PipelineContext& ctx) {
  if (ctx.split_report && !ctx.split_report->distributable) {
    ctx.stage_skipped = true;
    ctx.stage_note = "split left the body non-distributable";
    return;
  }
  if (ctx.pieces.empty()) {
    // No distribution ran: plain strip-mine-and-interchange semantics.
    ctx.interchanges += transform::sink_loop(
        ctx.prog.body, ctx.strip_or_target(), /*check=*/true, nullptr);
    return;
  }
  // The MIN/MAX bounds created by splitting are first resolved using only
  // loop-range facts (always exact); e.g. MAX(KK+1, <split point>+1)
  // resolves to the split-point side because KK never exceeds it.
  for (Loop* piece : ctx.pieces) {
    if (piece->body.size() != 1 || piece->body[0]->kind() != SKind::Loop)
      continue;  // the point-algorithm piece keeps the strip loop outside
    Assumptions bounds_ctx;
    for (Loop* outer : enclosing_loops(ctx.prog.body, *piece))
      bounds_ctx.add_loop_range(*outer);
    bounds_ctx.add_loop_range(*piece);
    transform::simplify_bounds_in(piece->body, std::move(bounds_ctx));
    ctx.interchanges += transform::sink_loop(ctx.prog.body, *piece,
                                             /*check=*/true, nullptr);
  }
}

int step_register_block(PipelineContext& ctx, Loop& loop, long factor) {
  // Jam: triangular when the immediate inner bound tracks the unrolled
  // variable with slope one, rectangular otherwise.
  bool triangular = false;
  if (loop.body.size() == 1 && loop.body[0]->kind() == SKind::Loop) {
    const Loop& inner = loop.body[0]->as_loop();
    if (auto f = as_affine(*inner.lb);
        f && f->coef_of(loop.var) == 1 && !mentions(*inner.ub, loop.var))
      triangular = true;
  }
  if (triangular)
    transform::unroll_and_jam_triangular(ctx.prog.body, loop, factor,
                                         &ctx.hints);
  else
    transform::unroll_and_jam(ctx.prog.body, loop, factor, &ctx.hints);

  // Scalar-replace the invariant references of every innermost loop the
  // jam produced (the unrolled accumulators).
  std::vector<Loop*> innermost;
  for_each_stmt(ctx.prog.body, [&](Stmt& s) {
    if (s.kind() != SKind::Loop) return;
    Loop& l = s.as_loop();
    bool has_inner = false;
    for (const auto& c : l.body)
      if (c->kind() == SKind::Loop) has_inner = true;
    if (!has_inner) innermost.push_back(&l);
  });
  int replaced = 0;
  for (Loop* l : innermost)
    replaced += transform::scalar_replace(ctx.prog, ctx.prog.body, *l,
                                          ctx.hints);
  ctx.scalar_groups += replaced;
  return replaced;
}

namespace {

/// Pre-order list of every loop in `body` (the clone-correspondence key:
/// clone() preserves traversal order, so the i-th loop of the original is
/// the i-th loop of the clone).
std::vector<Loop*> all_loops(StmtList& body) {
  std::vector<Loop*> out;
  for_each_stmt(body, [&](Stmt& s) {
    if (s.kind() == SKind::Loop) out.push_back(&s.as_loop());
  });
  return out;
}

}  // namespace

model::BlockChoice& step_selectblock(PipelineContext& ctx,
                                     const SelectBlockOptions& opt) {
  const std::string ks_name = "KS";
  model::MachineParams machine;
  if (!ctx.machine.empty()) machine.levels = ctx.machine;
  machine.latencies = ctx.latencies;
  const long probe = opt.probe > 0 ? opt.probe : model::probe_size(machine);

  ir::Env probe_env;
  for (const std::string& p : ctx.prog.params()) {
    if (p == ks_name) continue;
    auto it = ctx.resolved.find(p);
    probe_env[p] = it != ctx.resolved.end() ? it->second : probe;
  }

  Loop& focus = ctx.target();
  model::AnalyticModel am = model::build_analytic_model(
      ctx.prog.body, focus, ks_name, probe_env, machine);

  model::BlockChoice choice;
  choice.probe = probe;
  choice.budget_bytes = am.budget_bytes;
  choice.analytic_ks = am.pick();
  choice.analytic_footprint_bytes = am.footprint_bytes(choice.analytic_ks);
  choice.candidates = am.candidates();
  choice.ks = choice.analytic_ks;

  // The full-block view (focus + ks - 1 <= focus.ub) steers the later
  // split exactly as the hand-supplied --assume hints did; splitting
  // itself stays unconditionally safe on ragged blocks.
  ctx.hints.assert_le(isub(iadd(ivar(focus.var), ivar(ks_name)),
                           iconst(1)),
                      focus.ub);

  if (opt.sweep && am.trip >= 4) {
    // Block a *clone* and measure it: observers muted (the verifier must
    // not audit throwaway work) and analyses private to the clone.
    ir::Program clone = ctx.prog.clone();
    std::vector<Loop*> orig_loops = all_loops(ctx.prog.body);
    std::vector<Loop*> clone_loops = all_loops(clone.body);
    auto fit = std::find(orig_loops.begin(), orig_loops.end(), &focus);
    Loop* clone_focus =
        fit == orig_loops.end()
            ? nullptr
            : clone_loops[static_cast<std::size_t>(fit - orig_loops.begin())];
    try {
      if (!clone_focus) throw Error("selectblock: focus not in program");
      transform::ObserverMute mute;
      PipelineContext cctx(clone, ctx.hints);
      cctx.commutativity = ctx.commutativity;
      cctx.focus = clone_focus;
      analysis::ScopedAnalysisManager sam(cctx.am);
      AutoBlockResult blocked = auto_block_impl(cctx, ivar(ks_name));
      if (!blocked.blocked)
        throw Error("selectblock: the probe clone did not block");

      // The factor becomes a runtime scalar of the clone: each sweep
      // worker's ExecEngine reads it per run instead of recompiling per
      // candidate.
      clone.scalar(ks_name);

      model::SweepOptions sopt;
      std::set<long> ks_set(choice.candidates.begin(),
                            choice.candidates.end());
      if (opt.grid)
        for (long k : {4L, 6L, 8L, 12L, 16L, 24L, 32L, 48L, 64L, 96L, 128L})
          if (k >= 2 && k <= am.trip) ks_set.insert(k);
      sopt.candidates.assign(ks_set.begin(), ks_set.end());
      sopt.ks_scalar = ks_name;
      sopt.probe_params = probe_env;
      sopt.levels = machine.levels;
      sopt.latencies = machine.latencies;
      sopt.workers = opt.workers;
      model::SweepResult sw = model::sweep_block_sizes(clone, sopt);

      choice.swept = true;
      choice.metric_name = sw.metric_name;
      choice.store_misses = sw.rows.size();
      std::size_t chosen_row = sw.rows.size();
      for (std::size_t i = 0; i < sw.rows.size(); ++i) {
        const model::CandidateResult& r = sw.rows[i];
        model::BlockChoice::Row row;
        row.ks = r.ks;
        row.metric = r.metric;
        row.miss_ratio = r.levels.empty() ? 0.0 : r.levels[0].miss_ratio();
        row.accesses = r.levels.empty() ? 0 : r.levels[0].accesses;
        row.misses = r.levels.empty() ? 0 : r.levels[0].misses;
        row.predicted_bytes = am.footprint_bytes(r.ks);
        row.from_model = std::find(choice.candidates.begin(),
                                   choice.candidates.end(),
                                   r.ks) != choice.candidates.end();
        if (row.from_model &&
            (chosen_row == sw.rows.size() ||
             row.metric < choice.table[chosen_row].metric))
          chosen_row = choice.table.size();
        choice.table.push_back(row);
      }
      if (chosen_row < choice.table.size()) {
        choice.ks = choice.table[chosen_row].ks;
        choice.chosen_metric = choice.table[chosen_row].metric;
      }
      choice.best_swept_ks = sw.rows[sw.best_index].ks;
      choice.best_swept_metric = sw.rows[sw.best_index].metric;
    } catch (const Error& e) {
      choice.note = std::string("sweep skipped: ") + e.what();
    }
  } else if (opt.sweep) {
    choice.note = "sweep skipped: focus trip count too small at probe";
  }

  ctx.resolved[ks_name] = choice.ks;
  if (!ctx.default_block) ctx.default_block = ivar(ks_name);
  ctx.block_choice = std::move(choice);
  return *ctx.block_choice;
}

AutoBlockResult auto_block_impl(PipelineContext& ctx, IExprPtr block) {
  AutoBlockResult result;
  int interchanges_before = ctx.interchanges;

  // 1. Strip-mine.
  step_stripmine(ctx, std::move(block));

  // 2. Procedure IndexSetSplit against the strip loop's recurrences.  The
  //    hints (e.g. the full-block view K+BS-1 <= N-1) steer only *where*
  //    to split — splitting itself is unconditionally safe.
  step_split(ctx);
  result.splits = ctx.split_report->splits;
  if (!ctx.split_report->distributable) return result;

  // 3. Distribute the strip loop over its dependence components.
  step_distribute(ctx);
  result.pieces = ctx.pieces;
  result.blocked =
      ctx.pieces.size() > 1 || ctx.split_report->distributable;

  // 4. Sink the strip loop in every piece that forms a perfect nest.
  step_interchange(ctx);
  result.interchanges = ctx.interchanges - interchanges_before;
  return result;
}

AutoBlockResult auto_block_plus_impl(PipelineContext& ctx, IExprPtr block,
                                     long unroll) {
  AutoBlockResult result = auto_block_impl(ctx, std::move(block));
  if (!result.blocked || unroll <= 1) return result;
  // Register-block the trailing pieces (the perfect nests the strip loop
  // sank into); the first piece keeps the point algorithm, as in Fig. 6.
  for (std::size_t i = 1; i < result.pieces.size(); ++i) {
    try {
      step_register_block(ctx, *result.pieces[i], unroll);
    } catch (const Error&) {
      // An unjammable piece stays as derived; blocking already succeeded.
    }
  }
  return result;
}

ConvOptResult optimize_convolution_impl(PipelineContext& ctx, long unroll) {
  ir::Program& p = ctx.prog;
  if (p.body.empty() || p.body[0]->kind() != SKind::Loop)
    throw Error("optconv: expected an outer loop");
  ConvOptResult result;

  // 1. De-trapezoidalize.
  result.pieces = transform::split_trapezoid_all(p.body, p.body[0]->as_loop());
  ctx.pieces = result.pieces;

  for (Loop* piece : result.pieces) {
    if (piece->body.size() != 1 || piece->body[0]->kind() != SKind::Loop)
      continue;
    Loop& inner = piece->body[0]->as_loop();
    // 2. Rhomboid (both inner bounds track the outer variable with the
    //    same slope): normalization makes it rectangular.
    auto flb = as_affine(*inner.lb);
    auto fub = as_affine(*inner.ub);
    if (flb && fub) {
      long a_lb = flb->coef_of(piece->var);
      long a_ub = fub->coef_of(piece->var);
      if (a_lb != 0 && a_lb == a_ub) {
        transform::normalize_loop(p.body, inner);
        ++result.normalized;
      }
    }
    // 3. Register blocking: unroll-and-jam + scalar replacement.  A piece
    //    whose dependences or shape refuse stays as split.
    try {
      step_register_block(ctx, *piece, unroll);
      ++result.jammed;
    } catch (const Error&) {
    }
  }
  return result;
}

void optimize_givens_impl(PipelineContext& ctx) {
  ir::Program& p = ctx.prog;
  if (p.body.empty() || p.body[0]->kind() != SKind::Loop)
    throw Error("optgivens: expected an outer column loop");
  Loop& l = p.body[0]->as_loop();
  if (l.body.size() != 1 || l.body[0]->kind() != SKind::Loop)
    throw Error("optgivens: expected the guarded row loop inside");
  Loop& j = l.body[0]->as_loop();

  // 1. Preparation + inspection (Fig. 10's first half).
  transform::IfInspectResult insp = transform::if_inspect_auto(p, p.body, j);
  ctx.inspector = insp.inspector;
  ctx.range_loop = insp.range_loop;
  ctx.executor = insp.executor;

  // 2. Sink the executor's row loop below the update loop: the executor
  //    (DO J = JLB(JN), JUB(JN)) perfectly nests the K update loop; two
  //    rectangular interchanges make K outermost of the JN/J pair, and
  //    ctx.range_loop (in place) is now the K loop.
  transform::interchange(p.body, *insp.executor);
  transform::interchange(p.body, *insp.range_loop);
  ctx.interchanges += 2;
}

}  // namespace blk::pm::detail
