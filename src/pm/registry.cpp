// The pass registry: every transform primitive and composite driver,
// with typed options.  This is the single catalogue the spec parser
// validates against and `blk-opt --print-registry` prints.
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "ir/error.hpp"
#include "pm/drivers.hpp"
#include "pm/pass.hpp"
#include "transform/blocking.hpp"
#include "transform/fuse.hpp"
#include "transform/ifinspect.hpp"
#include "transform/interchange.hpp"
#include "transform/scalarrepl.hpp"
#include "transform/skew.hpp"
#include "transform/split.hpp"
#include "transform/unrolljam.hpp"

namespace blk::pm {

namespace {

using namespace blk::ir;

/// The unroll factor `u` of unrolljam, autoblockplus and registerblock
/// when a spec leaves it out.
constexpr long kDefaultUnroll = 2;

/// Walk the tree in pre-order and return the `index`-th loop whose
/// variable matches `var` (any loop when `var` is empty).
Loop* nth_loop(StmtList& body, const std::string& var, long& index) {
  for (auto& s : body) {
    if (s->kind() == SKind::Loop) {
      Loop& l = s->as_loop();
      if (var.empty() || l.var == var) {
        if (index == 0) return &l;
        --index;
      }
      if (Loop* found = nth_loop(l.body, var, index)) return found;
    } else if (s->kind() == SKind::If) {
      if (Loop* found = nth_loop(s->as_if().then_body, var, index))
        return found;
      if (Loop* found = nth_loop(s->as_if().else_body, var, index))
        return found;
    }
  }
  return nullptr;
}

/// Every scalar assigned anywhere under `body`.
void written_scalars(const StmtList& body, std::set<std::string>& out) {
  for (const auto& s : body) {
    switch (s->kind()) {
      case SKind::Assign: {
        const Assign& a = s->as_assign();
        if (!a.lhs.is_array()) out.insert(a.lhs.name);
        break;
      }
      case SKind::Loop:
        written_scalars(s->as_loop().body, out);
        break;
      case SKind::If:
        written_scalars(s->as_if().then_body, out);
        written_scalars(s->as_if().else_body, out);
        break;
    }
  }
}

/// True when `sc` has an unconditional top-level assignment in the loop's
/// direct body — the condition under which the parallel backend's
/// last-chunk write-back reproduces serial last-value semantics (every
/// iteration overwrites the scalar, so the value after the final chunk is
/// the value after the final iteration).
bool unconditionally_assigned(const Loop& l, const std::string& sc) {
  for (const auto& s : l.body)
    if (s->kind() == SKind::Assign && !s->as_assign().lhs.is_array() &&
        s->as_assign().lhs.name == sc)
      return true;
  return false;
}

/// Split "S, T" into {"S", "T"} (the certifier comma-joins multiple
/// accumulators into one string).
std::vector<std::string> split_accumulators(const std::string& acc) {
  std::vector<std::string> out;
  std::string cur;
  for (char ch : acc) {
    if (ch == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else if (ch != ' ') {
      cur += ch;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

}  // namespace

Registry::Registry() {
  auto add = [this](PassInfo info) {
    passes_.emplace(info.name, std::move(info));
  };

  // --- pipeline plumbing ---------------------------------------------------

  add({.name = "focus",
       .doc = "retarget the pipeline at a loop: the index-th loop (pre-"
              "order) whose variable is var; resets stage products",
       .options = {{.name = "var", .kind = OptKind::Str,
                    .doc = "loop variable to match (default: any loop)"},
                   {.name = "index", .kind = OptKind::Int,
                    .doc = "which match to take, 0-based (default 0)"}},
       .run = [](PipelineContext& ctx, const PassInvocation& inv) {
         std::string var = inv.str_or("var", "");
         long index = inv.int_or("index", 0);
         long remaining = index;
         Loop* l = nth_loop(ctx.prog.body, var, remaining);
         if (!l)
           throw Error("focus: no loop " +
                       (var.empty() ? std::string("<any>") : "'" + var + "'") +
                       " at index " + std::to_string(index));
         ctx.focus = l;
         ctx.strip = nullptr;
         ctx.split_report.reset();
         ctx.pieces.clear();
         ctx.stage_note = "focus -> DO " + l->var;
       }});

  // --- primitives ----------------------------------------------------------

  add({.name = "stripmine",
       .doc = "strip-mine the target loop by b (§2.3 step 1)",
       .options = {{.name = "b", .kind = OptKind::Expr,
                    .doc = "block size: integer or parameter name"}},
       .run = [](PipelineContext& ctx, const PassInvocation& inv) {
         detail::step_stripmine(ctx, inv.expr("b"));
       }});

  add({.name = "split",
       .doc = "Procedure IndexSetSplit on the strip/target loop (Fig. 3)",
       .options = {{.name = "commutativity", .kind = OptKind::Flag,
                    .doc = "arm the §5.2 pattern matcher pipeline-wide"}},
       .run = [](PipelineContext& ctx, const PassInvocation&) {
         detail::step_split(ctx);
         ctx.stage_note =
             std::to_string(ctx.split_report->splits) + " splits, " +
             (ctx.split_report->distributable ? "distributable"
                                              : "not distributable");
       }});

  add({.name = "splitat",
       .doc = "split the target loop at a point into two disjoint pieces",
       .options = {{.name = "at", .kind = OptKind::Expr, .required = true,
                    .doc = "split point: integer or parameter name"}},
       .run = [](PipelineContext& ctx, const PassInvocation& inv) {
         auto [lo, hi] = transform::split_at(ctx.prog.body,
                                             ctx.strip_or_target(),
                                             inv.expr("at"));
         ctx.pieces = {lo, hi};
       }});

  add({.name = "split-trapezoid",
       .doc = "de-trapezoidalize the target loop at every MIN/MAX "
              "crossover (§3.2 step 1)",
       .options = {},
       .run = [](PipelineContext& ctx, const PassInvocation&) {
         ctx.pieces =
             transform::split_trapezoid_all(ctx.prog.body, ctx.target());
         ctx.stage_note = std::to_string(ctx.pieces.size()) + " pieces";
       }});

  add({.name = "distribute",
       .doc = "distribute the strip/target loop over its dependence "
              "components (§5.1 step 3)",
       .options = {{.name = "commutativity", .kind = OptKind::Flag,
                    .doc = "arm the §5.2 pattern matcher pipeline-wide"}},
       .run = [](PipelineContext& ctx, const PassInvocation&) {
         detail::step_distribute(ctx);
         if (!ctx.stage_skipped)
           ctx.stage_note = std::to_string(ctx.pieces.size()) + " pieces";
       }});

  add({.name = "interchange",
       .doc = "resolve bounds and sink the strip loop in every perfect-"
              "nest piece (§5.1 step 4); without pieces, sink the "
              "strip/target loop",
       .options = {},
       .run = [](PipelineContext& ctx, const PassInvocation&) {
         int before = ctx.interchanges;
         detail::step_interchange(ctx);
         if (!ctx.stage_skipped)
           ctx.stage_note =
               std::to_string(ctx.interchanges - before) + " interchanges";
       }});

  add({.name = "fuse",
       .doc = "fuse the target loop with its next same-header sibling",
       .options = {},
       .run = [](PipelineContext& ctx, const PassInvocation&) {
         transform::fuse(ctx.prog.body, ctx.target());
       }});

  add({.name = "reverse",
       .doc = "reverse the target loop's iteration order",
       .options = {},
       .run = [](PipelineContext& ctx, const PassInvocation&) {
         transform::reverse_loop(ctx.prog.body, ctx.target());
       }});

  add({.name = "normalize",
       .doc = "shift the target loop to run from origin upward (makes "
              "rhomboids rectangular)",
       .options = {{.name = "origin", .kind = OptKind::Int,
                    .doc = "new lower bound (default 0)"}},
       .run = [](PipelineContext& ctx, const PassInvocation& inv) {
         transform::normalize_loop(ctx.prog.body, ctx.target(),
                                   inv.int_or("origin", 0));
       }});

  add({.name = "unrolljam",
       .doc = "unroll-and-jam the target loop by u",
       .options = {{.name = "u", .kind = OptKind::Int,
                    .doc = "unroll factor (default 2)"},
                   {.name = "triangular", .kind = OptKind::Flag,
                    .doc = "use the §3.1 triangular jam"}},
       .run = [](PipelineContext& ctx, const PassInvocation& inv) {
         long u = inv.int_or("u", kDefaultUnroll);
         if (inv.flag("triangular"))
           transform::unroll_and_jam_triangular(ctx.prog.body, ctx.target(),
                                                u, &ctx.hints);
         else
           transform::unroll_and_jam(ctx.prog.body, ctx.target(), u,
                                     &ctx.hints);
       }});

  add({.name = "scalarrepl",
       .doc = "scalar-replace provably identical references in the target "
              "loop",
       .options = {{.name = "carried", .kind = OptKind::Flag,
                    .doc = "rotate loop-carried values instead"}},
       .run = [](PipelineContext& ctx, const PassInvocation& inv) {
         int groups =
             inv.flag("carried")
                 ? transform::scalar_replace_carried(ctx.prog, ctx.prog.body,
                                                     ctx.target())
                 : transform::scalar_replace(ctx.prog, ctx.prog.body,
                                             ctx.target(), ctx.hints);
         ctx.scalar_groups += groups;
         ctx.stage_note = std::to_string(groups) + " groups";
       }});

  add({.name = "scalarexpand",
       .doc = "expand a scalar assigned in the target loop into a "
              "temporary array indexed by the loop variable",
       .options = {{.name = "var", .kind = OptKind::Str, .required = true,
                    .doc = "scalar name to expand"}},
       .run = [](PipelineContext& ctx, const PassInvocation& inv) {
         ctx.stage_note = transform::scalar_expand(
             ctx.prog, ctx.prog.body, ctx.target(), inv.str_or("var", ""));
       }});

  add({.name = "ifinspect",
       .doc = "IF-inspection (§4): inspector/executor split of the target "
              "loop's guard",
       .options = {{.name = "auto", .kind = OptKind::Flag,
                    .doc = "run the §5.4 preparation (scalar expansion + "
                           "recurrence splitting) first"}},
       .run = [](PipelineContext& ctx, const PassInvocation& inv) {
         transform::IfInspectResult r =
             inv.flag("auto")
                 ? transform::if_inspect_auto(ctx.prog, ctx.prog.body,
                                              ctx.target())
                 : transform::if_inspect(ctx.prog, ctx.prog.body,
                                         ctx.target());
         ctx.inspector = r.inspector;
         ctx.range_loop = r.range_loop;
         ctx.executor = r.executor;
       }});

  add({.name = "simplify-bounds",
       .doc = "resolve MIN/MAX loop bounds using the pipeline hints plus "
              "loop-range facts",
       .options = {},
       .run = [](PipelineContext& ctx, const PassInvocation&) {
         transform::simplify_all_bounds(ctx.prog.body, ctx.hints);
       }});

  add({.name = "selectblock",
       .doc = "choose the blocking factor KS from the machine model (§6): "
              "analytic working-set candidates (75% of L1) refined by a "
              "cache-simulator trace sweep; resolves KS and adds the "
              "full-block hint for later stages",
       .composite = true,
       .options = {{.name = "probe", .kind = OptKind::Int,
                    .doc = "parameter probe size (default: sized to "
                           "overflow L1)"},
                   {.name = "nosweep", .kind = OptKind::Flag,
                    .doc = "analytic choice only, no empirical sweep"},
                   {.name = "grid", .kind = OptKind::Flag,
                    .doc = "also sweep a coverage grid (tolerance "
                           "evidence for --auto-b)"},
                   {.name = "workers", .kind = OptKind::Int,
                    .doc = "simulator threads (default: auto)"}},
       .run = [](PipelineContext& ctx, const PassInvocation& inv) {
         detail::SelectBlockOptions opt;
         opt.probe = inv.int_or("probe", 0);
         opt.sweep = !inv.flag("nosweep");
         opt.grid = inv.flag("grid");
         opt.workers = static_cast<unsigned>(inv.int_or("workers", 0));
         const model::BlockChoice& c = detail::step_selectblock(ctx, opt);
         ctx.stage_note =
             c.ks_name + "=" + std::to_string(c.ks) + " (analytic " +
             std::to_string(c.analytic_ks) +
             (c.swept ? ", swept " + std::to_string(c.table.size()) +
                            " candidates"
                      : ", no sweep") +
             ")";
       }});

  add({.name = "certify",
       .doc = "label every loop parallel / reduction / serial (blk-lint's "
              "certifier) and record the verdicts for later stages; with "
              "check, re-verify each parallel label by section overlap and "
              "fail the pipeline on disagreement",
       .options = {{.name = "check", .kind = OptKind::Flag,
                    .doc = "run the independent write-write race re-check"}},
       .run = [](PipelineContext& ctx, const PassInvocation& inv) {
         sa::CertifyOptions opt{.ctx = &ctx.hints};
         sa::CertifyResult r = sa::certify(ctx.prog, opt);
         if (inv.flag("check")) {
           verify::Report races = sa::check_races(ctx.prog, r, &ctx.hints);
           if (!races.diags.empty())
             throw Error("certify: race re-check disagrees: " +
                         races.diags.front().message);
         }
         ctx.verdicts = std::move(r.loops);
         std::size_t np = 0, nr = 0, ns = 0;
         for (const auto& lv : ctx.verdicts) {
           if (lv.verdict == sa::Verdict::Parallel) ++np;
           else if (lv.verdict == sa::Verdict::Reduction) ++nr;
           else ++ns;
         }
         ctx.stage_note = std::to_string(np) + " parallel, " +
                          std::to_string(nr) + " reduction, " +
                          std::to_string(ns) + " serial";
       }});

  add({.name = "skew",
       .doc = "skew the target 2-nest's inner loop by f (unimodular "
              "wavefront preparation; compose with interchange to expose "
              "the parallel inner loop)",
       .options = {{.name = "f", .kind = OptKind::Int,
                    .doc = "skew factor (default 1)"}},
       .run = [](PipelineContext& ctx, const PassInvocation& inv) {
         ir::Loop& inner =
             transform::skew(ctx.prog, ctx.target(), inv.int_or("f", 1));
         ctx.stage_note = "inner -> DO " + inner.var;
       }});

  add({.name = "parallelize",
       .doc = "build the certified parallel plan the native backend "
              "executes: certify every loop, select the outermost "
              "parallel / scalar sum-product reduction levels, and record "
              "ir::ParallelOptions in the context; with check, first "
              "re-verify each parallel label by independent section "
              "overlap and fail the pipeline on disagreement",
       .options = {{.name = "check", .kind = OptKind::Flag,
                    .doc = "run the independent write-write race re-check"},
                   {.name = "threads", .kind = OptKind::Int,
                    .doc = "fixed thread count baked into the plan "
                           "(default 0: $BLK_THREADS else online CPUs)"}},
       .run = [](PipelineContext& ctx, const PassInvocation& inv) {
         sa::CertifyResult r = sa::certify(ctx.prog, {.ctx = &ctx.hints});
         if (inv.flag("check")) {
           verify::Report races = sa::check_races(ctx.prog, r, &ctx.hints);
           if (!races.diags.empty())
             throw Error("parallelize: race re-check disagrees: " +
                         races.diags.front().message);
         }

         ir::ParallelOptions plan;
         plan.threads = static_cast<int>(inv.int_or("threads", 0));
         std::map<std::string, int> occ;
         int selected_depth = -1;  // skip descendants of a selected loop
         for (const auto& lv : r.loops) {
           const int occurrence = occ[lv.var]++;
           if (selected_depth >= 0 && lv.depth > selected_depth) continue;
           selected_depth = -1;

           ir::ParallelLoop pl;
           pl.var = lv.var;
           pl.occurrence = occurrence;
           std::set<std::string> exempt;  // accumulators: combined, not
                                          // written back last-value
           if (lv.verdict == sa::Verdict::Reduction) {
             if (lv.op != sa::ReduceOp::Sum &&
                 lv.op != sa::ReduceOp::Product)
               continue;  // min/max combine order is not bit-pinned yet
             std::vector<std::string> accs =
                 split_accumulators(lv.accumulator);
             bool all_scalar = !accs.empty();
             for (const auto& acc : accs)
               if (acc.find('(') != std::string::npos) all_scalar = false;
             if (!all_scalar) continue;  // array accumulators stay serial
             pl.reduction = true;
             pl.combine = lv.op == sa::ReduceOp::Sum
                              ? ir::ParallelLoop::Combine::Sum
                              : ir::ParallelLoop::Combine::Product;
             pl.accumulators = std::move(accs);
             for (const auto& acc : pl.accumulators) exempt.insert(acc);
           } else if (lv.verdict != sa::Verdict::Parallel) {
             continue;
           }

           // Privatized scalars are written back from the last chunk;
           // that reproduces serial last-value semantics only when every
           // iteration unconditionally overwrites them.
           if (!lv.loop) continue;
           std::set<std::string> written;
           written_scalars(lv.loop->body, written);
           bool ok = true;
           for (const auto& sc : written)
             if (!exempt.contains(sc) &&
                 !unconditionally_assigned(*lv.loop, sc))
               ok = false;
           if (!ok) continue;

           plan.loops.push_back(std::move(pl));
           selected_depth = lv.depth;
         }

         ctx.verdicts = std::move(r.loops);
         ctx.parallel = std::move(plan);
         ctx.stage_note = ctx.parallel->enabled()
                              ? "plan: " + ctx.parallel->summary()
                              : "no parallelizable loops";
       }});

  // --- composite drivers ---------------------------------------------------

  add({.name = "autoblock",
       .doc = "the §5.1 pipeline: stripmine; split; distribute; "
              "interchange",
       .composite = true,
       .options = {{.name = "b", .kind = OptKind::Expr,
                    .doc = "block size: integer or parameter name"},
                   {.name = "commutativity", .kind = OptKind::Flag,
                    .doc = "arm the §5.2 pattern matcher"}},
       .run = [](PipelineContext& ctx, const PassInvocation& inv) {
         auto r = detail::auto_block_impl(ctx, inv.expr("b"));
         ctx.stage_note = std::string(r.blocked ? "blocked" : "not blocked") +
                          ", " + std::to_string(r.splits) + " splits, " +
                          std::to_string(r.interchanges) + " interchanges";
       }});

  add({.name = "autoblockplus",
       .doc = "autoblock taken to the paper's \"+\" variants: register-"
              "block the derived update nests",
       .composite = true,
       .options = {{.name = "b", .kind = OptKind::Expr,
                    .doc = "block size: integer or parameter name"},
                   {.name = "u", .kind = OptKind::Int,
                    .doc = "unroll factor (default 2)"},
                   {.name = "commutativity", .kind = OptKind::Flag,
                    .doc = "arm the §5.2 pattern matcher"}},
       .run = [](PipelineContext& ctx, const PassInvocation& inv) {
         auto r = detail::auto_block_plus_impl(
             ctx, inv.expr("b"), inv.int_or("u", kDefaultUnroll));
         ctx.stage_note = std::string(r.blocked ? "blocked" : "not blocked") +
                          ", " + std::to_string(ctx.scalar_groups) +
                          " scalar groups";
       }});

  add({.name = "registerblock",
       .doc = "unroll-and-jam the target loop (triangular where the shape "
              "demands) and scalar-replace the innermost loops",
       .composite = true,
       .options = {{.name = "u", .kind = OptKind::Int,
                    .doc = "unroll factor (default 2)"}},
       .run = [](PipelineContext& ctx, const PassInvocation& inv) {
         int groups = detail::step_register_block(
             ctx, ctx.target(), inv.int_or("u", kDefaultUnroll));
         ctx.stage_note = std::to_string(groups) + " scalar groups";
       }});

  add({.name = "optconv",
       .doc = "the §3.2 pipeline: split-trapezoid; normalize rhomboids; "
              "register-block each piece",
       .composite = true,
       .options = {{.name = "u", .kind = OptKind::Int,
                    .doc = "unroll factor (default 4)"}},
       .run = [](PipelineContext& ctx, const PassInvocation& inv) {
         auto r = detail::optimize_convolution_impl(ctx, inv.int_or("u", 4));
         ctx.stage_note = std::to_string(r.pieces.size()) + " pieces, " +
                          std::to_string(r.normalized) + " normalized, " +
                          std::to_string(r.jammed) + " jammed";
       }});

  add({.name = "optgivens",
       .doc = "the §5.4 pipeline: ifinspect(auto) then two interchanges "
              "to make the update loop outermost",
       .composite = true,
       .options = {},
       .run = [](PipelineContext& ctx, const PassInvocation&) {
         detail::optimize_givens_impl(ctx);
       }});
}

}  // namespace blk::pm
