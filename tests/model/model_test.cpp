// Machine-model tests: cache-geometry parsing, the analytic working-set
// model, the empirical sweep (checked against direct simulation), and the
// selectblock pass end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "interp/vm.hpp"
#include "ir/builder.hpp"
#include "ir/error.hpp"
#include "kernels/ir_kernels.hpp"
#include "model/model.hpp"
#include "model/sweep.hpp"
#include "pm/runner.hpp"
#include "pm/spec.hpp"

namespace blk::model {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;

TEST(ParseCacheConfig, AcceptsCommonSpellings) {
  cachesim::CacheConfig c = parse_cache_config("64K/64B/4");
  EXPECT_EQ(c.size_bytes, 64u * 1024);
  EXPECT_EQ(c.line_bytes, 64u);
  EXPECT_EQ(c.assoc, 4u);

  c = parse_cache_config("4M/128/8");  // line's B suffix optional
  EXPECT_EQ(c.size_bytes, 4u * 1024 * 1024);
  EXPECT_EQ(c.line_bytes, 128u);
  EXPECT_EQ(c.assoc, 8u);

  c = parse_cache_config("512B/64B/1");
  EXPECT_EQ(c.size_bytes, 512u);
  EXPECT_EQ(c.assoc, 1u);
}

TEST(ParseCacheConfig, RejectsMalformedInput) {
  EXPECT_THROW(parse_cache_config(""), blk::Error);
  EXPECT_THROW(parse_cache_config("64K"), blk::Error);
  EXPECT_THROW(parse_cache_config("64K/64B"), blk::Error);
  EXPECT_THROW(parse_cache_config("64K/64B/4/2"), blk::Error);
  EXPECT_THROW(parse_cache_config("64Q/64B/4"), blk::Error);
  EXPECT_THROW(parse_cache_config("x/64B/4"), blk::Error);
}

/// The analytic model of point LU's K nest at a probe size.
AnalyticModel lu_model(long probe, const MachineParams& machine) {
  static Program prog = kernels::lu_point_ir();
  static Program* p = &prog;
  Env probe_env{{"N", probe}};
  return build_analytic_model(p->body, p->body[0]->as_loop(), "KS",
                              probe_env, machine);
}

TEST(AnalyticModel, FootprintGrowsMonotonically) {
  MachineParams machine;
  AnalyticModel am = lu_model(128, machine);
  ASSERT_FALSE(am.terms.empty());
  long prev = am.footprint_bytes(2);
  EXPECT_GT(prev, 0);
  for (long ks = 4; ks <= 128; ks *= 2) {
    long f = am.footprint_bytes(ks);
    EXPECT_GE(f, prev) << "footprint must be monotone at ks=" << ks;
    prev = f;
  }
}

TEST(AnalyticModel, LargestFittingRespectsBudget) {
  MachineParams machine;
  machine.levels = {parse_cache_config("16K/64B/4")};
  AnalyticModel am = lu_model(128, machine);
  long pick = am.largest_fitting(2, am.trip);
  EXPECT_GE(pick, 2);
  EXPECT_LE(am.footprint_bytes(pick),
            static_cast<long>(am.budget_bytes))
      << "the pick itself must fit";
  if (pick < am.trip)
    EXPECT_GT(am.footprint_bytes(pick + 1),
              static_cast<long>(am.budget_bytes))
        << "one more iteration must overflow (largest fitting)";
}

TEST(AnalyticModel, BiggerCacheNeverShrinksThePick) {
  MachineParams small, big;
  small.levels = {parse_cache_config("8K/64B/4")};
  big.levels = {parse_cache_config("64K/64B/4")};
  AnalyticModel am_small = lu_model(128, small);
  AnalyticModel am_big = lu_model(128, big);
  EXPECT_GE(am_big.largest_fitting(2, am_big.trip),
            am_small.largest_fitting(2, am_small.trip));
}

TEST(AnalyticModel, CandidatesAreSortedClampedAndContainThePick) {
  MachineParams machine;
  machine.levels = {parse_cache_config("16K/64B/4")};
  AnalyticModel am = lu_model(128, machine);
  std::vector<long> cand = am.candidates();
  ASSERT_FALSE(cand.empty());
  EXPECT_TRUE(std::is_sorted(cand.begin(), cand.end()));
  EXPECT_TRUE(std::adjacent_find(cand.begin(), cand.end()) == cand.end());
  for (long k : cand) {
    EXPECT_GE(k, 2);
    EXPECT_LE(k, am.trip);
  }
  long pick = am.largest_fitting(2, am.trip);
  EXPECT_NE(std::find(cand.begin(), cand.end(), pick), cand.end());
}

/// Block point LU with a runtime-scalar KS, ready for sweep_block_sizes.
Program blocked_lu() {
  Program prog = kernels::lu_point_ir();
  prog.param("KS");
  analysis::Assumptions hints;
  hints.assert_le(isub(iadd(ivar("K"), ivar("KS")), iconst(1)),
                  isub(ivar("N"), iconst(1)));
  pm::RunReport r = pm::run_spec(prog, "autoblock(b=KS)", hints);
  EXPECT_EQ(r.passes[0].note, "blocked, 1 splits, 2 interchanges");
  prog.scalar("KS");
  return prog;
}

TEST(Sweep, ValidatesItsInputs) {
  Program prog = blocked_lu();
  SweepOptions opt;
  opt.probe_params = {{"N", 32}};
  EXPECT_THROW((void)sweep_block_sizes(prog, opt), blk::Error)
      << "empty candidate list";
  opt.candidates = {4, 8};
  opt.ks_scalar = "NOPE";
  EXPECT_THROW((void)sweep_block_sizes(prog, opt), blk::Error)
      << "undeclared ks scalar";
  opt.levels.clear();
  opt.ks_scalar = "KS";
  EXPECT_THROW((void)sweep_block_sizes(prog, opt), blk::Error)
      << "no cache levels";
}

TEST(Sweep, DeterministicAcrossWorkerCounts) {
  Program prog = blocked_lu();
  SweepOptions opt;
  opt.candidates = {4, 8, 16, 32};
  opt.probe_params = {{"N", 48}};
  opt.levels = {parse_cache_config("4K/64B/2")};

  opt.workers = 1;
  SweepResult serial = sweep_block_sizes(prog, opt);
  opt.workers = 4;
  SweepResult parallel = sweep_block_sizes(prog, opt);

  ASSERT_EQ(serial.rows.size(), opt.candidates.size());
  ASSERT_EQ(parallel.rows.size(), serial.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_EQ(serial.rows[i].ks, opt.candidates[i]);
    EXPECT_EQ(parallel.rows[i].ks, serial.rows[i].ks);
    EXPECT_DOUBLE_EQ(parallel.rows[i].metric, serial.rows[i].metric);
    EXPECT_EQ(parallel.rows[i].levels, serial.rows[i].levels);
  }
  EXPECT_EQ(parallel.best_index, serial.best_index);
  EXPECT_EQ(serial.metric_name, "miss_ratio");
}

TEST(Sweep, SameTraceLengthDifferentLocality) {
  // Every candidate does the same arithmetic in a different order: the
  // trace length is KS-invariant, the miss count is not.
  Program prog = blocked_lu();
  SweepOptions opt;
  opt.candidates = {2, 8, 32};
  opt.probe_params = {{"N", 48}};
  opt.levels = {parse_cache_config("4K/64B/2")};
  SweepResult r = sweep_block_sizes(prog, opt);
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0].levels[0].accesses, r.rows[1].levels[0].accesses);
  EXPECT_EQ(r.rows[1].levels[0].accesses, r.rows[2].levels[0].accesses);
  EXPECT_NE(r.rows[0].levels[0].misses, r.rows[1].levels[0].misses);
}

/// The oracle: run each candidate on its own VM and stream the records
/// through its own hierarchy, a batch at a time (traces of millions of
/// accesses stay out of memory).  Every sweep row must match field for
/// field, whatever the trace length.
void expect_sweep_matches_direct_simulation(const Program& prog,
                                            const SweepOptions& opt) {
  SweepResult r = sweep_block_sizes(prog, opt);
  EXPECT_EQ(r.rows.size(), opt.candidates.size());
  for (std::size_t i = 0; i < r.rows.size(); ++i) {
    const CandidateResult& row = r.rows[i];
    SCOPED_TRACE("ks=" + std::to_string(opt.candidates[i]));
    interp::ExecEngine eng(prog, opt.probe_params, interp::Engine::Vm);
    interp::seed_store(eng.store(), 42);  // the sweep's input seed
    for (auto& [name, value] : eng.store().scalars) value = 0.0;
    eng.store().scalars[opt.ks_scalar] =
        static_cast<double>(opt.candidates[i]);
    cachesim::Hierarchy h(opt.levels);
    interp::TraceBuffer tb(
        1 << 14, &h, [](void* ctx, std::span<const interp::TraceRecord> recs) {
          static_cast<cachesim::Hierarchy*>(ctx)->simulate(recs);
        });
    eng.run(tb);
    tb.flush();

    EXPECT_EQ(row.ks, opt.candidates[i]);
    EXPECT_EQ(row.levels.size(), h.num_levels());
    for (std::size_t l = 0; l < row.levels.size() && l < h.num_levels(); ++l)
      EXPECT_EQ(row.levels[l], h.stats(l)) << "level " << l;
    EXPECT_EQ(row.metric, h.stats(0).miss_ratio());
  }
}

TEST(Sweep, MatchesDirectSimulationExactly) {
  SweepOptions opt;
  opt.candidates = {4, 8, 16};
  opt.levels = {parse_cache_config("4K/64B/2"),
                parse_cache_config("16K/64B/4")};
  {
    SCOPED_TRACE("affine: blocked LU");
    opt.probe_params = {{"N", 48}};
    expect_sweep_matches_direct_simulation(blocked_lu(), opt);
  }
  {
    SCOPED_TRACE("data-dependent: IF-guarded matmul");
    Program prog = kernels::matmul_guarded_ir();
    prog.scalar("KS");  // unused by the kernel; satisfies the contract
    opt.probe_params = {{"N", 24}};
    expect_sweep_matches_direct_simulation(prog, opt);
  }
  {
    // ~5.4M accesses per candidate: a trace that long must still be
    // simulated as one pass, with no cache-state reset partway through.
    SCOPED_TRACE("long trace: blocked LU N=160");
    opt.levels = {parse_cache_config("256K/64B/8")};
    opt.probe_params = {{"N", 160}};
    expect_sweep_matches_direct_simulation(blocked_lu(), opt);
  }
}

TEST(Sweep, AmatWhenLatenciesMatchArity) {
  Program prog = blocked_lu();
  SweepOptions opt;
  opt.candidates = {4, 16};
  opt.probe_params = {{"N", 48}};
  opt.levels = {parse_cache_config("2K/64B/2"),
                parse_cache_config("16K/64B/4")};
  opt.latencies = {1.0, 10.0, 100.0};
  SweepResult r = sweep_block_sizes(prog, opt);
  EXPECT_EQ(r.metric_name, "amat");
  for (const CandidateResult& row : r.rows) {
    ASSERT_EQ(row.levels.size(), 2u);
    EXPECT_GE(row.metric, 1.0);  // AMAT is bounded below by the L1 latency
  }
}

TEST(SelectBlock, EndToEndThroughThePassManager) {
  Program prog = kernels::lu_point_ir();
  prog.param("KS");
  analysis::Assumptions hints;
  pm::Pipeline pipe = pm::parse_pipeline(
      "selectblock(probe=48); stripmine(b=KS); split; distribute; "
      "interchange");
  pm::PipelineContext ctx(prog, hints);
  ctx.machine = {parse_cache_config("4K/64B/2")};
  pm::run_pipeline(pipe, ctx);

  ASSERT_TRUE(ctx.block_choice.has_value());
  const BlockChoice& bc = *ctx.block_choice;
  EXPECT_GE(bc.ks, 2);
  EXPECT_TRUE(bc.swept);
  EXPECT_EQ(bc.metric_name, "miss_ratio");
  EXPECT_FALSE(bc.table.empty());
  // selectblock resolves the symbolic factor for later VM checks.
  ASSERT_TRUE(ctx.resolved.contains("KS"));
  EXPECT_EQ(ctx.resolved.at("KS"), bc.ks);
  // Every swept row was simulated; nothing comes from a trace store.
  EXPECT_EQ(bc.store_hits, 0u);
  EXPECT_EQ(bc.store_misses, bc.table.size());
  // The chosen ks is the metric argmin over the model's candidates.
  for (const BlockChoice::Row& row : bc.table)
    if (row.from_model) EXPECT_LE(bc.chosen_metric, row.metric + 1e-12);
  // The printed program stays symbolic: a KS parameter, blocked loops.
  EXPECT_TRUE(bc.within_tolerance(1.0));  // sanity: within 100%
}

TEST(SelectBlock, NosweepIsAnalyticOnly) {
  Program prog = kernels::lu_point_ir();
  prog.param("KS");
  analysis::Assumptions hints;
  pm::Pipeline pipe = pm::parse_pipeline("selectblock(nosweep, probe=64)");
  pm::PipelineContext ctx(prog, hints);
  ctx.machine = {parse_cache_config("16K/64B/4")};
  pm::run_pipeline(pipe, ctx);
  ASSERT_TRUE(ctx.block_choice.has_value());
  EXPECT_FALSE(ctx.block_choice->swept);
  EXPECT_EQ(ctx.block_choice->ks, ctx.block_choice->analytic_ks);
  EXPECT_EQ(ctx.resolved.at("KS"), ctx.block_choice->ks);
}

TEST(BlockChoice, ToleranceComparesAgainstSweptOptimum) {
  BlockChoice bc;
  bc.swept = true;
  bc.table.push_back({.ks = 8, .metric = 0.10});
  bc.table.push_back({.ks = 16, .metric = 0.11});
  bc.chosen_metric = 0.11;
  bc.best_swept_metric = 0.10;
  EXPECT_FALSE(bc.within_tolerance(0.05));
  EXPECT_TRUE(bc.within_tolerance(0.10));
  EXPECT_TRUE(bc.within_tolerance(0.20));
  bc.chosen_metric = bc.best_swept_metric;  // chosen == optimum
  EXPECT_TRUE(bc.within_tolerance(0.0));
}

TEST(BlockChoice, JsonCarriesModelAndSweep) {
  Program prog = kernels::lu_point_ir();
  prog.param("KS");
  analysis::Assumptions hints;
  pm::Pipeline pipe = pm::parse_pipeline("selectblock(grid, probe=48)");
  pm::PipelineContext ctx(prog, hints);
  ctx.machine = {parse_cache_config("4K/64B/2")};
  pm::run_pipeline(pipe, ctx);
  ASSERT_TRUE(ctx.block_choice.has_value());
  std::string json = ctx.block_choice->to_json();
  EXPECT_NE(json.find("\"analytic_ks\""), std::string::npos);
  EXPECT_NE(json.find("\"sweep\""), std::string::npos);
  EXPECT_NE(json.find("\"within_tolerance\""), std::string::npos);
  EXPECT_NE(json.find("\"from_model\""), std::string::npos);
}

}  // namespace
}  // namespace blk::model
