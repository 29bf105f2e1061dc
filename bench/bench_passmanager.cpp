// Pass-manager analysis caching (DESIGN §10; no §4 experiment id): the
// same declarative pipelines with the context's AnalysisManager caching on
// (the default) vs off (every query rebuilt, the pre-manager behaviour).  The interesting number is
// the analysis-construction time the cache saves: Procedure IndexSetSplit
// alone used to rebuild the same dependence graph three to four times per
// trial iteration.  Target: >= 1.5x analysis-time reduction on the §5.1
// block-LU derivation.
//
// Writes machine-readable results (BENCH_pm.json by default, override
// with --bench_json=<path>) so CI can archive the reduction history.
#include <cstdio>
#include <string>

#include "bench/benchutil.hpp"
#include "ir/builder.hpp"
#include "kernels/ir_kernels.hpp"
#include "pm/runner.hpp"
#include "pm/spec.hpp"

namespace {

using namespace blk;
using namespace blk::ir::dsl;

struct Scenario {
  const char* name;
  ir::Program (*make)();
  const char* spec;
  const char* block;  // the symbolic block-size parameter in the hint
};

const Scenario kScenarios[] = {
    {"block_lu", &kernels::lu_point_ir,
     "stripmine(b=KS); split; distribute; interchange", "KS"},
    {"pivoted_block_lu", &kernels::lu_pivot_point_ir,
     "stripmine(b=BS); split; distribute(commutativity); interchange",
     "BS"},
};

analysis::Assumptions hints_for(const Scenario& s) {
  analysis::Assumptions hints;
  hints.assert_le(v("K") + v(s.block) - 1, v("N") - 1);
  return hints;
}

/// One full pipeline run; returns the wall time spent *constructing*
/// analyses (cache misses), the quantity caching exists to shrink.
double analysis_seconds(const Scenario& s, bool caching) {
  ir::Program p = s.make();
  pm::PipelineContext ctx(p, hints_for(s));
  ctx.am.set_caching(caching);
  (void)pm::run_pipeline(pm::parse_pipeline(s.spec), ctx);
  return ctx.am.stats().build_seconds;
}

void BM_Pipeline(benchmark::State& st, const Scenario& s, bool caching) {
  double analysis = 0;
  for (auto _ : st) {
    analysis += analysis_seconds(s, caching);
  }
  st.counters["analysis_s"] = benchmark::Counter(
      analysis, benchmark::Counter::kAvgIterations);
}

void register_all() {
  for (const Scenario& s : kScenarios) {
    benchmark::RegisterBenchmark(
        (std::string("BM_Cached/") + s.name).c_str(),
        [&s](benchmark::State& st) { BM_Pipeline(st, s, true); });
    benchmark::RegisterBenchmark(
        (std::string("BM_Uncached/") + s.name).c_str(),
        [&s](benchmark::State& st) { BM_Pipeline(st, s, false); });
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string json =
      blk::bench::extract_json_path(argc, argv, "BENCH_pm.json");
  register_all();
  auto rep = blk::bench::run_all(argc, argv);

  // Direct measurement for the table and the JSON artifact: average the
  // analysis-construction seconds over a few runs of each configuration.
  constexpr int kReps = 3;
  blk::bench::JsonWriter jw(json);
  blk::bench::Table t({"Pipeline", "Analysis (uncached)",
                       "Analysis (cached)", "Reduction"});
  for (const Scenario& s : kScenarios) {
    double uncached = 0, cached = 0;
    for (int i = 0; i < kReps; ++i) {
      uncached += analysis_seconds(s, false);
      cached += analysis_seconds(s, true);
    }
    uncached /= kReps;
    cached /= kReps;
    t.row({s.name, blk::bench::fmt_time(uncached),
           blk::bench::fmt_time(cached),
           blk::bench::fmt_speedup(uncached, cached)});
    jw.row(std::string("analysis_uncached/") + s.name, uncached);
    jw.row(std::string("analysis_cached/") + s.name, cached,
           cached > 0 ? uncached / cached : 0.0);
  }
  t.print("A5: analysis-construction time per pipeline run (AnalysisManager "
          "caching off vs on; target >=1.5x reduction)");
  if (jw.write()) std::printf("\nwrote %s\n", json.c_str());
  return 0;
}
