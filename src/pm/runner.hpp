// Pipeline execution with per-pass observability.
//
// run_pipeline drives a parsed Pipeline over a PipelineContext with the
// context's AnalysisManager installed, recording for every stage its wall
// time, the statement-count IR delta, and the analysis-cache hit/miss
// delta.  report_json renders the result in the same spirit as the
// benchmark suite's --bench_json files.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "pm/pass.hpp"

namespace blk::pm {

/// Observability record for one executed stage.
struct PassStat {
  std::string invocation;   ///< canonical spelling, e.g. "stripmine(b=BS)"
  double seconds = 0.0;
  long stmts_before = 0;    ///< IR statement count entering the stage
  long stmts_after = 0;
  std::uint64_t analysis_hits = 0;    ///< cache hits during the stage
  std::uint64_t analysis_misses = 0;
  bool skipped = false;     ///< the stage decided to no-op
  std::string note;         ///< stage-provided detail
};

/// Result of a pipeline run.
struct RunReport {
  std::vector<PassStat> passes;
  double total_seconds = 0.0;
  analysis::AnalysisManager::Stats analysis;  ///< final cache counters
};

/// Count every statement node under `body` (loops, ifs, assignments).
[[nodiscard]] long stmt_count(const ir::StmtList& body);

/// Execute `pipe` over `ctx`.  Installs ctx.am for the duration, arms
/// ctx.commutativity when any stage names it, and records per-stage
/// stats.  Throws blk::Error out of the failing stage (IR state is
/// whatever the stage left; use verify::VerifiedPipeline around the run
/// for transactional checking).
RunReport run_pipeline(const Pipeline& pipe, PipelineContext& ctx);

/// Parse `spec` and run it over a fresh context for `p`.  Convenience
/// entry for tests and tools.
RunReport run_spec(ir::Program& p, std::string_view spec,
                   const analysis::Assumptions& hints = {});

/// Render a run report as a JSON object (pretty-printed, stable key
/// order) — the payload blk-opt writes for --bench_json.  `native_json`,
/// when non-empty, is spliced in verbatim under the "native" key (the
/// caller passes native::stats_json(); pm itself stays independent of
/// the backend).
[[nodiscard]] std::string report_json(const RunReport& report,
                                      std::string_view program,
                                      std::string_view pipeline,
                                      std::string_view native_json = {});

}  // namespace blk::pm
