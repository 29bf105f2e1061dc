#include "pm/runner.hpp"

#include <chrono>
#include <sstream>

#include "ir/error.hpp"
#include "pm/spec.hpp"

namespace blk::pm {

long stmt_count(const ir::StmtList& body) {
  long n = 0;
  ir::for_each_stmt(body, [&](const ir::Stmt&) { ++n; });
  return n;
}

RunReport run_pipeline(const Pipeline& pipe, PipelineContext& ctx) {
  using clock = std::chrono::steady_clock;
  analysis::ScopedAnalysisManager scope(ctx.am);
  if (pipe.uses_commutativity()) ctx.commutativity = true;

  RunReport report;
  auto run_start = clock::now();
  for (const PassInvocation& inv : pipe.passes) {
    const PassInfo* info = Registry::instance().lookup(inv.pass);
    if (!info) throw Error("pipeline: unknown pass '" + inv.pass + "'");

    PassStat stat;
    stat.invocation = inv.to_string();
    stat.stmts_before = stmt_count(ctx.prog.body);
    std::uint64_t hits0 = ctx.am.stats().hits();
    std::uint64_t misses0 = ctx.am.stats().misses();
    ctx.stage_skipped = false;
    ctx.stage_note.clear();

    auto t0 = clock::now();
    info->run(ctx, inv);
    auto t1 = clock::now();

    stat.seconds = std::chrono::duration<double>(t1 - t0).count();
    stat.stmts_after = stmt_count(ctx.prog.body);
    stat.analysis_hits = ctx.am.stats().hits() - hits0;
    stat.analysis_misses = ctx.am.stats().misses() - misses0;
    stat.skipped = ctx.stage_skipped;
    stat.note = ctx.stage_note;
    report.passes.push_back(std::move(stat));
  }
  report.total_seconds =
      std::chrono::duration<double>(clock::now() - run_start).count();
  report.analysis = ctx.am.stats();
  return report;
}

RunReport run_spec(ir::Program& p, std::string_view spec,
                   const analysis::Assumptions& hints) {
  Pipeline pipe = parse_pipeline(spec);
  PipelineContext ctx(p, hints);
  return run_pipeline(pipe, ctx);
}

namespace {

std::string json_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace

std::string report_json(const RunReport& report, std::string_view program,
                        std::string_view pipeline,
                        std::string_view native_json) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"program\": \"" << json_escape(program) << "\",\n";
  os << "  \"pipeline\": \"" << json_escape(pipeline) << "\",\n";
  os << "  \"total_seconds\": " << report.total_seconds << ",\n";
  os << "  \"analysis\": {\"hits\": " << report.analysis.hits()
     << ", \"misses\": " << report.analysis.misses()
     << ", \"invalidations\": " << report.analysis.invalidations
     << ", \"build_seconds\": " << report.analysis.build_seconds << "},\n";
  if (!native_json.empty())
    os << "  \"native\": " << native_json << ",\n";
  os << "  \"passes\": [\n";
  for (std::size_t i = 0; i < report.passes.size(); ++i) {
    const PassStat& p = report.passes[i];
    os << "    {\"pass\": \"" << json_escape(p.invocation) << "\""
       << ", \"seconds\": " << p.seconds
       << ", \"stmts_before\": " << p.stmts_before
       << ", \"stmts_after\": " << p.stmts_after
       << ", \"analysis_hits\": " << p.analysis_hits
       << ", \"analysis_misses\": " << p.analysis_misses
       << ", \"skipped\": " << (p.skipped ? "true" : "false");
    if (!p.note.empty()) os << ", \"note\": \"" << json_escape(p.note) << "\"";
    os << "}" << (i + 1 < report.passes.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

}  // namespace blk::pm
