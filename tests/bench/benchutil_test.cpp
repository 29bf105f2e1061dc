// The benchmark plumbing's missing-row contract: a benchmark name that
// never ran (filtered out, or misspelled) yields the kNotRun sentinel and
// renders "n/a" in the paper-style tables instead of crashing or printing
// a garbage negative time.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "bench/benchutil.hpp"

namespace blk::bench {
namespace {

TEST(CaptureReporter, MissingNameReturnsSentinel) {
  CaptureReporter rep;
  EXPECT_EQ(rep.get("BM_Nonexistent/500"), kNotRun);
  rep.seconds["BM_Real/10"] = 0.25;
  EXPECT_EQ(rep.get("BM_Real/10"), 0.25);
  EXPECT_EQ(rep.get("BM_Real/11"), kNotRun);
}

TEST(CaptureReporter, KeepsFastestRepetitionAndSkipsAggregates) {
  using Run = benchmark::BenchmarkReporter::Run;
  auto run = [](double seconds, Run::RunType type, const char* aggregate) {
    Run r;
    r.run_name.function_name = "BM_Real/10";
    r.run_type = type;
    r.aggregate_name = aggregate;
    r.iterations = 4;
    r.real_accumulated_time = 4 * seconds;
    r.cpu_accumulated_time = 4 * seconds;
    return r;
  };
  CaptureReporter rep;
  std::ostringstream console;
  rep.SetOutputStream(&console);
  rep.SetErrorStream(&console);
  // Repetitions arrive one report each, then the aggregates together.
  rep.ReportRuns({run(0.25, Run::RT_Iteration, "")});
  rep.ReportRuns({run(0.5, Run::RT_Iteration, "")});
  rep.ReportRuns({run(0.375, Run::RT_Aggregate, "mean")});
  EXPECT_EQ(rep.get("BM_Real/10"), 0.25);
  EXPECT_EQ(rep.get("BM_Real/10_mean"), kNotRun);
  EXPECT_EQ(rep.seconds.size(), 1u);
}

TEST(FmtTime, RendersSentinelAsNa) {
  EXPECT_EQ(fmt_time(kNotRun), "n/a");
  EXPECT_EQ(fmt_time(-0.001), "n/a");  // any negative is "did not run"
  EXPECT_EQ(fmt_time(2.551), "2.55s");
  EXPECT_EQ(fmt_time(0.0025), "2.500ms");
}

TEST(FmtSpeedup, SentinelOnEitherSideIsNa) {
  EXPECT_EQ(fmt_speedup(kNotRun, 1.0), "n/a");
  EXPECT_EQ(fmt_speedup(1.0, kNotRun), "n/a");
  EXPECT_EQ(fmt_speedup(1.0, 0.0), "n/a");  // division guard
  EXPECT_EQ(fmt_speedup(2.0, 1.0), "2.00");
}

TEST(JsonWriter, DisabledWriterRefusesToWrite) {
  JsonWriter w("");
  EXPECT_FALSE(w.enabled());
  w.row("BM_X", 1.0);
  EXPECT_FALSE(w.write());
}

TEST(HostInfo, PopulatesTheReportMetadata) {
  HostInfo h = host_info();
  EXPECT_FALSE(h.compiler.empty());
  EXPECT_NE(h.compiler, "unknown") << "test binary built by gcc or clang";
  EXPECT_GE(h.cores, 1u);
  EXPECT_FALSE(h.cpu.empty());
}

// The schema-3 report shape is pinned: {"schema": 3, "host": {compiler,
// flags, cpu, cores, threads, parallel}, <extras>, "rows": [...]}.  CI
// readers index ["rows"]; changing this layout must break here first.
TEST(JsonWriter, Schema3ShapeIsPinned) {
  std::string path =
      std::string(::testing::TempDir()) + "/benchutil_schema3.json";
  JsonWriter w(path);
  w.row("BM_Base/10", 0.5);
  w.row("BM_Fast/10", 0.25, 2.0);
  w.extra("native", "{\"compiles\": 3}");
  w.set_threads(8);
  w.set_parallel(true);
  ASSERT_TRUE(w.write());

  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  for (const char* needle :
       {"\"schema\": 3", "\"host\": {\"compiler\": \"", "\"flags\": \"",
        "\"cpu\": \"", "\"cores\": ", "\"threads\": 8",
        "\"parallel\": true", "\"native\": {\"compiles\": 3}",
        "\"rows\": [", "{\"benchmark\": \"BM_Base/10\", \"seconds\": 0.5, "
        "\"speedup_vs_baseline\": null}",
        "{\"benchmark\": \"BM_Fast/10\", \"seconds\": 0.25, "
        "\"speedup_vs_baseline\": 2}"}) {
    EXPECT_NE(text.find(needle), std::string::npos)
        << "missing " << needle << " in:\n" << text;
  }
}

// Serial reports (no setter calls) default the new fields to the core
// count and false, so schema-2 era producers keep a sensible host block.
TEST(JsonWriter, ThreadsDefaultToCoresAndParallelToFalse) {
  std::string path =
      std::string(::testing::TempDir()) + "/benchutil_schema3_serial.json";
  JsonWriter w(path);
  w.row("BM_Base/10", 0.5);
  ASSERT_TRUE(w.write());
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::string threads =
      "\"threads\": " + std::to_string(host_info().cores);
  EXPECT_NE(text.find(threads), std::string::npos) << text;
  EXPECT_NE(text.find("\"parallel\": false"), std::string::npos) << text;
}

TEST(JsonWriter, EscapesQuotesAndBackslashes) {
  std::string path =
      std::string(::testing::TempDir()) + "/benchutil_escape.json";
  JsonWriter w(path);
  w.row("BM_\"quoted\"\\path", 1.0);
  ASSERT_TRUE(w.write());
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("BM_\\\"quoted\\\"\\\\path"), std::string::npos)
      << text;
}

}  // namespace
}  // namespace blk::bench
