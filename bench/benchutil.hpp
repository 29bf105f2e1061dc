// Shared benchmark plumbing: google-benchmark as the timing engine, plus a
// capture reporter so each binary can end with the paper-style table
// (the same rows the 1992 tables report, with measured speedups).
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

// Compile flags of the benchmark binary, stamped in by bench/CMakeLists.txt
// so the JSON reports say how the numbers were produced.
#ifndef BLK_BENCH_FLAGS
#define BLK_BENCH_FLAGS ""
#endif

namespace blk::bench {

/// What produced the numbers: every --bench_json report embeds this so a
/// result file is interpretable without the CI log it came from.
struct HostInfo {
  std::string compiler;  ///< e.g. "gcc 12.2.0"
  std::string flags;     ///< benchmark binary's compile flags
  std::string cpu;       ///< /proc/cpuinfo model name (or "unknown")
  unsigned cores = 0;    ///< std::thread::hardware_concurrency()
};

[[nodiscard]] inline HostInfo host_info() {
  HostInfo h;
#if defined(__clang__)
  h.compiler = std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  h.compiler = std::string("gcc ") + __VERSION__;
#else
  h.compiler = "unknown";
#endif
  h.flags = BLK_BENCH_FLAGS;
  h.cpu = "unknown";
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[512];
    while (std::fgets(line, sizeof line, f)) {
      if (std::strncmp(line, "model name", 10) != 0) continue;
      const char* colon = std::strchr(line, ':');
      if (!colon) break;
      std::string name = colon + 1;
      while (!name.empty() && (name.front() == ' ' || name.front() == '\t'))
        name.erase(name.begin());
      while (!name.empty() && (name.back() == '\n' || name.back() == ' '))
        name.pop_back();
      if (!name.empty()) h.cpu = name;
      break;
    }
    std::fclose(f);
  }
  h.cores = std::thread::hardware_concurrency();
  return h;
}

/// Machine-readable result sink, opt-in via `--bench_json=<path>`.
///
/// Schema 3: one object {"schema": 3, "host": {compiler, flags, cpu,
/// cores, threads, parallel}, <extras>, "rows": [{benchmark, seconds,
/// speedup_vs_baseline}]} — speedup is null for baseline rows, extras are
/// raw JSON values added with extra() (e.g. the native engine's
/// compile/cache stats).  `threads` is how many threads the run was
/// allowed (defaults to the core count) and `parallel` whether any
/// benchmark executed a parallel plan — schema 2 files, which lack both
/// fields, remain readable by treating them as cores/false.  CI uploads
/// these files as artifacts so perf history survives the run.
class JsonWriter {
 public:
  /// `path` may be empty (writer disabled).
  explicit JsonWriter(std::string path) : path_(std::move(path)) {}

  [[nodiscard]] bool enabled() const { return !path_.empty(); }

  /// Thread budget recorded in the host block (default: core count).
  void set_threads(unsigned n) { threads_ = n; }
  /// Whether any benchmark in this report ran a parallel plan.
  void set_parallel(bool on) { parallel_ = on; }

  void row(const std::string& benchmark, double seconds,
           double speedup_vs_baseline = -1.0) {
    rows_.push_back({benchmark, seconds, speedup_vs_baseline});
  }

  /// Attach a pre-rendered JSON value under a top-level key.
  void extra(const std::string& key, const std::string& raw_json) {
    extras_.emplace_back(key, raw_json);
  }

  /// Write the collected report; returns false when disabled or on I/O
  /// error.
  bool write() const {
    if (!enabled()) return false;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench_json: cannot open %s\n", path_.c_str());
      return false;
    }
    const HostInfo h = host_info();
    std::fprintf(f, "{\n  \"schema\": 3,\n");
    std::fprintf(f,
                 "  \"host\": {\"compiler\": \"%s\", \"flags\": \"%s\", "
                 "\"cpu\": \"%s\", \"cores\": %u, \"threads\": %u, "
                 "\"parallel\": %s},\n",
                 json_escape(h.compiler).c_str(),
                 json_escape(h.flags).c_str(), json_escape(h.cpu).c_str(),
                 h.cores, threads_ ? threads_ : h.cores,
                 parallel_ ? "true" : "false");
    for (const auto& [key, raw] : extras_)
      std::fprintf(f, "  \"%s\": %s,\n", json_escape(key).c_str(),
                   raw.c_str());
    std::fprintf(f, "  \"rows\": [\n");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      std::fprintf(f, "    {\"benchmark\": \"%s\", \"seconds\": %.9g, ",
                   json_escape(r.benchmark).c_str(), r.seconds);
      if (r.speedup > 0)
        std::fprintf(f, "\"speedup_vs_baseline\": %.6g}", r.speedup);
      else
        std::fprintf(f, "\"speedup_vs_baseline\": null}");
      std::fprintf(f, i + 1 < rows_.size() ? ",\n" : "\n");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  struct Row {
    std::string benchmark;
    double seconds;
    double speedup;
  };

  static std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) < 0x20) continue;  // control chars
      out.push_back(c);
    }
    return out;
  }

  std::string path_;
  std::vector<Row> rows_;
  std::vector<std::pair<std::string, std::string>> extras_;
  unsigned threads_ = 0;  ///< 0: report the core count
  bool parallel_ = false;
};

/// Pull `--bench_json=<path>` out of argv (google-benchmark rejects flags
/// it does not know).  Returns `fallback` when the flag is absent; pass an
/// empty fallback to keep JSON opt-in.
inline std::string extract_json_path(int& argc, char** argv,
                                     const std::string& fallback = "") {
  const char* kFlag = "--bench_json=";
  std::string path = fallback;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0)
      path = argv[i] + std::strlen(kFlag);
    else
      argv[out++] = argv[i];
  }
  argc = out;
  return path;
}

/// Sentinel for "this benchmark did not run" (filtered out, or its name
/// was misspelled).  fmt_time/fmt_speedup render it "n/a", so a partial
/// run still prints a complete table instead of dying on a lookup.
inline constexpr double kNotRun = -1.0;

/// Console reporter that also records per-iteration real time (s) under
/// each benchmark's full name ("BM_LuPoint/300").  Under
/// --benchmark_repetitions a name keeps its fastest repetition; the
/// aggregate rows (_mean, _median, ...) are not recorded.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  std::map<std::string, double> seconds;

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      if (r.run_type == Run::RT_Aggregate || r.iterations <= 0) continue;
      const double s =
          r.real_accumulated_time / static_cast<double>(r.iterations);
      auto [it, fresh] = seconds.try_emplace(r.benchmark_name(), s);
      if (!fresh) it->second = std::min(it->second, s);
    }
    ConsoleReporter::ReportRuns(runs);
  }

  /// Time for a name, or kNotRun when the benchmark did not run.
  [[nodiscard]] double get(const std::string& name) const {
    auto it = seconds.find(name);
    return it == seconds.end() ? kNotRun : it->second;
  }
};

/// Run all registered benchmarks and return the capture.
inline CaptureReporter run_all(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  CaptureReporter rep;
  benchmark::RunSpecifiedBenchmarks(&rep);
  return rep;
}

/// Format seconds like the paper's tables (e.g. "2.55s" scaled to ms when
/// small).
inline std::string fmt_time(double s) {
  char buf[32];
  if (s < 0) return "n/a";
  if (s >= 0.1)
    std::snprintf(buf, sizeof buf, "%.2fs", s);
  else
    std::snprintf(buf, sizeof buf, "%.3fms", s * 1e3);
  return buf;
}

inline std::string fmt_speedup(double base, double other) {
  if (base < 0 || other <= 0) return "n/a";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", base / other);
  return buf;
}

/// Minimal fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> header)
      : header_(std::move(header)) {}

  void row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print(const std::string& title) const {
    std::vector<std::size_t> w(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c) w[c] = header_[c].size();
    for (const auto& r : rows_)
      for (std::size_t c = 0; c < r.size() && c < w.size(); ++c)
        if (r[c].size() > w[c]) w[c] = r[c].size();
    std::printf("\n=== %s ===\n", title.c_str());
    auto line = [&](const std::vector<std::string>& cells) {
      std::printf("|");
      for (std::size_t c = 0; c < header_.size(); ++c)
        std::printf(" %-*s |", static_cast<int>(w[c]),
                    c < cells.size() ? cells[c].c_str() : "");
      std::printf("\n");
    };
    line(header_);
    std::printf("|");
    for (std::size_t c = 0; c < header_.size(); ++c) {
      for (std::size_t i = 0; i < w[c] + 2; ++i) std::printf("-");
      std::printf("|");
    }
    std::printf("\n");
    for (const auto& r : rows_) line(r);
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace blk::bench
