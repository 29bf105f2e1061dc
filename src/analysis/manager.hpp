// AnalysisManager: memoization of the expensive program analyses
// (dependence graphs and regular sections) keyed by statement-subtree
// identity, with invalidation driven by the pass instrumentation hooks
// (transform/instrument.hpp).
//
// Why: every driver in the repo used to rebuild `DepGraph` from scratch at
// each step — Procedure IndexSetSplit alone builds the same graph three to
// four times per trial iteration (candidate scan, shape-before, shape-
// after, next-iteration scan) even though the tree only changes when a
// trial split commits.  The manager caches analysis results between IR
// mutations: every PassScope ends with `notify_pass_end`, which drops every
// cached result (every transformation rewrites statement nodes somewhere
// under its root, and both analysis families key on node identity;
// aborted passes restore values, not node identities).
//
// Lifetime: dependence graphs are handed out as shared_ptr, so a client
// holding a graph across a nested committed pass (IndexSetSplit iterating
// recurrence edges while trial splits commit) keeps its — now stale, but
// valid — copy alive, exactly as the old stack-built graphs did.
//
// Threading: managers are installed per thread (the fuzzer runs campaigns
// from a thread pool).  `ScopedAnalysisManager` pushes onto a thread_local
// stack, mirroring the pass-observer discipline; transforms reach the
// innermost installed manager through `dep_graph_for`, which degrades to
// a fresh build when no manager is active — caching is a pure
// accelerator, never a requirement.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/depgraph.hpp"
#include "analysis/sections.hpp"

namespace blk::analysis {

using DepGraphPtr = std::shared_ptr<const DepGraph>;

class AnalysisManager {
 public:
  /// `caching = false` builds every query fresh while still collecting
  /// counters and build time — the uncached baseline for benchmarks.
  explicit AnalysisManager(bool caching = true) : caching_(caching) {}

  AnalysisManager(const AnalysisManager&) = delete;
  AnalysisManager& operator=(const AnalysisManager&) = delete;

  /// Memoized `DepGraph(root, loop, ctx)`.
  DepGraphPtr dep_graph(ir::StmtList& root, ir::Loop& loop,
                        const Assumptions* ctx = nullptr);

  /// Memoized `section_within(ref, outer)` (keyed by the reference's
  /// subscript-node identities, which are stable between IR mutations).
  Section section_within(const RefInfo& ref, const ir::Loop& outer);

  /// Drop every cached result.  Called from the PassScope hook; also call
  /// directly after mutating the tree outside any pass (manual trial
  /// undo).
  void invalidate();

  [[nodiscard]] bool caching() const { return caching_; }

  /// Flip caching at run time — the benchmark baseline drives the same
  /// pipeline (and the same context-owned manager) with caching off.
  /// Disabling drops any cached results so later queries rebuild.
  void set_caching(bool on) {
    caching_ = on;
    if (!on) {
      dep_cache_.clear();
      section_cache_.clear();
    }
  }

  struct Stats {
    std::uint64_t dep_hits = 0, dep_misses = 0;
    std::uint64_t section_hits = 0, section_misses = 0;
    std::uint64_t invalidations = 0;
    double build_seconds = 0;  ///< wall time constructing analyses (misses)

    [[nodiscard]] std::uint64_t hits() const {
      return dep_hits + section_hits;
    }
    [[nodiscard]] std::uint64_t misses() const {
      return dep_misses + section_misses;
    }
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  struct DepKey {
    const void* root;
    const void* loop;
    const void* ctx;
    std::size_t ctx_facts;  ///< guards against in-place ctx mutation
    auto operator<=>(const DepKey&) const = default;
  };
  struct SectionKey {
    const void* outer;
    std::string array;
    bool is_write;
    std::vector<const void*> subs;
    std::vector<const void*> loops;
    auto operator<=>(const SectionKey&) const = default;
  };

  bool caching_;
  Stats stats_;
  std::map<DepKey, DepGraphPtr> dep_cache_;
  std::map<SectionKey, Section> section_cache_;
};

/// The innermost manager installed on this thread (nullptr when none).
[[nodiscard]] AnalysisManager* current_analysis_manager();

/// RAII installation of a manager on this thread's stack.
class ScopedAnalysisManager {
 public:
  explicit ScopedAnalysisManager(AnalysisManager& am);
  ~ScopedAnalysisManager();
  ScopedAnalysisManager(const ScopedAnalysisManager&) = delete;
  ScopedAnalysisManager& operator=(const ScopedAnalysisManager&) = delete;

 private:
  AnalysisManager* installed_;
};

/// Pass-end hook (called by ~PassScope on every pass, committed or not):
/// invalidates the current manager's caches.
void notify_pass_end();

/// Notify the current manager (if any) that the tree changed outside any
/// pass scope — the manual trial-undo path of Procedure IndexSetSplit.
void notify_ir_mutation();

/// Memoizing entry points for transform code: consult the thread's
/// current manager when installed, else compute fresh.
[[nodiscard]] DepGraphPtr dep_graph_for(ir::StmtList& root, ir::Loop& loop,
                                        const Assumptions* ctx = nullptr);
[[nodiscard]] Section section_within_for(const RefInfo& ref,
                                         const ir::Loop& outer);

}  // namespace blk::analysis
