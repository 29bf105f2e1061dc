// Machine model for blocking-factor selection (§6: the whole pitch of
// BLOCK DO is that the *compiler* chooses KS, not the programmer).
//
// The analytic half follows the Lam/Rothberg/Wolf working-set rule as
// closed-formed by Coleman & McKinley's TSS: from the reuse classes of the
// focus nest (analysis::analyze_reuse) build the blocked nest's footprint
// as a function of the blocking factor KS — per array reference, the
// per-dimension span is KS-proportional where the subscript tracks the
// blocked loop variable, a full loop extent where it tracks an unblocked
// loop, and one cache line for KS-invariant streaming references — then
// pick the largest KS whose footprint fits an effective fraction of the
// cache (interference headroom), and emit that KS plus its neighbours as
// the candidate set for the empirical sweep (sweep.hpp) to referee.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cachesim/cache.hpp"
#include "ir/iexpr.hpp"
#include "ir/program.hpp"

namespace blk::model {

/// Share of L1 capacity the blocked working set may fill; the rest is
/// headroom for interference misses.
inline constexpr double kEffectiveFraction = 0.75;

/// Memory-hierarchy description consumed by the selector.  `levels[0]` is
/// the cache whose capacity bounds the analytic footprint; `latencies`
/// (one per level plus memory) switches the sweep metric from L1 miss
/// ratio to AMAT when its arity matches.
struct MachineParams {
  /// Default: one CacheConfig{} level.  (Sized, not brace-initialized:
  /// GCC 12 warns maybe-uninitialized on the braced default.)
  std::vector<cachesim::CacheConfig> levels =
      std::vector<cachesim::CacheConfig>(1);
  std::vector<double> latencies;   ///< empty: rank by miss ratio
  std::size_t element_bytes = 8;   ///< REAL*8

  [[nodiscard]] const cachesim::CacheConfig& l1() const {
    return levels.front();
  }
};

/// The size every unbound parameter is probed at: the arrays must
/// overflow L1 or every candidate looks equally good, so grow from 16 in
/// steps of 16 until one N x N array is twice the L1 size (capped at 512).
[[nodiscard]] long probe_size(const MachineParams& machine);

/// Parse "64K/64B/4" (size/line/associativity; K and M suffixes accepted,
/// the B on the line size optional) into a cache geometry.  Throws
/// blk::Error on malformed input.
[[nodiscard]] cachesim::CacheConfig parse_cache_config(const std::string& s);

/// One array reference's contribution to the blocked working set.
struct FootprintTerm {
  std::string array;
  std::string subscripts;  ///< printed subscript list (dedup key, evidence)

  /// Per-dimension span of the region touched while the blocked loop
  /// variable ranges over one block of KS iterations:
  ///   span(ks) = 1 + ks_coef*(ks-1) + fixed_extent
  ///            + sum |coef| * (eval(extent_expr, env + {KS: ks}) - 1)
  /// The dynamic extents cover inner loops whose bounds mention the
  /// blocking factor (the IN ... DO region loops of §6).
  struct DimSpan {
    long ks_coef = 0;    ///< blocked-variable coefficient (|a|)
    long fixed = 0;      ///< sum |a|*(extent-1) over unblocked loop vars
    std::vector<std::pair<ir::IExprPtr, long>> dyn;  ///< (extent expr, |a|)
  };
  std::vector<DimSpan> dims;

  bool streaming = false;  ///< KS-invariant: costs one cache line
  std::string reuse;       ///< reuse class vs. the focus loop (evidence)

  /// `env` must already bind the blocking factor to the probed ks.
  [[nodiscard]] long span(std::size_t dim, long ks, const ir::Env& env) const;
};

/// The working-set model of one focus nest: footprint(KS) plus the
/// geometry needed to turn it into a blocking-factor choice.
struct AnalyticModel {
  std::string ks_name = "KS";
  std::vector<FootprintTerm> terms;
  ir::Env env;               ///< probe params + outer-loop lower bounds
  std::size_t line_bytes = 64;
  std::size_t element_bytes = 8;
  double budget_bytes = 0;   ///< kEffectiveFraction * L1 capacity
  long trip = 0;             ///< focus-loop trip count at the probe size

  /// Bytes resident while one KS-block is processed (line-granular in the
  /// contiguous dimension; streaming terms cost one line each).
  [[nodiscard]] long footprint_bytes(long ks) const;

  /// Largest ks in [lo, hi] whose footprint fits the budget (footprint is
  /// monotone in ks); returns lo when even that overflows.
  [[nodiscard]] long largest_fitting(long lo, long hi) const;

  /// The TSS-style choice: the largest fitting ks in [2, max(2, trip)].
  [[nodiscard]] long pick() const;

  /// pick() plus neighbours {ks/4, ks/2, ks, 3ks/2, 2ks, 3ks, 4ks},
  /// clamped to [2, max(2, trip)] and deduplicated, ascending.
  [[nodiscard]] std::vector<long> candidates() const;
};

/// Build the analytic model for the nest under `focus` (which must live in
/// the tree rooted at `root`), treating `ks_name` as the (symbolic)
/// blocking factor of `focus`'s loop variable.  `probe_env` binds every
/// symbolic parameter to the probe size.
[[nodiscard]] AnalyticModel build_analytic_model(ir::StmtList& root,
                                                 ir::Loop& focus,
                                                 const std::string& ks_name,
                                                 const ir::Env& probe_env,
                                                 const MachineParams& machine);

/// The full decision record: analytic prediction, swept evidence, choice.
/// Produced by the selectblock pass / blk-opt --auto-b / bench_autoblock.
struct BlockChoice {
  std::string ks_name = "KS";
  long ks = 0;            ///< final choice
  long analytic_ks = 0;   ///< the closed-form pick before the sweep
  double budget_bytes = 0;
  long analytic_footprint_bytes = 0;  ///< footprint at analytic_ks
  long probe = 0;         ///< probe extent the params were bound to
  std::vector<long> candidates;       ///< the model's candidate set
  bool swept = false;
  std::string metric_name;            ///< "miss_ratio" or "amat"
  double chosen_metric = 0;
  long best_swept_ks = 0;             ///< argmin over every swept row
  double best_swept_metric = 0;

  // Trace-pipeline evidence (record-once/replay-many sweeps).
  bool traces_synthesized = false; ///< traces from the affine synthesizer
  long sample_every = 1;           ///< effective sampling stride
  bool sample_validated = false;   ///< a sampled-vs-full probe ran
  double sample_delta = 0;         ///< probe |sampled - full| L1 miss ratio
  std::uint64_t store_hits = 0;    ///< candidates replayed from the store
  std::uint64_t store_misses = 0;  ///< candidates traced this run

  struct Row {
    long ks = 0;
    double metric = 0;
    double miss_ratio = 0;            ///< L1 miss ratio
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    long predicted_bytes = 0;         ///< analytic footprint at this ks
    bool from_model = false;          ///< in the candidate set vs. grid
  };
  std::vector<Row> table;             ///< ascending by ks
  std::string note;

  /// Chosen metric within `tolerance` (fractional) of the swept optimum.
  [[nodiscard]] bool within_tolerance(double tolerance = 0.10) const;

  [[nodiscard]] std::string to_string() const;  ///< human-readable table
  [[nodiscard]] std::string to_json() const;    ///< BENCH_model.json row
};

}  // namespace blk::model
