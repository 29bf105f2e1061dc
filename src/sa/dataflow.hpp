// Monotone dataflow framework over the structured IR.
//
// The lattice value is a set of bounded regular sections per array
// (analysis/sections): joins are set unions with provable-equality
// deduplication, and a per-array TOP absorbs everything once an access
// defeats section analysis.  Transfer functions are derived from the IR
// itself — every assignment "gens" the region its target sweeps, with
// enclosing loops expanded so stored facts are closed over iteration —
// and the runner iterates each loop body to a fixpoint (worklist-style:
// re-run while the state still grows, then a final reporting pass), which
// is how writes from *earlier iterations* become visible to reads at the
// top of a body.
//
// Checkers plug in as observers: they see every read/write event with the
// state at that program point, and every straight-line statement list with
// per-child gen/use region summaries (the kill/gen granularity dead-store
// detection needs).  The engine guarantees observers only fire on the
// final (stable) pass, so a checker never reports from a partial state.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "analysis/assume.hpp"
#include "analysis/sections.hpp"
#include "ir/program.hpp"

namespace blk::sa {

/// One array region with provenance: which access generated it, where.
struct Region {
  std::string array;
  analysis::Section section;  ///< triplet bounds may be null (unanalyzable)
  bool analyzable = false;    ///< every triplet bound is non-null
  bool is_write = false;
  bool guarded = false;       ///< under an IF inside the summarized subtree
  const ir::Assign* def = nullptr;  ///< producing assignment (reads: owner)
  std::string path;           ///< statement path of the access
};

/// Join-semilattice of regions touched on one array.  TOP (set by an
/// unanalyzable access) covers and overlaps everything.
class RegionSet {
 public:
  /// Add a region; returns true when the set actually grew (an already-
  /// present provably-equal section is deduplicated).
  bool add(const Region& r);

  /// Some member provably contains `s` (conservative: false = unproven).
  [[nodiscard]] bool covers(const analysis::Section& s,
                            const analysis::Assumptions& ctx) const;
  /// Not provably disjoint from every member.  TOP overlaps everything;
  /// an empty set overlaps nothing.
  [[nodiscard]] bool may_overlap(const analysis::Section& s,
                                 const analysis::Assumptions& ctx) const;

  [[nodiscard]] bool is_top() const { return top_; }
  [[nodiscard]] const std::vector<analysis::Section>& sections() const {
    return sections_;
  }

  /// Set-union join; returns true when this set changed.
  bool join(const RegionSet& o);

 private:
  std::vector<analysis::Section> sections_;
  bool top_ = false;
};

/// The dataflow state: written regions per array, fully expanded over the
/// loops enclosing the writing access.
class RegionState {
 public:
  /// Record a write region; returns true when the state grew.
  bool add_write(const Region& r);
  [[nodiscard]] const RegionSet* writes(const std::string& array) const;
  bool join(const RegionState& o);

 private:
  std::map<std::string, RegionSet> writes_;
};

/// Straight-line summary of one child of a statement list: the regions its
/// subtree reads and writes, expanded over the subtree's *internal* loops
/// only (enclosing loop variables stay symbolic — "same iteration" view).
struct StmtFacts {
  const ir::Stmt* stmt = nullptr;
  std::string path;           ///< path of the child statement itself
  bool must_execute = false;  ///< unguarded, and any internal loop bounds
                              ///< provably run at least once
  std::vector<Region> reads;
  std::vector<Region> writes;
};

/// Observer interface.  Hooks fire only on the engine's final stable pass
/// over each scope, with the fixpoint state.
class Checker {
 public:
  virtual ~Checker() = default;

  /// An array read at a program point.  `region` is fully expanded over
  /// all enclosing loops; `state` holds every write region that may have
  /// executed before this point (including earlier iterations).
  virtual void on_read(const Region& /*region*/, const RegionState& /*state*/,
                       const analysis::Assumptions& /*ctx*/) {}
  /// An array write at a program point (fully expanded, pre-insertion).
  virtual void on_write(const Region& /*region*/, const RegionState& /*state*/,
                        const analysis::Assumptions& /*ctx*/) {}
  /// One straight-line statement list with per-child region summaries.
  /// `ctx` carries the loop-range facts of every enclosing loop.
  virtual void on_sequence(std::span<const StmtFacts> /*children*/,
                           const analysis::Assumptions& /*ctx*/) {}
};

struct EngineOptions {
  const analysis::Assumptions* ctx = nullptr;  ///< extra symbolic facts
};

/// Run the forward engine over `p`, firing every checker's hooks.
void run_dataflow(ir::Program& p, std::span<Checker* const> checkers,
                  const EngineOptions& opt = {});

/// Compute the read/write summary of one statement subtree, expanding only
/// loops inside the subtree (exposed for tests and for the certifier's
/// race re-check).  `outer_path` prefixes the recorded access paths.
[[nodiscard]] StmtFacts summarize_stmt(ir::Program& p, ir::Stmt& s,
                                       std::span<ir::Loop* const> enclosing,
                                       const analysis::Assumptions& ctx,
                                       const std::string& outer_path = {});

/// Expand a section over additional enclosing loops (sweeping each bound
/// to its extreme).  Bounds whose shape defeats the sweep become null.
[[nodiscard]] analysis::Section expand_over(
    const analysis::Section& s, std::span<ir::Loop* const> loops);

}  // namespace blk::sa
