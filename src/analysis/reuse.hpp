// Reuse analysis (§2.2): classify, per array reference and per loop, the
// kind of reuse the reference carries — the information a blocking driver
// needs to decide *which* loops are worth tiling and what the per-iteration
// working set is.
//
//   * temporal-invariant: the subscripts do not mention the loop variable;
//     each iteration re-touches the same element (B(J) in the I loop).
//   * self-temporal: a loop-carried self-dependence at a small constant
//     distance (A(I-5) five iterations after A(I)).
//   * self-spatial: the loop variable strides the fastest-varying (first,
//     column-major) subscript with a small constant coefficient, so
//     consecutive iterations hit the same cache line.
//   * none: a new line every iteration (the Fig. 9 row-walk problem).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/refs.hpp"

namespace blk::analysis {

enum class ReuseKind : std::uint8_t {
  TemporalInvariant,
  SelfTemporal,
  SelfSpatial,
  None,
};

[[nodiscard]] const char* to_string(ReuseKind k);

/// Reuse classification of one reference with respect to one loop.
struct RefReuse {
  RefInfo ref;
  ReuseKind kind = ReuseKind::None;
  std::optional<long> distance;  ///< SelfTemporal: iteration distance
  long stride = 0;               ///< SelfSpatial: elements per iteration
};

/// Summary for one loop of a nest.
struct LoopReuse {
  const ir::Loop* loop = nullptr;
  std::vector<RefReuse> refs;
};

/// Classify every array reference in `body` against each loop of the nest
/// rooted there.  `line_elements` is the cache-line capacity in elements
/// (lines/strides beyond it don't count as spatial reuse).
[[nodiscard]] std::vector<LoopReuse> analyze_reuse(ir::StmtList& body,
                                                   long line_elements = 8);

}  // namespace blk::analysis
