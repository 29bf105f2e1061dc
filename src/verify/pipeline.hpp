// Verified transformation pipeline.
//
// VerifiedPipeline installs itself as the process-wide pass observer
// (transform/instrument) and translation-validates every transformation
// applied to one program while it is alive: the IR is snapshotted before
// each pass, and when the pass commits, the pre/post pair is checked.
//
// What is checked depends on the pass:
//  * reordering passes (strip-mine, split, split-trapezoid,
//    index-set-split, interchange, distribute, fuse, reverse,
//    unroll-and-jam[-triangular], normalize) preserve the set of data
//    dependences by construction — they get the full dependence-
//    preservation check plus a lint of the result;
//  * value-rewiring passes (scalar-replace[-carried], scalar-expand,
//    if-inspect[-auto]) and bound simplification legitimately change the
//    dependence structure (that is their purpose) — they get lint only.
//
// Passes that abort (trial-undo-throw legality refusals) are recorded but
// not verified: they restored the IR themselves.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ir/program.hpp"
#include "transform/instrument.hpp"
#include "verify/depcheck.hpp"
#include "verify/diagnostic.hpp"
#include "verify/lint.hpp"

namespace blk::verify {

/// What the pipeline verifies after a given pass.
enum class Policy : int { Full, LintOnly };

/// Verification policy for a pass name (unknown names get LintOnly —
/// a new pass must opt in to the dependence check explicitly).
[[nodiscard]] Policy policy_for(std::string_view pass);

/// Verification outcome for one observed pass application.
struct StepReport {
  std::string pass;
  bool committed = true;
  Policy policy = Policy::Full;
  Report report;  ///< empty for uncommitted passes
};

class VerifiedPipeline final : public transform::PassObserver {
 public:
  /// Starts observing passes applied to `prog`.  The previous observer is
  /// restored on destruction.  All passes run while this object is alive
  /// must target `prog` (there is one process-wide observer).
  explicit VerifiedPipeline(ir::Program& prog, DepCheckOptions opt = {});
  ~VerifiedPipeline() override;
  VerifiedPipeline(const VerifiedPipeline&) = delete;
  VerifiedPipeline& operator=(const VerifiedPipeline&) = delete;

  void before_pass(std::string_view name, ir::StmtList& root) override;
  void after_pass(std::string_view name, ir::StmtList& root,
                  bool committed) override;

  [[nodiscard]] const std::vector<StepReport>& steps() const {
    return steps_;
  }
  /// True when no verified step produced an error.
  [[nodiscard]] bool ok() const;
  /// All diagnostics across all steps, each prefixed with its pass name.
  [[nodiscard]] Report combined() const;
  [[nodiscard]] std::string to_string() const;
  /// Throws blk::Error carrying to_string() when !ok().
  void throw_if_failed() const;

 private:
  ir::Program& prog_;
  DepCheckOptions opt_;
  transform::PassObserver* prev_ = nullptr;
  std::vector<ir::Program> snapshots_;  ///< stack: nested passes nest scopes
  std::vector<StepReport> steps_;
};

}  // namespace blk::verify
