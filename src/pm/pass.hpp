// Pass-manager core: typed pass options, the pass registry, and the
// pipeline context threaded through a running pipeline.
//
// A *pass* here is a named, declaratively-optioned unit of transformation
// — either one of the repo's primitives (strip-mine, index-set split,
// distribute, interchange, ...) or a composite driver (the §5.1/§5.2
// auto-blocker, the §3.2 convolution optimizer, the §5.4 Givens recipe).
// Pipelines are *data*: a textual spec ("stripmine(b=32); split;
// distribute(commutativity); interchange") parsed by spec.hpp and executed
// by runner.hpp against a PipelineContext that carries the program, the
// driver hints, the focus loop, and the results each stage leaves for the
// next (the strip loop, the distributed pieces, the split report).
//
// The registry is the single source of truth for what exists and what
// options each pass takes; the spec parser validates against it and the
// `blk-opt` CLI prints it (--print-registry).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/assume.hpp"
#include "analysis/manager.hpp"
#include "cachesim/cache.hpp"
#include "ir/codegen.hpp"
#include "ir/program.hpp"
#include "model/model.hpp"
#include "sa/certify.hpp"
#include "transform/split.hpp"

namespace blk::pm {

/// Typed pass-option kinds.  `Expr` accepts an integer literal or a
/// parameter name (lowered to iconst / ivar); `Flag` is presence-only.
enum class OptKind : std::uint8_t { Int, Expr, Str, Flag };

[[nodiscard]] const char* to_string(OptKind k);

/// One declared option of a pass.
struct OptionSpec {
  std::string name;
  OptKind kind = OptKind::Flag;
  bool required = false;
  std::string doc;
};

/// A parsed option value (before typing against an OptionSpec).
struct OptionValue {
  enum class Kind : std::uint8_t { Int, Name, Flag } kind = Kind::Flag;
  long int_value = 0;
  std::string name;  ///< identifier payload for Name

  [[nodiscard]] std::string to_string() const;
};

/// One pass invocation from a spec: name plus option assignments in
/// source order.
struct PassInvocation {
  std::string pass;
  std::vector<std::pair<std::string, OptionValue>> options;

  [[nodiscard]] const OptionValue* find(std::string_view opt) const;
  [[nodiscard]] bool flag(std::string_view opt) const;
  /// Lower an Expr-kind option: Int -> iconst, Name -> ivar.  Returns
  /// nullptr when absent.
  [[nodiscard]] ir::IExprPtr expr(std::string_view opt) const;
  [[nodiscard]] long int_or(std::string_view opt, long fallback) const;
  [[nodiscard]] std::string str_or(std::string_view opt,
                                   std::string fallback) const;

  [[nodiscard]] std::string to_string() const;
};

/// A full parsed pipeline.  `to_string` produces the canonical spec,
/// which re-parses to an equal pipeline (round-trip property).
struct Pipeline {
  std::vector<PassInvocation> passes;

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] bool uses_commutativity() const;
};

/// State threaded through a pipeline run.  Structural passes target the
/// *focus* loop (default: the program's first top-level loop) and leave
/// their products — the strip loop, the split report, the distributed
/// pieces — for downstream stages.
struct PipelineContext {
  explicit PipelineContext(ir::Program& program,
                           analysis::Assumptions driver_hints = {})
      : prog(program), hints(std::move(driver_hints)) {}

  ir::Program& prog;
  analysis::Assumptions hints;

  /// Semantic knowledge armed for the whole pipeline (§5.2): naming
  /// `commutativity` on any stage arms the pattern matcher for every
  /// dependence decision — commutativity is a fact about the program, not
  /// a per-pass tuning knob.
  bool commutativity = false;

  ir::Loop* focus = nullptr;       ///< target loop (null: first top-level)
  ir::IExprPtr default_block;      ///< stripmine's `b` when not given

  // Stage products.
  ir::Loop* strip = nullptr;               ///< innermost strip loop
  std::optional<transform::SplitReport> split_report;
  std::vector<ir::Loop*> pieces;           ///< distributed pieces, in order
  int interchanges = 0;                    ///< sinks performed so far
  int scalar_groups = 0;                   ///< scalar-replaced groups

  // IF-inspection products (§4/§5.4).
  ir::Loop* inspector = nullptr;
  ir::Loop* range_loop = nullptr;
  ir::Loop* executor = nullptr;

  // Machine-model state (§6 / the selectblock pass).
  /// Cache hierarchy to model; empty means the default L1 (64K/64B/4).
  std::vector<cachesim::CacheConfig> machine;
  /// Per-level + memory hit latencies; arity num_levels+1 switches the
  /// sweep metric from L1 miss ratio to AMAT.
  std::vector<double> latencies;
  /// Values chosen for symbolic parameters by passes (KS -> 24); callers
  /// merge these into interpretation/check environments.
  ir::Env resolved;
  /// The full decision record of the last selectblock run.
  std::optional<model::BlockChoice> block_choice;

  /// Per-loop parallel-safety verdicts from the last `certify` stage
  /// (pre-order over the program at the time the stage ran; later
  /// structural passes invalidate the `loop` pointers, not the labels).
  std::vector<sa::LoopVerdict> verdicts;

  /// The certified parallel plan built by the `parallelize` stage: which
  /// loops the native backend may run multithreaded, and how reductions
  /// combine.  Consumers (blk-opt, benches) hand it to native::Kernel /
  /// interp::ExecEngine; it is only valid for the program shape as of
  /// that stage — structural passes after `parallelize` invalidate the
  /// pre-order loop coordinates inside.
  std::optional<ir::ParallelOptions> parallel;

  /// Per-stage reporting: a stage that decides to no-op (e.g. distribute
  /// after a not-distributable split) sets these; the runner resets them
  /// before each stage and copies them into the stage's PassStat.
  bool stage_skipped = false;
  std::string stage_note;

  /// Memoized analyses for this pipeline (installed for each stage).
  analysis::AnalysisManager am;

  /// Resolve the loop a structural stage should act on: focus if set,
  /// else the first top-level loop.  Throws blk::Error when none exists.
  [[nodiscard]] ir::Loop& target();
  /// The strip loop if one exists, else target().
  [[nodiscard]] ir::Loop& strip_or_target();
};

/// A registered pass: metadata plus the stage function.
struct PassInfo {
  std::string name;
  std::string doc;
  bool composite = false;  ///< a whole driver rather than one primitive
  std::vector<OptionSpec> options;
  std::function<void(PipelineContext&, const PassInvocation&)> run;

  [[nodiscard]] const OptionSpec* option(std::string_view opt) const;
};

/// The process-wide pass registry (immutable after first use; safe to
/// read concurrently).
class Registry {
 public:
  static const Registry& instance();

  [[nodiscard]] const PassInfo* lookup(std::string_view name) const;
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] const std::map<std::string, PassInfo>& passes() const {
    return passes_;
  }

 private:
  Registry();
  std::map<std::string, PassInfo> passes_;
};

}  // namespace blk::pm
