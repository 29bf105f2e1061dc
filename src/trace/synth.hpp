// Affine trace synthesis: emit the VM's exact access trace straight from
// the IR, without executing any floating-point work.
//
// For the paper's kernels the access trace is a pure function of loop
// bounds and affine subscripts — the data never steers control flow.  So
// instead of running the VM for ~10^10 accesses on an N=2000 LU, walk the
// loop nest with an integer environment and emit each *innermost loop
// instance* as a single RUNA op (trace/format.hpp): per reference the
// address is affine in the loop variable, so two subscript evaluations
// yield (start, stride) exactly.  Cost is O(#inner-loop instances), about
// N^2 for a triply nested kernel, while the emitted trace is
// record-for-record identical to what Vm::run would have produced
// (synth_test pins this against the VM for every eligible kernel).
//
// Eligibility is static: no IF statements, no ArrayElem index reads, and
// every index expression closed over enclosing loop variables and
// parameters.  Data-dependent programs (pivoting LU, IF-guarded matmul)
// report a reason and fall back to VM recording (format.hpp's
// record_trace) — same format, slower producer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "ir/program.hpp"
#include "trace/format.hpp"

namespace blk::trace {

struct SynthStats {
  std::uint64_t records = 0;  ///< records emitted into the encoder
};

/// Why `p` cannot be synthesized (nullopt = eligible).
[[nodiscard]] std::optional<std::string> synth_ineligible_reason(
    const ir::Program& p);

[[nodiscard]] inline bool synth_eligible(const ir::Program& p) {
  return !synth_ineligible_reason(p).has_value();
}

/// Emit the access trace of `p` under `params` into `enc` (caller owns
/// finish()).  Throws blk::Error if the program is ineligible — check
/// synth_eligible() first.  Array addresses come from interp::make_store,
/// so they match both execution engines exactly.
SynthStats synthesize(const ir::Program& p, const ir::Env& params,
                      TraceEncoder& enc);

/// synthesize() + finish() into a fresh trace, falling back to VM
/// recording (record_trace) when the program is ineligible.  `used_synth`
/// (optional out) reports which path ran.
[[nodiscard]] EncodedTrace synthesize_or_record(const ir::Program& p,
                                                const ir::Env& params,
                                                std::uint64_t seed,
                                                bool* used_synth = nullptr,
                                                SynthStats* stats = nullptr);

}  // namespace blk::trace
