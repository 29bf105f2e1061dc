// Facade over the static-analysis subsystem: one call runs the structural
// lint, the parallel-safety certifier (with its independent race re-check),
// and the region checks, returning one canonical diagnostics report —
// what the blk-lint CLI and the pm `certify` pass build on.
#pragma once

#include "analysis/assume.hpp"
#include "ir/program.hpp"
#include "sa/certify.hpp"
#include "verify/diagnostic.hpp"

namespace blk::sa {

struct SaOptions {
  const analysis::Assumptions* ctx = nullptr;
  bool pedantic = false;  ///< forwarded to verify::lint
};

struct SaResult {
  verify::Report report;
  CertifyResult verdicts;
};

/// Run every analysis over `p`.  The report is canonicalized (sorted,
/// deduplicated) so output is diff-able.
[[nodiscard]] SaResult analyze(ir::Program& p, const SaOptions& opt = {});

}  // namespace blk::sa
