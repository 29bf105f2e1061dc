// BLOCK DO lowering: bind each blocking-factor parameter introduced by the
// parser to a value chosen from the machine model.
#pragma once

#include "ir/iexpr.hpp"
#include "lang/parser.hpp"
#include "model/model.hpp"

namespace blk::lang {

/// Choose a blocking factor for every BLOCK DO in `cr` and return the
/// parameter bindings (BS_<var> -> value), ready to merge into the
/// interpreter's parameter environment.  Each factor is sized so the
/// blocked working set fits the effective cache fraction of `machine`
/// (§6, the analytic model selectblock uses).  Unbound parameters are
/// probed at `probe` (0: model::probe_size).  Factors fixed in the source
/// (BLOCK(n) DO) pass through verbatim.
[[nodiscard]] ir::Env choose_block_sizes(CompileResult& cr,
                                         const model::MachineParams& machine,
                                         long probe = 0);

/// Lower in place: substitute each blocking-factor parameter by its chosen
/// constant, yielding ordinary Fortran-level IR with literal block sizes.
void bind_block_sizes(CompileResult& cr, const ir::Env& sizes);

}  // namespace blk::lang
