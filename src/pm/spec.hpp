// Pipeline-spec parsing: the textual pass-pipeline language of the
// pass manager, plus the shared `--assume` fact parser the CLI tools use.
//
// Grammar (whitespace-insensitive):
//
//   pipeline := stage (';' stage)* [';']
//   stage    := NAME [ '(' [arg (',' arg)*] ')' ]
//   arg      := NAME '=' value          (typed option)
//             | NAME                    (flag)
//   value    := INT | NAME
//   NAME     := [A-Za-z_][A-Za-z0-9_-]*
//   INT      := ['-'] digit+
//
// Example: "stripmine(b=32); split; distribute(commutativity); interchange"
//
// parse_pipeline validates against the pass Registry: unknown pass names,
// unknown options, wrongly-typed option values, missing required options
// and trailing garbage are all reported with the offending token named in
// the error message.  Pipeline::to_string() emits the canonical spelling,
// which re-parses to an equal pipeline.
#pragma once

#include <string_view>

#include "analysis/assume.hpp"
#include "pm/pass.hpp"

namespace blk::pm {

/// Parse and validate `spec` against the registry.  Throws blk::Error
/// with a message naming the offending token on any syntax or typing
/// problem.
[[nodiscard]] Pipeline parse_pipeline(std::string_view spec);

/// Parse a fact like "K+BS-1<=N-1" or "N>=1" (names, integer literals and
/// +/- chains around `<=` / `>=`) into `ctx`.  Shared by blk-lint's and
/// blk-opt's `--assume` flags.  Throws blk::Error on malformed input.
void add_fact(analysis::Assumptions& ctx, std::string_view text);

}  // namespace blk::pm
