// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "interp/interp.hpp"
#include "interp/vm.hpp"
#include "ir/printer.hpp"
#include "ir/program.hpp"

namespace blk::test {

/// Fill every array of an engine's store with interp::seed_store's seeded
/// random data; arrays whose name appears in `diag_boost` get +boost added
/// on the diagonal (making unpivoted elimination well-conditioned).  Works
/// with any engine exposing `store()` (Interpreter, Vm, ExecEngine).
template <typename EngineT>
inline void seed_inputs(EngineT& in, std::uint64_t seed,
                        const std::map<std::string, double>& diag_boost = {}) {
  interp::seed_store(in.store(), seed);
  for (const auto& [name, boost] : diag_boost) {
    auto it = in.store().arrays.find(name);
    if (it == in.store().arrays.end() || it->second.rank() != 2) continue;
    interp::Tensor& t = it->second;
    for (long i = t.lower(0); i <= t.upper(0); ++i) {
      if (i < t.lower(1) || i > t.upper(1)) continue;
      std::vector<long> idx{i, i};
      t.at(idx) += boost;
    }
  }
}

/// Run two programs on identical seeded inputs and return the max
/// elementwise difference across all arrays.  Executes on the bytecode VM
/// (the tree-walker remains the reference oracle; their agreement is
/// enforced by tests/interp/vm_test.cpp).
inline double run_and_diff(const ir::Program& a, const ir::Program& b,
                           const ir::Env& params, std::uint64_t seed,
                           const std::map<std::string, double>& diag_boost =
                               {}) {
  interp::ExecEngine ia(a, params);
  interp::ExecEngine ib(b, params);
  seed_inputs(ia, seed, diag_boost);
  seed_inputs(ib, seed, diag_boost);
  ia.run();
  ib.run();
  return interp::max_abs_diff(ia.store(), ib.store());
}

/// Gtest assertion: the two programs compute identical results under
/// `params` (bitwise, since the engine evaluates both the same way).
#define EXPECT_PROGRAMS_EQUIVALENT(a, b, params, seed)                  \
  EXPECT_EQ(0.0, ::blk::test::run_and_diff((a), (b), (params), (seed))) \
      << "transformed program diverges\n--- original ---\n"            \
      << ::blk::ir::print((a).body) << "--- transformed ---\n"         \
      << ::blk::ir::print((b).body)

}  // namespace blk::test
