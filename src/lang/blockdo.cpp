#include "lang/blockdo.hpp"

#include <algorithm>

#include "ir/error.hpp"
#include "ir/stmt.hpp"

namespace blk::lang {

using namespace blk::ir;

ir::Env choose_block_sizes(CompileResult& cr,
                           const model::MachineParams& machine, long probe) {
  if (probe <= 0) probe = model::probe_size(machine);

  ir::Env probe_env;
  for (const std::string& p : cr.program.params()) {
    bool is_factor = std::any_of(
        cr.block_params.begin(), cr.block_params.end(),
        [&](const auto& kv) { return kv.second == p; });
    if (!is_factor) probe_env[p] = probe;
  }

  ir::Env sizes;
  for (const auto& [var, bs] : cr.block_params) {
    auto fx = cr.fixed_factors.find(bs);
    if (fx != cr.fixed_factors.end()) {
      sizes[bs] = fx->second;
      continue;
    }
    Loop* focus = nullptr;
    for_each_stmt(cr.program.body, [&](Stmt& s) {
      if (!focus && s.kind() == SKind::Loop && s.as_loop().var == var)
        focus = &s.as_loop();
    });
    if (!focus)
      throw Error("choose_block_sizes: no loop over " + var);
    model::AnalyticModel am = model::build_analytic_model(
        cr.program.body, *focus, bs, probe_env, machine);
    sizes[bs] = am.pick();
  }
  return sizes;
}

void bind_block_sizes(CompileResult& cr, const ir::Env& sizes) {
  for (const auto& [var, bs] : cr.block_params) {
    auto it = sizes.find(bs);
    if (it == sizes.end())
      throw Error("bind_block_sizes: no value chosen for " + bs);
    substitute_index_in_list(cr.program.body, bs, iconst(it->second));
  }
}

}  // namespace blk::lang
