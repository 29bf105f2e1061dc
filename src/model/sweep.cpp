#include "model/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "interp/vm.hpp"
#include "ir/error.hpp"

namespace blk::model {

namespace {

/// Input seed of every candidate run: data-dependent programs (pivoting,
/// IF-guarded accesses) then trace the same inputs for every candidate.
constexpr std::uint64_t kSeed = 42;

[[nodiscard]] unsigned worker_count(unsigned requested, std::size_t jobs) {
  unsigned workers = requested;
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 2;
    workers = std::min(workers, 8u);
  }
  return std::min<unsigned>(workers, static_cast<unsigned>(jobs));
}

}  // namespace

SweepResult sweep_block_sizes(const ir::Program& blocked,
                              const SweepOptions& opt) {
  if (opt.candidates.empty())
    throw Error("sweep_block_sizes: no candidates");
  if (!blocked.has_scalar(opt.ks_scalar))
    throw Error("sweep_block_sizes: '" + opt.ks_scalar +
                "' is not a declared scalar of the blocked program");
  if (opt.levels.empty())
    throw Error("sweep_block_sizes: need at least one cache level");

  SweepResult result;
  const bool use_amat = opt.latencies.size() == opt.levels.size() + 1;
  result.metric_name = use_amat ? "amat" : "miss_ratio";
  result.rows.resize(opt.candidates.size());

  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::exception_ptr failure;
  auto worker = [&] {
    try {
      // Compiled once per worker: the factor is a runtime scalar, so each
      // candidate is a store reset plus one run, never a recompilation.
      interp::ExecEngine eng(blocked, opt.probe_params);
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= opt.candidates.size()) return;
        interp::Store& store = eng.store();
        interp::seed_store(store, kSeed);
        for (auto& [name, value] : store.scalars) value = 0.0;
        store.scalars[opt.ks_scalar] = static_cast<double>(opt.candidates[i]);
        cachesim::Hierarchy h(opt.levels);
        cachesim::simulate_run(eng, h);
        CandidateResult& row = result.rows[i];
        row.ks = opt.candidates[i];
        row.levels = h.level_stats();
        row.metric =
            use_amat ? h.amat(opt.latencies) : row.levels[0].miss_ratio();
      }
    } catch (...) {
      next = opt.candidates.size();  // stop the other workers early
      std::lock_guard lock(err_mu);
      if (!failure) failure = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> pool;  // joined on scope exit, throwing too
    const unsigned workers = worker_count(opt.workers, opt.candidates.size());
    for (unsigned i = 1; i < workers; ++i) pool.emplace_back(worker);
    worker();
  }
  if (failure) std::rethrow_exception(failure);

  for (std::size_t i = 1; i < result.rows.size(); ++i)
    if (result.rows[i].metric < result.rows[result.best_index].metric)
      result.best_index = i;
  return result;
}

}  // namespace blk::model
