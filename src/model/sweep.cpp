#include "model/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <optional>
#include <thread>

#include "interp/trace.hpp"
#include "interp/vm.hpp"
#include "ir/error.hpp"
#include "trace/format.hpp"
#include "trace/replay.hpp"
#include "trace/synth.hpp"

namespace blk::model {

namespace {

/// Input seed of the VM-recorded traces (data-dependent programs).
constexpr std::uint64_t kSeed = 42;

/// Sampling validation replays one candidate's *full* trace; when that
/// trace would exceed this many records (estimated as sampled records * k)
/// the probe is skipped with a note — the tolerance is then carried over
/// from smaller-probe runs instead of being re-measured at a size where a
/// full replay is infeasible.
constexpr std::uint64_t kValidateMaxRecords = 256u << 20;

/// Record-once/replay-many: compressed traces out of the TraceStore,
/// sharded deterministic replay per candidate.
class Sweep {
 public:
  Sweep(const ir::Program& blocked, const SweepOptions& opt)
      : prog_(blocked),
        opt_(opt),
        store_(opt.store ? *opt.store : own_store_),
        program_hash_(trace::hash_program(blocked)),
        env_hash_(trace::hash_env(opt.probe_params)),
        eligible_(trace::synth_eligible(blocked)) {}

  SweepResult run() {
    SweepResult result;
    const bool use_amat = opt_.latencies.size() == opt_.levels.size() + 1;
    result.metric_name = use_amat ? "amat" : "miss_ratio";

    trace::ReplayOptions ropt;
    ropt.levels = opt_.levels;
    ropt.workers = opt_.workers;
    ropt.shard_records = opt_.shard_records;

    // Decide the effective sampling stride up front.
    long k = std::max(1L, opt_.sample_every);
    if (k > 1 && !eligible_) {
      k = 1;
      result.note =
          "sampling disabled: program is not trace-synthesizable (" +
          trace::synth_ineligible_reason(prog_).value_or("") + ")";
    }
    if (k > 1) {
      // Validate on one mid-range candidate: the sampled trace must
      // predict the full trace's L1 miss ratio within tolerance,
      // otherwise every candidate falls back to the full trace.
      const long probe_ks = opt_.candidates[opt_.candidates.size() / 2];
      const Acquired sampled = acquire(probe_ks, k);
      // The sampled trace keeps ~1/k of the full records, so the full
      // probe size is known without the (expensive) full walk.
      const std::uint64_t full_records =
          sampled.trace->records * static_cast<std::uint64_t>(k);
      if (full_records > kValidateMaxRecords) {
        // A full replay at this size is exactly what sampling exists to
        // avoid; keep sampling but say the tolerance wasn't re-measured.
        result.sample_every = k;
        result.note = "sampling validation skipped: full probe trace has ~" +
                      std::to_string(full_records) +
                      " records (cap " +
                      std::to_string(kValidateMaxRecords) +
                      "); tolerance carried over from smaller probes";
        return run_candidates(result, ropt, k, use_amat);
      }
      const Acquired full = acquire(probe_ks, 1);
      const trace::ReplayResult fr = trace::replay(*full.trace, ropt);
      const trace::ReplayResult sr = trace::replay(*sampled.trace, ropt);
      result.sample_validated = true;
      result.sample_delta = std::abs(sr.levels[0].miss_ratio() -
                                     fr.levels[0].miss_ratio());
      if (result.sample_delta > opt_.sample_tolerance) {
        k = 1;
        result.note = "sampling rejected: probe ks=" +
                      std::to_string(probe_ks) + " miss-ratio delta " +
                      std::to_string(result.sample_delta) +
                      " exceeds tolerance " +
                      std::to_string(opt_.sample_tolerance);
      }
    }
    result.sample_every = k;
    return run_candidates(result, ropt, k, use_amat);
  }

 private:
  struct Acquired {
    std::shared_ptr<const trace::EncodedTrace> trace;
    bool synthesized = false;
  };

  /// One trace per candidate.  Synthesis is independent per candidate, so
  /// eligible programs acquire in parallel (the store is thread-safe); the
  /// VM-recording fallback shares one ExecEngine and stays sequential.
  std::vector<Acquired> acquire_all(long k) {
    std::vector<Acquired> out(opt_.candidates.size());
    if (!eligible_ || opt_.candidates.size() < 2) {
      for (std::size_t i = 0; i < opt_.candidates.size(); ++i)
        out[i] = acquire(opt_.candidates[i], k);
      return out;
    }
    unsigned workers = opt_.workers;
    if (workers == 0) {
      workers = std::thread::hardware_concurrency();
      if (workers == 0) workers = 2;
      workers = std::min(workers, 8u);
    }
    workers = std::min<unsigned>(
        workers, static_cast<unsigned>(opt_.candidates.size()));
    std::atomic<std::size_t> next{0};
    std::mutex err_mu;
    std::optional<Error> failure;
    auto worker = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= opt_.candidates.size()) return;
        try {
          out[i] = acquire(opt_.candidates[i], k);
        } catch (const Error& e) {
          std::lock_guard lock(err_mu);
          if (!failure) failure = e;
          return;
        }
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
    if (failure) throw *failure;
    return out;
  }

  SweepResult run_candidates(SweepResult& result,
                             const trace::ReplayOptions& ropt, long k,
                             bool use_amat) {
    const std::vector<Acquired> traces = acquire_all(k);
    result.rows.resize(opt_.candidates.size());
    for (std::size_t i = 0; i < opt_.candidates.size(); ++i) {
      const Acquired& a = traces[i];
      const trace::ReplayResult res = trace::replay(*a.trace, ropt);
      CandidateResult& row = result.rows[i];
      row.ks = opt_.candidates[i];
      row.levels = res.levels;
      row.trace_len = res.records;
      row.synthesized = a.synthesized;
      row.compression = a.trace->compression_ratio();
      row.metric = use_amat ? res.amat(opt_.latencies)
                            : res.levels[0].miss_ratio();
    }

    result.store_hits = hits_;
    result.store_misses = misses_;
    result.best_index = 0;
    for (std::size_t i = 1; i < result.rows.size(); ++i)
      if (result.rows[i].metric < result.rows[result.best_index].metric)
        result.best_index = i;
    return result;
  }

  Acquired acquire(long ks, long sample_every) {
    trace::TraceKey key;
    key.program_hash = program_hash_;
    key.env_hash = env_hash_;
    key.ks = ks;
    key.sample_every = sample_every;
    if (auto cached = store_.get(key)) {
      ++hits_;
      return {std::move(cached), eligible_};
    }
    ++misses_;
    trace::EncodedTrace t;
    if (eligible_) {
      // Affine program: synthesize the trace without executing — the
      // blocking factor binds like any other parameter.
      ir::Env env = opt_.probe_params;
      env[opt_.ks_scalar] = ks;
      trace::TraceEncoder enc(t);
      trace::SynthOptions so;
      so.sample_every = sample_every;
      (void)trace::synthesize(prog_, env, enc, so);
      enc.finish();
    } else {
      // Data-dependent program: record one VM execution through the
      // encoder.  The engine is compiled once and reused per candidate:
      // the factor is a runtime scalar, so each candidate is a store write
      // plus a re-run, never a recompilation.
      if (!engine_) engine_.emplace(prog_, opt_.probe_params);
      interp::seed_store(engine_->store(), kSeed);
      for (auto& [name, value] : engine_->store().scalars) value = 0.0;
      engine_->store().scalars[opt_.ks_scalar] = static_cast<double>(ks);
      trace::TraceEncoder enc(t);
      interp::TraceBuffer buf(1 << 16, &enc, &trace::TraceEncoder::sink);
      engine_->run(buf);
      buf.flush();
      enc.finish();
    }
    return {store_.put(key, std::move(t)), eligible_};
  }

  const ir::Program& prog_;
  const SweepOptions& opt_;
  trace::TraceStore own_store_;  ///< used when the caller passes none
  trace::TraceStore& store_;
  std::uint64_t program_hash_;
  std::uint64_t env_hash_;
  bool eligible_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::optional<interp::ExecEngine> engine_;
};

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
  if (opt.sample_every < 1)
    throw Error("sweep_block_sizes: sample_every must be >= 1");

  return Sweep(blocked, opt).run();
}

}  // namespace blk::model
