#include "cachesim/cache.hpp"

#include <bit>
#include <sstream>

#include "interp/vm.hpp"
#include "ir/error.hpp"

namespace blk::cachesim {

namespace {

[[nodiscard]] bool power_of_two(std::size_t x) {
  return x != 0 && (x & (x - 1)) == 0;
}

}  // namespace

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg) {
  if (!power_of_two(cfg.size_bytes) || !power_of_two(cfg.line_bytes) ||
      !power_of_two(cfg.assoc))
    throw Error("Cache: geometry fields must be powers of two");
  if (cfg.size_bytes % (cfg.line_bytes * cfg.assoc) != 0)
    throw Error("Cache: size must be a multiple of line_bytes*assoc");
  set_shift_ = static_cast<std::size_t>(std::countr_zero(cfg.line_bytes));
  set_mask_ = cfg.num_sets() - 1;
  lines_.assign(cfg.num_sets() * cfg.assoc, Line{});
}

bool Cache::access(std::uint64_t addr) { return access_ex(addr).hit; }

Cache::AccessResult Cache::access_ex(std::uint64_t addr) {
  ++clock_;
  ++stats_.accesses;
  std::uint64_t block = addr >> set_shift_;
  std::size_t set = static_cast<std::size_t>(block) & set_mask_;
  Line* base = &lines_[set * cfg_.assoc];

  Line* victim = base;
  for (std::size_t w = 0; w < cfg_.assoc; ++w) {
    Line& line = base[w];
    if (line.valid && line.tag == block) {
      line.last_use = clock_;
      ++stats_.hits;
      return {.hit = true};
    }
    if (!line.valid) {
      victim = &line;
    } else if (victim->valid && line.last_use < victim->last_use) {
      victim = &line;
    }
  }
  ++stats_.misses;
  AccessResult result{.hit = false};
  if (victim->valid) {
    ++stats_.evictions;
    result.evicted = true;
    result.victim_addr = victim->tag << set_shift_;
  }
  victim->valid = true;
  victim->tag = block;
  victim->last_use = clock_;
  return result;
}

bool Cache::invalidate(std::uint64_t addr) {
  std::uint64_t block = addr >> set_shift_;
  std::size_t set = static_cast<std::size_t>(block) & set_mask_;
  Line* base = &lines_[set * cfg_.assoc];
  for (std::size_t w = 0; w < cfg_.assoc; ++w) {
    Line& line = base[w];
    if (line.valid && line.tag == block) {
      line.valid = false;
      return true;
    }
  }
  return false;
}

void Cache::simulate(std::span<const interp::TraceRecord> recs) {
  for (const interp::TraceRecord& r : recs) access(r.addr);
}

void Cache::reset() {
  lines_.assign(lines_.size(), Line{});
  clock_ = 0;
  stats_ = CacheStats{};
}

namespace {

/// Records streamed from the VM to the cache, a batch at a time (1 MB);
/// keeps arbitrarily long traces (N=300 LU is ~10^8 accesses) in constant
/// memory.
constexpr std::size_t kTraceBatch = 1 << 16;

}  // namespace

Hierarchy::Hierarchy(std::vector<CacheConfig> levels) {
  if (levels.empty()) throw Error("Hierarchy: need at least one level");
  levels_.reserve(levels.size());
  for (const auto& cfg : levels) levels_.emplace_back(cfg);
}

std::size_t Hierarchy::access(std::uint64_t addr) {
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    Cache::AccessResult r = levels_[i].access_ex(addr);
    // Inclusion: a block displaced from level i may no longer be cached
    // in any level above it.
    if (r.evicted)
      for (std::size_t j = 0; j < i; ++j)
        if (levels_[j].invalidate(r.victim_addr)) ++back_invalidations_;
    if (r.hit) return i;
  }
  return levels_.size();
}

void Hierarchy::simulate(std::span<const interp::TraceRecord> recs) {
  for (const interp::TraceRecord& r : recs) access(r.addr);
}

void Hierarchy::reset() {
  for (auto& l : levels_) l.reset();
  back_invalidations_ = 0;
}

double amat(std::span<const CacheStats> levels,
            std::span<const double> latencies) {
  if (levels.empty()) throw Error("amat: need at least one level");
  if (latencies.size() != levels.size() + 1)
    throw Error("amat: need one latency per level plus memory");
  // Every access costs L1's latency; each level's misses additionally pay
  // the next level's latency.
  const double total = static_cast<double>(levels.front().accesses);
  if (total == 0) return 0.0;
  double cycles = total * latencies[0];
  for (std::size_t i = 0; i < levels.size(); ++i)
    cycles += static_cast<double>(levels[i].misses) * latencies[i + 1];
  return cycles / total;
}

std::vector<CacheStats> Hierarchy::level_stats() const {
  std::vector<CacheStats> out;
  out.reserve(levels_.size());
  for (const Cache& l : levels_) out.push_back(l.stats());
  return out;
}

double Hierarchy::amat(std::span<const double> latencies) const {
  return cachesim::amat(level_stats(), latencies);
}

void simulate_run(interp::ExecEngine& eng, Hierarchy& h) {
  interp::TraceBuffer buf(
      kTraceBatch, &h,
      [](void* ctx, std::span<const interp::TraceRecord> recs) {
        static_cast<Hierarchy*>(ctx)->simulate(recs);
      });
  eng.run(buf);
  buf.flush();
}

std::vector<CacheStats> simulate_hierarchy(const ir::Program& p,
                                           const ir::Env& params,
                                           std::vector<CacheConfig> levels,
                                           std::uint64_t seed) {
  interp::ExecEngine eng(p, params);
  interp::seed_store(eng.store(), seed);
  Hierarchy h(std::move(levels));
  simulate_run(eng, h);
  return h.level_stats();
}

CacheStats simulate(const ir::Program& p, const ir::Env& params,
                    const CacheConfig& cfg, std::uint64_t seed) {
  return simulate_hierarchy(p, params, {cfg}, seed).front();
}

std::string summary(const CacheConfig& cfg, const CacheStats& st) {
  // Fixed two-decimal percentage: default stream precision is locale- and
  // magnitude-dependent, which made the string unstable across runs.
  char buf[160];
  std::snprintf(buf, sizeof buf, "%zuKB/%zuB/%zu-way: %llu accesses, "
                "%.2f%% miss",
                cfg.size_bytes / 1024, cfg.line_bytes, cfg.assoc,
                static_cast<unsigned long long>(st.accesses),
                st.miss_ratio() * 100.0);
  return buf;
}

}  // namespace blk::cachesim
