#include "cachesim/cache.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <string>

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
  line_shift_ = static_cast<unsigned>(std::countr_zero(cfg.line_bytes));
  way_shift_ = static_cast<unsigned>(std::countr_zero(cfg.assoc));
  set_mask_ = cfg.num_sets() - 1;
  tags_.assign(cfg.num_sets() * cfg.assoc, 0);
  resident_.assign(cfg.num_sets(), 0);
}

bool Cache::access(std::uint64_t addr) { return access_ex(addr).hit; }

Cache::AccessResult Cache::access_ex(std::uint64_t addr) {
  ++stats_.accesses;
  const std::uint64_t block = addr >> line_shift_;
  const std::size_t set = set_of(block);
  std::uint64_t* ways = &tags_[set << way_shift_];
  std::size_t& n = resident_[set];

  // One pass finds `block` and moves it to the front: every block ahead
  // of it moves back one way.  On a miss all n move back, and the last
  // one either takes a free way or is the least recently used victim.
  std::uint64_t carried = block;
  for (std::size_t w = 0; w < n; ++w) {
    const std::uint64_t tag = ways[w];
    ways[w] = carried;
    if (tag == block) {
      ++stats_.hits;
      return {.hit = true};
    }
    carried = tag;
  }
  ++stats_.misses;
  if (n < cfg_.assoc) {
    ways[n++] = carried;
    return {};
  }
  ++stats_.evictions;
  return {.evicted = true, .victim_addr = carried << line_shift_};
}

bool Cache::invalidate(std::uint64_t addr) {
  const std::uint64_t block = addr >> line_shift_;
  const std::size_t set = set_of(block);
  std::uint64_t* ways = &tags_[set << way_shift_];
  std::uint64_t* end = ways + resident_[set];
  std::uint64_t* it = std::find(ways, end, block);
  if (it == end) return false;
  std::copy(it + 1, end, it);
  --resident_[set];
  return true;
}

bool Cache::contains(std::uint64_t addr) const {
  const std::uint64_t block = addr >> line_shift_;
  const std::size_t set = set_of(block);
  const std::uint64_t* ways = &tags_[set << way_shift_];
  const std::uint64_t* end = ways + resident_[set];
  return std::find(ways, end, block) != end;
}

void Cache::reset() {
  std::fill(resident_.begin(), resident_.end(), 0);
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
  for (std::size_t i = 1; i < levels.size(); ++i)
    if (levels[i - 1].line_bytes > levels[i].line_bytes)
      throw Error("Hierarchy: L" + std::to_string(i) + "'s " +
                  std::to_string(levels[i - 1].line_bytes) +
                  "B line is larger than L" + std::to_string(i + 1) + "'s " +
                  std::to_string(levels[i].line_bytes) +
                  "B line; an inclusive hierarchy needs every line to fit "
                  "in one line of each level below it");
}

std::size_t Hierarchy::access(std::uint64_t addr) {
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    const Cache::AccessResult r = levels_[i].access_ex(addr);
    if (r.evicted) back_invalidate(i, r.victim_addr);
    if (r.hit) return i;
  }
  return levels_.size();
}

void Hierarchy::back_invalidate(std::size_t level, std::uint64_t victim_addr) {
  // Inclusion: no part of the block displaced from `level` may stay cached
  // above it.  Upper lines are no larger (checked at construction), so the
  // block spans a whole number of each upper level's lines.
  const std::size_t span = levels_[level].config().line_bytes;
  for (std::size_t j = 0; j < level; ++j) {
    const std::size_t step = levels_[j].config().line_bytes;
    for (std::size_t off = 0; off < span; off += step)
      if (levels_[j].invalidate(victim_addr + off)) ++back_invalidations_;
  }
}

void Hierarchy::simulate(std::span<const interp::TraceRecord> recs) {
  Cache& l1 = levels_.front();
  std::uint64_t front_hits = 0;  // flushed to L1's counters once per batch
  for (const interp::TraceRecord& r : recs) {
    const std::uint64_t block = r.addr >> l1.line_shift_;
    const std::size_t set = l1.set_of(block);
    if (l1.tags_[set << l1.way_shift_] == block && l1.resident_[set] != 0) {
      ++front_hits;
      continue;
    }
    access(r.addr);
  }
  l1.stats_.accesses += front_hits;
  l1.stats_.hits += front_hits;
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
