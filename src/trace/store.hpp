// Record-once / replay-many: a cache of encoded traces.
//
// A trace is a pure function of (program text, blocking factor, parameter
// bindings, sampling stride) — it does not depend on the cache geometry.
// So traces are keyed and kept: a sweep records (or synthesizes) each
// candidate's trace once, and a sampled sweep's validation probe reuses
// the full trace it already holds.  A caller that passes one store to
// several sweeps re-tunes against any hierarchy straight from the store,
// skipping VM execution entirely.  Compressed traces are megabytes where
// raw ones are gigabytes, which is what makes retention viable; a
// byte-capped LRU bounds the footprint regardless.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>

#include <map>

#include "ir/program.hpp"
#include "trace/format.hpp"

namespace blk::trace {

/// Identity of one recorded trace.
struct TraceKey {
  std::uint64_t program_hash = 0;  ///< FNV-1a of the printed program
  std::uint64_t env_hash = 0;      ///< FNV-1a over sorted (name, value)
  long ks = 0;                     ///< blocking-factor binding (0 if none)
  long sample_every = 1;

  [[nodiscard]] auto operator<=>(const TraceKey&) const = default;
};

/// FNV-1a helpers used to build keys.
[[nodiscard]] std::uint64_t fnv1a(std::string_view s,
                                  std::uint64_t h = 14695981039346656037ULL);
[[nodiscard]] std::uint64_t hash_program(const ir::Program& p);
[[nodiscard]] std::uint64_t hash_env(const ir::Env& env);

/// Thread-safe byte-capped LRU map of encoded traces.  Values are shared
/// pointers, so an entry evicted while a replay is still reading it stays
/// alive until the reader drops it.
class TraceStore {
 public:
  explicit TraceStore(std::uint64_t max_bytes = 256ull << 20)
      : max_bytes_(max_bytes) {}

  /// null when absent (counts a miss).
  [[nodiscard]] std::shared_ptr<const EncodedTrace> get(const TraceKey& key);

  /// Insert (replacing any existing entry) and LRU-evict down to the byte
  /// cap.  Returns the stored pointer.  A trace larger than the whole cap
  /// is returned but not retained.
  std::shared_ptr<const EncodedTrace> put(const TraceKey& key,
                                          EncodedTrace trace);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t bytes = 0;
    std::size_t entries = 0;
  };
  [[nodiscard]] Stats stats() const;

  void clear();

 private:
  struct Entry {
    TraceKey key;
    std::shared_ptr<const EncodedTrace> trace;
  };

  mutable std::mutex mu_;
  std::uint64_t max_bytes_;
  std::uint64_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::list<Entry> lru_;  ///< front = most recent
  std::map<TraceKey, std::list<Entry>::iterator> index_;

  void evict_to_cap_locked();
};

}  // namespace blk::trace
