#include "trace/store.hpp"

#include "ir/printer.hpp"

namespace blk::trace {

std::uint64_t fnv1a(std::string_view s, std::uint64_t h) {
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t hash_program(const ir::Program& p) {
  return fnv1a(ir::print(p));
}

std::uint64_t hash_env(const ir::Env& env) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const auto& [name, value] : env) {  // std::map: sorted, canonical
    h = fnv1a(name, h);
    h ^= static_cast<std::uint64_t>(value);
    h *= 1099511628211ULL;
  }
  return h;
}

std::shared_ptr<const EncodedTrace> TraceStore::get(const TraceKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // touch
  return it->second->trace;
}

std::shared_ptr<const EncodedTrace> TraceStore::put(const TraceKey& key,
                                                    EncodedTrace trace) {
  auto sp = std::make_shared<const EncodedTrace>(std::move(trace));
  const std::uint64_t sz = sp->bytes.size();
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = index_.find(key); it != index_.end()) {
    bytes_ -= it->second->trace->bytes.size();
    lru_.erase(it->second);
    index_.erase(it);
  }
  if (sz > max_bytes_) return sp;  // too big to retain; hand it back only
  lru_.push_front(Entry{key, sp});
  index_[key] = lru_.begin();
  bytes_ += sz;
  evict_to_cap_locked();
  return sp;
}

void TraceStore::evict_to_cap_locked() {
  while (bytes_ > max_bytes_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.trace->bytes.size();
    index_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
  }
}

TraceStore::Stats TraceStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Stats{hits_, misses_, evictions_, bytes_, lru_.size()};
}

void TraceStore::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

}  // namespace blk::trace
