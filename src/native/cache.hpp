// Content-addressed on-disk kernel cache.
//
// Key = hash(emitted C source + compiler identity + flags); value = the
// compiled shared object.  Entries are shared across processes: a
// per-entry advisory file lock (flock) serializes compilation, so a
// fuzzer fleet and a benchmark running concurrently compile each distinct
// kernel exactly once and everyone else waits for (then reuses) the
// result.  The emitted C is kept next to the .so for inspection, and a
// sidecar .meta records the object's own content hash so truncated or
// corrupted entries are detected and recompiled instead of dlopened.
//
// Hygiene: entry mtimes are refreshed on every hit, and after each insert
// the cache evicts least-recently-used entries until the directory is
// within its byte budget ($BLK_NATIVE_CACHE_MAX_MB, default 256).
#pragma once

#include <cstdint>
#include <string>

#include "native/jit.hpp"

namespace blk::native {

/// Result of a cache lookup-or-compile.
struct CompileOutcome {
  std::string so_path;   ///< the shared object to dlopen
  std::string c_path;    ///< the emitted C kept beside it
  std::string key;       ///< content hash (hex)
  bool cache_hit = false;
  double compile_seconds = 0.0;  ///< 0 on a hit
};

class KernelCache {
 public:
  explicit KernelCache(std::string dir = default_dir(),
                       std::uint64_t max_bytes = default_max_bytes());

  /// $BLK_NATIVE_CACHE_DIR, else $XDG_CACHE_HOME/blk-native, else
  /// $HOME/.cache/blk-native, else /tmp/blk-native-cache.
  [[nodiscard]] static std::string default_dir();

  /// $BLK_NATIVE_CACHE_MAX_MB (default 256) in bytes.
  [[nodiscard]] static std::uint64_t default_max_bytes();

  /// The 128-bit content key for (source, toolchain), as 32 hex chars.
  [[nodiscard]] static std::string hash_key(const std::string& c_source,
                                            const Toolchain& tc);

  /// Return the shared object for `c_source` compiled by `tc`, compiling
  /// under the entry's file lock when absent or failing re-verification.
  /// Throws blk::Error when the compiler rejects the source (the message
  /// carries the compiler's stderr).
  CompileOutcome get_or_compile(const std::string& c_source,
                                const Toolchain& tc);

  /// Remove least-recently-used entries until the directory fits the
  /// byte budget; `keep_key` (the entry just produced) is never evicted.
  void evict_to_cap(const std::string& keep_key = "");

  /// Total bytes currently in the cache directory.
  [[nodiscard]] std::uint64_t size_bytes() const;

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] std::uint64_t max_bytes() const { return max_bytes_; }

 private:
  std::string dir_;
  std::uint64_t max_bytes_;
};

/// The process-wide cache every Kernel uses unless given its own.
[[nodiscard]] KernelCache& default_cache();

}  // namespace blk::native
