#include "native/cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "ir/error.hpp"

namespace blk::native {

namespace fs = std::filesystem;

namespace {

/// FNV-1a 64 with a caller-chosen offset basis; two bases give the
/// 128-bit key.
std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string hash_text(const std::string& text) {
  return hex64(fnv1a(text, 14695981039346656037ULL)) +
         hex64(fnv1a(text, 88172645463325252ULL));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// RAII advisory lock on `path` (created if absent).  Degrades to a no-op
/// when the file cannot be opened — the cache then still works, just
/// without cross-process compile sharing.
class FileLock {
 public:
  explicit FileLock(const std::string& path)
      : fd_(::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0666)) {
    if (fd_ >= 0) ::flock(fd_, LOCK_EX);
  }
  ~FileLock() {
    if (fd_ >= 0) {
      ::flock(fd_, LOCK_UN);
      ::close(fd_);
    }
  }
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

 private:
  int fd_;
};

void touch_now(const std::string& path) {
  std::error_code ec;
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
}

/// Sidecar format: one line, "so_hash=<32hex>".
std::string read_meta_hash(const std::string& meta_path) {
  std::string text = read_file(meta_path);
  const std::string kKey = "so_hash=";
  auto pos = text.find(kKey);
  if (pos == std::string::npos) return "";
  std::string v = text.substr(pos + kKey.size());
  while (!v.empty() && (v.back() == '\n' || v.back() == '\r')) v.pop_back();
  return v;
}

}  // namespace

KernelCache::KernelCache(std::string dir, std::uint64_t max_bytes)
    : dir_(std::move(dir)), max_bytes_(max_bytes) {}

std::string KernelCache::default_dir() {
  if (const char* d = std::getenv("BLK_NATIVE_CACHE_DIR"); d && *d) return d;
  if (const char* x = std::getenv("XDG_CACHE_HOME"); x && *x)
    return std::string(x) + "/blk-native";
  if (const char* h = std::getenv("HOME"); h && *h)
    return std::string(h) + "/.cache/blk-native";
  return "/tmp/blk-native-cache";
}

std::uint64_t KernelCache::default_max_bytes() {
  if (const char* mb = std::getenv("BLK_NATIVE_CACHE_MAX_MB"); mb && *mb) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(mb, &end, 10);
    if (end != mb) return static_cast<std::uint64_t>(v) * 1024 * 1024;
  }
  return 256ULL * 1024 * 1024;
}

std::string KernelCache::hash_key(const std::string& c_source,
                                  const Toolchain& tc) {
  return hash_text(c_source + '\x1f' + tc.id());
}

CompileOutcome KernelCache::get_or_compile(const std::string& c_source,
                                           const Toolchain& tc) {
  std::error_code ec;
  fs::create_directories(dir_, ec);

  CompileOutcome out;
  out.key = hash_key(c_source, tc);
  const std::string stem = dir_ + "/" + out.key;
  out.so_path = stem + ".so";
  out.c_path = stem + ".c";
  const std::string meta_path = stem + ".meta";

  FileLock lock(stem + ".lock");

  // Hit path: the object exists and still matches its recorded hash
  // (catching truncation or corruption from killed writers / bad disks).
  if (fs::exists(out.so_path, ec) && fs::exists(meta_path, ec)) {
    const std::string want = read_meta_hash(meta_path);
    if (!want.empty() && want == hash_text(read_file(out.so_path))) {
      out.cache_hit = true;
      touch_now(out.so_path);  // LRU recency
      return out;
    }
  }

  // Miss (or corrupt entry): compile under the lock.  The source is kept
  // beside the object as the inspection artifact.
  {
    std::ofstream src(out.c_path, std::ios::binary | std::ios::trunc);
    src << c_source;
    if (!src) throw Error("native: cannot write " + out.c_path);
  }
  const std::string tmp =
      out.so_path + ".tmp." + std::to_string(::getpid());
  const std::string err_path = stem + ".err";
  const std::string cmd =
      tc.command(out.c_path, tmp) + " 2> '" + err_path + "'";
  const auto t0 = std::chrono::steady_clock::now();
  const int rc = std::system(cmd.c_str());
  out.compile_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (rc != 0) {
    std::string why = read_file(err_path);
    fs::remove(tmp, ec);
    throw Error("native: compilation failed (" + cmd + ")\n" + why);
  }
  fs::rename(tmp, out.so_path, ec);
  if (ec)
    throw Error("native: cannot move compiled object into cache: " +
                ec.message());
  {
    std::ofstream meta(meta_path, std::ios::trunc);
    meta << "so_hash=" << hash_text(read_file(out.so_path)) << "\n";
  }
  fs::remove(err_path, ec);

  evict_to_cap(out.key);
  return out;
}

std::uint64_t KernelCache::size_bytes() const {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir_, ec)) {
    if (!e.is_regular_file(ec)) continue;
    total += static_cast<std::uint64_t>(e.file_size(ec));
  }
  return total;
}

void KernelCache::evict_to_cap(const std::string& keep_key) {
  std::error_code ec;
  if (!fs::exists(dir_, ec)) return;
  FileLock lock(dir_ + "/.evict.lock");

  struct Entry {
    std::string key;
    fs::file_time_type mtime;
    std::uint64_t bytes = 0;
  };
  std::vector<Entry> entries;
  std::uint64_t total = 0;
  for (const auto& e : fs::directory_iterator(dir_, ec)) {
    if (!e.is_regular_file(ec)) continue;
    const std::uint64_t sz = static_cast<std::uint64_t>(e.file_size(ec));
    total += sz;
    const fs::path p = e.path();
    if (p.extension() != ".so") continue;
    entries.push_back({p.stem().string(), fs::last_write_time(p, ec), sz});
    // Charge the sidecars to the entry so eviction frees what it counts.
    for (const char* ext : {".c", ".meta"}) {
      std::error_code ec2;
      const auto side = fs::path(dir_) / (entries.back().key + ext);
      if (fs::exists(side, ec2))
        entries.back().bytes +=
            static_cast<std::uint64_t>(fs::file_size(side, ec2));
    }
  }
  if (total <= max_bytes_) return;

  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.mtime < b.mtime; });
  for (const Entry& entry : entries) {
    if (total <= max_bytes_) break;
    if (entry.key == keep_key) continue;
    for (const char* ext : {".so", ".c", ".meta", ".lock", ".err"})
      fs::remove(fs::path(dir_) / (entry.key + ext), ec);
    total -= std::min<std::uint64_t>(total, entry.bytes);
  }
}

KernelCache& default_cache() {
  static KernelCache cache;
  return cache;
}

}  // namespace blk::native
