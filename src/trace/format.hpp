// Compressed access-trace format: record once, replay many.
//
// A raw trace is a stream of TraceRecord{addr, is_write} — 16 bytes per
// array access, ~10^8 records for N=300 LU and ~10^10 for N=2000, which
// makes gigabyte traces the inner loop of blocking-factor selection.
// This format exploits what the VM already strength-reduces: numerical
// kernels touch memory in affine patterns, so the *delta* stream is tiny
// and overwhelmingly periodic.
//
// ## Encoding
//
// Each record becomes a value `val = zigzag(addr - prev_addr) << 1 | w`
// (w = is_write).  Values are grouped into ops, each a tag byte followed
// by LEB128 varints:
//
//   LIT  (0x01) n, then n vals            — n literal records
//   RUN  (0x02) P, R                      — repeat the last P decoded
//                                           vals R times (P*R records);
//                                           the pattern is the decoder's
//                                           val history, so any periodic
//                                           delta sequence collapses
//   RUNA (0x03) P, R, then P slots of     — P interleaved arithmetic
//        (zigzag(start-anchor)<<1|w, G)     streams: rep t emits, for
//                                           each slot j, the access
//                                           start_j + t*G_j.  anchor is
//                                           the decoder's last address
//                                           at op start.  This is the
//                                           synthesizer's workhorse: one
//                                           inner-loop *instance* of any
//                                           affine nest is exactly one
//                                           RUNA op, because each
//                                           reference's address is affine
//                                           in the loop variable even
//                                           when different references
//                                           carry different coefficients
//                                           (A(I,J), A(I,K), A(K,J) in
//                                           LU).  A plain RUN cannot
//                                           express that: its deltas
//                                           would drift with I.
//
// The encoder auto-detects RUNs online (periods up to 32) for VM-recorded
// traces; RUNA ops are only emitted explicitly by the trace synthesizer,
// which knows the strides symbolically.
//
// ## Sync points and sharding
//
// A side table of (byte_offset, record_index) sync points marks positions
// where the decoder state (previous address, val history) resets, so a
// decode may *start* at any sync point without reading what came before.
// The encoder plants one roughly every `sync_interval` records, always on
// an op boundary.  make_shard_plan() cuts the stream at sync points into
// shards of ~target_records each — the plan depends only on the trace and
// the target, never on worker count, which is what makes sharded replay
// bit-identical at any parallelism (see trace/replay.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "interp/trace.hpp"
#include "ir/program.hpp"

namespace blk::trace {

/// A position where decoding may begin: decoder state is reset here.
struct SyncPoint {
  std::uint64_t byte_offset = 0;
  std::uint64_t record_index = 0;

  [[nodiscard]] bool operator==(const SyncPoint&) const = default;
};

/// A finished compressed trace.
struct EncodedTrace {
  std::vector<std::uint8_t> bytes;
  std::uint64_t records = 0;
  std::vector<SyncPoint> syncs;  ///< ascending; first is always {0, 0}

  /// Size of the equivalent raw in-memory TraceRecord stream.
  [[nodiscard]] std::uint64_t raw_bytes() const {
    return records * sizeof(interp::TraceRecord);
  }
  [[nodiscard]] double compression_ratio() const {
    return bytes.empty() ? 0.0
                         : static_cast<double>(raw_bytes()) /
                               static_cast<double>(bytes.size());
  }

  /// Binary round-trip to disk (magic + counts + sync table + bytes).
  /// Throws blk::Error on I/O failure or a malformed file.
  void save(const std::string& path) const;
  [[nodiscard]] static EncodedTrace load(const std::string& path);
};

/// Streaming encoder.  Feed accesses with append() (or hook a TraceBuffer
/// via sink()); the synthesizer uses append_run_affine() for whole loop
/// instances.  Call finish() exactly once before using the EncodedTrace.
class TraceEncoder {
 public:
  static constexpr std::size_t kAutoPeriodMax = 32;  ///< RUN detection
  static constexpr std::size_t kMaxPeriod = 64;      ///< RUNA slot cap
  static constexpr std::uint64_t kDefaultSyncInterval = 1u << 20;
  static constexpr std::size_t kHistCap = 128;  ///< val-history ring (pow2)

  /// One arithmetic reference stream for append_run_affine(): at
  /// repetition t it contributes the access `start_addr + t*stride`.
  struct RefPattern {
    std::uint64_t start_addr = 0;
    std::int64_t stride = 0;
    bool is_write = false;
  };

  /// `out` must be a fresh EncodedTrace; it is finalized by finish().
  /// sync_interval = 0 disables automatic sync points (the single
  /// implicit sync at offset 0 remains).
  explicit TraceEncoder(EncodedTrace& out,
                        std::uint64_t sync_interval = kDefaultSyncInterval);

  void append(std::uint64_t addr, bool is_write);

  /// Emit `slots.size() * repeats` records in one RUNA op: repetition t
  /// emits slots in order, slot j at address start_addr_j + t*stride_j.
  /// repeats == 0 or empty slots is a no-op; slots.size() must be
  /// <= kMaxPeriod (throws blk::Error otherwise).
  void append_run_affine(std::span<const RefPattern> slots,
                         std::uint64_t repeats);

  /// Force a sync point here (closes any open run, flushes literals).
  void sync();

  /// Flush everything and finalize the EncodedTrace.
  void finish();

  [[nodiscard]] std::uint64_t records() const { return appended_; }

  /// TraceBuffer flush sink: pass (encoder pointer, &sink) as the
  /// buffer's (ctx, fn) to record a VM execution straight into the
  /// encoder with no per-access indirection beyond one flush call.
  static void sink(void* ctx, std::span<const interp::TraceRecord> recs) {
    auto* enc = static_cast<TraceEncoder*>(ctx);
    for (const interp::TraceRecord& r : recs) enc->append(r.addr, r.is_write);
  }

 private:
  static constexpr std::uint32_t kMinAutoRun = 4;

  EncodedTrace& out_;
  std::uint64_t sync_interval_;
  std::uint64_t last_addr_ = 0;
  std::uint64_t appended_ = 0;       ///< records fed in
  std::uint64_t emitted_ = 0;        ///< records written to ops
  std::uint64_t last_sync_records_ = 0;
  std::vector<std::uint64_t> pending_;  ///< literal vals not yet emitted
  std::uint64_t hist_[kHistCap] = {};   ///< ring of recent vals
  std::size_t hist_head_ = 0;
  std::size_t hist_size_ = 0;
  std::uint32_t matched_[kAutoPeriodMax + 1] = {};
  std::size_t run_period_ = 0;  ///< 0: no open auto-run
  std::uint64_t run_extra_ = 0; ///< vals absorbed by the open run
  bool finished_ = false;

  /// Val pushed `back` pushes ago (back = 0 is the most recent).
  [[nodiscard]] std::uint64_t hist_at(std::size_t back) const {
    return hist_[(hist_head_ - back) & (kHistCap - 1)];
  }
  void push_hist(std::uint64_t v) {
    hist_head_ = (hist_head_ + 1) & (kHistCap - 1);
    hist_[hist_head_] = v;
    if (hist_size_ < kHistCap) ++hist_size_;
  }
  void reset_pattern_state() {
    hist_size_ = 0;
    for (auto& m : matched_) m = 0;
  }

  void push_val(std::uint64_t val);
  void literal_push(std::uint64_t val);
  void close_run();
  void emit_literals();
  void maybe_auto_sync();
};

/// Streaming decoder over a whole trace or one shard byte range.  A shard
/// range must begin at a sync point (where decoder state is defined to be
/// reset) and end at a sync point or at the end of the stream.
class TraceDecoder {
 public:
  explicit TraceDecoder(const EncodedTrace& t);
  TraceDecoder(const EncodedTrace& t, std::uint64_t byte_begin,
               std::uint64_t byte_end);

  /// Fill `out` with the next decoded records; returns how many were
  /// produced (0 exactly when the range is exhausted).
  std::size_t next(std::span<interp::TraceRecord> out);

 private:
  const std::uint8_t* data_;
  std::uint64_t pos_;
  std::uint64_t end_;
  // Sync points inside the range: decoder state resets when an op
  // boundary lands on one, mirroring the encoder (which encodes the
  // first post-sync record as a delta from address 0).
  const std::vector<SyncPoint>* syncs_;
  std::size_t sync_idx_ = 0;  ///< next sync not yet crossed
  std::uint64_t last_addr_ = 0;
  // val history for RUN patterns
  std::uint64_t hist_[TraceEncoder::kHistCap] = {};
  std::size_t hist_head_ = 0;
  std::size_t hist_size_ = 0;
  // in-progress op state (an op larger than the output span resumes)
  enum class Op : std::uint8_t { None, Lit, Run, RunA };
  Op op_ = Op::None;
  std::uint64_t op_remaining_ = 0;  ///< records left in the current op
  std::vector<std::uint64_t> pattern_;  ///< RUN: snapshot of P vals
  std::size_t pattern_pos_ = 0;
  struct Slot {
    std::uint64_t addr;
    std::int64_t stride;
    bool is_write;
  };
  std::vector<Slot> slots_;  ///< RUNA streams (addr advances in place)
  std::size_t slot_pos_ = 0;

  void begin_op();
  [[nodiscard]] std::uint64_t read_varint();
};

/// One contiguous piece of the encoded stream, cut at sync points.
struct Shard {
  std::uint64_t byte_begin = 0;
  std::uint64_t byte_end = 0;
  std::uint64_t record_begin = 0;
  std::uint64_t record_end = 0;

  [[nodiscard]] std::uint64_t records() const {
    return record_end - record_begin;
  }
};

/// Deterministic shard plan: cut the trace at sync points into pieces of
/// roughly `target_records` each.  Depends only on (trace, target), never
/// on worker count.  Always returns at least one shard covering the whole
/// stream; a trace smaller than the target yields exactly one shard.
[[nodiscard]] std::vector<Shard> make_shard_plan(const EncodedTrace& t,
                                                 std::uint64_t target_records);

/// Decode the whole trace into memory (test/debug convenience — defeats
/// the point for production-sized traces).
[[nodiscard]] std::vector<interp::TraceRecord> decode_all(
    const EncodedTrace& t);

/// Record one VM execution of `p` (seeded by `seed`) into a compressed
/// trace.  Works for any program, including data-dependent control flow;
/// the synthesizer (trace/synth.hpp) is the faster path when eligible.
[[nodiscard]] EncodedTrace record_trace(const ir::Program& p,
                                        const ir::Env& params,
                                        std::uint64_t seed = 42);

}  // namespace blk::trace
