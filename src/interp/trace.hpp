// Flat access-trace records and the reusable buffer every traced engine
// run emits them into.
//
// Both the tree-walker and the VM append fixed-size records to a
// TraceBuffer, and consumers replay whole batches (e.g.
// cachesim::Hierarchy::simulate) without any per-access indirection.  A
// buffer either retains its records or carries a sink: once
// `flush_threshold` records accumulate they are delivered in one span and
// the buffer is reused, so arbitrarily long traces (N=300 LU is ~10^8
// accesses) run in constant memory.
//
// The sink is a plain function pointer plus context: every flush
// (cachesim streaming, the trace encoder's record hook) dispatches through
// one indirect call with no allocation or type erasure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace blk::interp {

/// One array-element access: synthetic byte address plus direction.
struct TraceRecord {
  std::uint64_t addr = 0;
  bool is_write = false;

  [[nodiscard]] bool operator==(const TraceRecord&) const = default;
};

/// Growable, reusable trace store with optional batched delivery.
class TraceBuffer {
 public:
  /// Batch sink: one indirect call per flush, no type erasure.
  using SinkFn = void (*)(void* ctx, std::span<const TraceRecord>);

  TraceBuffer() { recs_.reserve(4096); }

  /// Streaming mode: whenever `flush_threshold` records accumulate they
  /// are handed to `sink(ctx, ...)` and dropped, bounding memory.
  TraceBuffer(std::size_t flush_threshold, void* ctx, SinkFn sink)
      : flush_threshold_(flush_threshold), sink_ctx_(ctx), sink_fn_(sink) {
    recs_.reserve(flush_threshold_ ? flush_threshold_ : 4096);
  }

  void append(std::uint64_t addr, bool is_write) {
    recs_.push_back({addr, is_write});
    if (flush_threshold_ != 0 && recs_.size() >= flush_threshold_) flush();
  }

  /// Deliver buffered records to the sink (if any) and clear them.
  /// Without a sink this is a no-op, so retained-mode users keep records.
  void flush() {
    if (!sink_fn_) return;
    if (!recs_.empty()) sink_fn_(sink_ctx_, recs_);
    recs_.clear();
  }

  void clear() { recs_.clear(); }

  /// Move the retained records out (the buffer is left empty and
  /// reusable), so a consumer can keep a whole trace without copying.
  [[nodiscard]] std::vector<TraceRecord> take_records() {
    std::vector<TraceRecord> out;
    out.swap(recs_);
    return out;
  }

  [[nodiscard]] std::span<const TraceRecord> records() const { return recs_; }
  [[nodiscard]] std::size_t size() const { return recs_.size(); }
  [[nodiscard]] bool empty() const { return recs_.empty(); }

 private:
  std::vector<TraceRecord> recs_;
  std::size_t flush_threshold_ = 0;
  void* sink_ctx_ = nullptr;
  SinkFn sink_fn_ = nullptr;
};

}  // namespace blk::interp
