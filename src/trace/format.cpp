#include "trace/format.hpp"

#include "interp/vm.hpp"
#include "ir/error.hpp"

namespace blk::trace {

namespace {

constexpr std::uint8_t kOpLit = 0x01;
constexpr std::uint8_t kOpRun = 0x02;
constexpr std::uint8_t kOpRunA = 0x03;

[[nodiscard]] std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void write_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Delta+write bit of one access relative to the previous address.
[[nodiscard]] std::uint64_t make_val(std::uint64_t addr, std::uint64_t prev,
                                     bool is_write) {
  return (zigzag(static_cast<std::int64_t>(addr - prev)) << 1) |
         static_cast<std::uint64_t>(is_write);
}

}  // namespace

// ---- TraceEncoder -----------------------------------------------------------

TraceEncoder::TraceEncoder(EncodedTrace& out, std::uint64_t sync_interval)
    : out_(out), sync_interval_(sync_interval) {
  if (!out_.bytes.empty() || out_.records != 0)
    throw Error("TraceEncoder: output trace must be fresh");
  out_.syncs = {SyncPoint{0, 0}};
  pending_.reserve(1024);
}

void TraceEncoder::append(std::uint64_t addr, bool is_write) {
  const std::uint64_t val = make_val(addr, last_addr_, is_write);
  last_addr_ = addr;
  ++appended_;
  push_val(val);
  maybe_auto_sync();
}

void TraceEncoder::push_val(std::uint64_t val) {
  if (run_period_ != 0) {
    if (hist_size_ >= run_period_ && val == hist_at(run_period_ - 1)) {
      ++run_extra_;
      push_hist(val);
      return;
    }
    close_run();
  }
  literal_push(val);
}

void TraceEncoder::literal_push(std::uint64_t val) {
  push_hist(val);
  // `val` continues period P when it equals the val P pushes before it
  // (val itself is now back 0, so that predecessor sits at back P).
  const std::size_t pmax = hist_size_ > 0 ? hist_size_ - 1 : 0;
  for (std::size_t p = 1; p <= kAutoPeriodMax; ++p)
    matched_[p] = (p <= pmax && hist_at(p) == val) ? matched_[p] + 1 : 0;
  pending_.push_back(val);

  // Open the smallest period whose run is long enough to pay for the op.
  for (std::size_t p = 1; p <= kAutoPeriodMax; ++p) {
    const std::uint32_t threshold =
        p > kMinAutoRun ? static_cast<std::uint32_t>(p) : kMinAutoRun;
    if (matched_[p] < threshold) continue;
    // The RUN op replays the last p *emitted* vals; make sure a full
    // reference period will precede it in the output stream.
    const std::uint64_t m = matched_[p];  // content vals, all in pending_
    const std::uint64_t preceding =
        (emitted_ - last_sync_records_) + (pending_.size() - m);
    if (preceding < p) continue;
    pending_.resize(pending_.size() - m);
    emit_literals();
    run_period_ = p;
    run_extra_ = m;
    for (auto& c : matched_) c = 0;
    break;
  }
}

void TraceEncoder::close_run() {
  const std::uint64_t repeats = run_extra_ / run_period_;
  const std::uint64_t leftover = run_extra_ % run_period_;
  out_.bytes.push_back(kOpRun);
  write_varint(out_.bytes, run_period_);
  write_varint(out_.bytes, repeats);
  emitted_ += repeats * run_period_;
  // Vals past the last whole period go back to literals (they are the
  // most recent pushes, still in the history ring).
  for (std::uint64_t i = leftover; i >= 1; --i)
    pending_.push_back(hist_at(i - 1));
  run_period_ = 0;
  run_extra_ = 0;
  for (auto& c : matched_) c = 0;
}

void TraceEncoder::emit_literals() {
  if (pending_.empty()) return;
  out_.bytes.push_back(kOpLit);
  write_varint(out_.bytes, pending_.size());
  for (std::uint64_t v : pending_) write_varint(out_.bytes, v);
  emitted_ += pending_.size();
  pending_.clear();
}

void TraceEncoder::append_run_affine(std::span<const RefPattern> slots,
                                     std::uint64_t repeats) {
  if (slots.empty() || repeats == 0) return;
  if (slots.size() > kMaxPeriod)
    throw Error("TraceEncoder: RUNA pattern exceeds kMaxPeriod");
  if (run_period_ != 0) close_run();
  emit_literals();
  const std::uint64_t anchor = last_addr_;
  out_.bytes.push_back(kOpRunA);
  write_varint(out_.bytes, slots.size());
  write_varint(out_.bytes, repeats);
  for (const RefPattern& s : slots) {
    write_varint(
        out_.bytes,
        (zigzag(static_cast<std::int64_t>(s.start_addr - anchor)) << 1) |
            static_cast<std::uint64_t>(s.is_write));
    write_varint(out_.bytes, zigzag(s.stride));
  }
  const std::uint64_t n = slots.size() * repeats;
  appended_ += n;
  emitted_ += n;
  last_addr_ = slots.back().start_addr +
               static_cast<std::uint64_t>(slots.back().stride) * (repeats - 1);
  // The decoder clears its val history after a RUNA; mirror that so any
  // later RUN op only references post-RUNA vals.
  reset_pattern_state();
  maybe_auto_sync();
}

void TraceEncoder::sync() {
  if (finished_) throw Error("TraceEncoder: sync after finish");
  if (run_period_ != 0) close_run();
  emit_literals();
  // Collapse duplicate syncs (e.g. sync() right after construction).
  if (out_.syncs.back().byte_offset != out_.bytes.size())
    out_.syncs.push_back(
        SyncPoint{out_.bytes.size(), emitted_});
  last_addr_ = 0;
  reset_pattern_state();
  last_sync_records_ = emitted_;
}

void TraceEncoder::maybe_auto_sync() {
  if (sync_interval_ == 0 || run_period_ != 0) return;
  if (emitted_ + pending_.size() - last_sync_records_ >= sync_interval_)
    sync();
}

void TraceEncoder::finish() {
  if (finished_) throw Error("TraceEncoder: finish called twice");
  if (run_period_ != 0) close_run();
  emit_literals();
  out_.records = emitted_;
  finished_ = true;
}

// ---- TraceDecoder -----------------------------------------------------------

TraceDecoder::TraceDecoder(const EncodedTrace& t)
    : TraceDecoder(t, 0, t.bytes.size()) {}

TraceDecoder::TraceDecoder(const EncodedTrace& t, std::uint64_t byte_begin,
                           std::uint64_t byte_end)
    : data_(t.bytes.data()), pos_(byte_begin), end_(byte_end),
      syncs_(&t.syncs) {
  if (byte_begin > byte_end || byte_end > t.bytes.size())
    throw Error("TraceDecoder: byte range out of bounds");
  // State is already clean at byte_begin (a shard must start on a sync),
  // so only syncs strictly inside the range trigger a reset.
  while (sync_idx_ < syncs_->size() &&
         (*syncs_)[sync_idx_].byte_offset <= byte_begin)
    ++sync_idx_;
  pattern_.reserve(TraceEncoder::kAutoPeriodMax);
  slots_.reserve(8);
}

std::uint64_t TraceDecoder::read_varint() {
  std::uint64_t v = 0;
  unsigned shift = 0;
  for (;;) {
    if (pos_ >= end_) throw Error("TraceDecoder: truncated varint");
    const std::uint8_t b = data_[pos_++];
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
    if (shift >= 64) throw Error("TraceDecoder: varint overflow");
  }
}

void TraceDecoder::begin_op() {
  const std::uint8_t tag = data_[pos_++];
  switch (tag) {
    case kOpLit:
      op_ = Op::Lit;
      op_remaining_ = read_varint();
      break;
    case kOpRun: {
      const std::uint64_t p = read_varint();
      const std::uint64_t r = read_varint();
      if (p == 0 || p > hist_size_)
        throw Error("TraceDecoder: RUN period exceeds history");
      pattern_.clear();
      for (std::uint64_t i = p; i >= 1; --i) pattern_.push_back(hist_[
          (hist_head_ - (i - 1)) & (TraceEncoder::kHistCap - 1)]);
      pattern_pos_ = 0;
      op_ = Op::Run;
      op_remaining_ = p * r;
      break;
    }
    case kOpRunA: {
      const std::uint64_t p = read_varint();
      const std::uint64_t r = read_varint();
      if (p == 0 || p > TraceEncoder::kMaxPeriod)
        throw Error("TraceDecoder: bad RUNA period");
      slots_.clear();
      const std::uint64_t anchor = last_addr_;
      for (std::uint64_t j = 0; j < p; ++j) {
        const std::uint64_t sv = read_varint();
        const std::int64_t ds = unzigzag(sv >> 1);
        const std::int64_t g = unzigzag(read_varint());
        slots_.push_back(Slot{anchor + static_cast<std::uint64_t>(ds), g,
                              (sv & 1) != 0});
      }
      slot_pos_ = 0;
      op_ = Op::RunA;
      op_remaining_ = p * r;
      break;
    }
    default:
      throw Error("TraceDecoder: unknown op tag");
  }
}

std::size_t TraceDecoder::next(std::span<interp::TraceRecord> out) {
  std::size_t n = 0;
  while (n < out.size()) {
    if (op_ == Op::None) {
      if (pos_ >= end_) break;
      while (sync_idx_ < syncs_->size() &&
             (*syncs_)[sync_idx_].byte_offset == pos_) {
        last_addr_ = 0;
        hist_size_ = 0;
        ++sync_idx_;
      }
      begin_op();
      if (op_remaining_ == 0) {  // degenerate empty op
        op_ = Op::None;
        continue;
      }
    }
    switch (op_) {
      case Op::Lit: {
        const std::uint64_t v = read_varint();
        last_addr_ += static_cast<std::uint64_t>(unzigzag(v >> 1));
        out[n++] = {last_addr_, (v & 1) != 0};
        hist_head_ = (hist_head_ + 1) & (TraceEncoder::kHistCap - 1);
        hist_[hist_head_] = v;
        if (hist_size_ < TraceEncoder::kHistCap) ++hist_size_;
        break;
      }
      case Op::Run: {
        const std::uint64_t v = pattern_[pattern_pos_];
        pattern_pos_ = (pattern_pos_ + 1) % pattern_.size();
        last_addr_ += static_cast<std::uint64_t>(unzigzag(v >> 1));
        out[n++] = {last_addr_, (v & 1) != 0};
        hist_head_ = (hist_head_ + 1) & (TraceEncoder::kHistCap - 1);
        hist_[hist_head_] = v;
        if (hist_size_ < TraceEncoder::kHistCap) ++hist_size_;
        break;
      }
      case Op::RunA: {
        Slot& s = slots_[slot_pos_];
        out[n++] = {s.addr, s.is_write};
        last_addr_ = s.addr;
        s.addr += static_cast<std::uint64_t>(s.stride);
        if (++slot_pos_ == slots_.size()) slot_pos_ = 0;
        break;
      }
      case Op::None:
        break;  // unreachable
    }
    if (--op_remaining_ == 0) {
      if (op_ == Op::RunA) {
        // Mirror the encoder: val history resets after a RUNA op.
        hist_size_ = 0;
      }
      op_ = Op::None;
    }
  }
  return n;
}

// ---- Sharding ---------------------------------------------------------------

std::vector<Shard> make_shard_plan(const EncodedTrace& t,
                                   std::uint64_t target_records) {
  if (target_records == 0) target_records = 1;
  std::vector<Shard> plan;
  std::uint64_t cur_byte = 0;
  std::uint64_t cur_rec = 0;
  for (const SyncPoint& sp : t.syncs) {
    if (sp.record_index - cur_rec >= target_records &&
        sp.byte_offset > cur_byte) {
      plan.push_back(Shard{cur_byte, sp.byte_offset, cur_rec,
                           sp.record_index});
      cur_byte = sp.byte_offset;
      cur_rec = sp.record_index;
    }
  }
  if (plan.empty() || cur_byte < t.bytes.size())
    plan.push_back(Shard{cur_byte, t.bytes.size(), cur_rec, t.records});
  return plan;
}

std::vector<interp::TraceRecord> decode_all(const EncodedTrace& t) {
  std::vector<interp::TraceRecord> out;
  out.reserve(t.records);
  TraceDecoder dec(t);
  interp::TraceRecord batch[4096];
  std::size_t n;
  while ((n = dec.next(batch)) != 0) out.insert(out.end(), batch, batch + n);
  return out;
}

// ---- Record from the VM -----------------------------------------------------

EncodedTrace record_trace(const ir::Program& p, const ir::Env& params,
                          std::uint64_t seed) {
  interp::ExecEngine eng(p, params);
  interp::seed_store(eng.store(), seed);
  EncodedTrace t;
  TraceEncoder enc(t);
  interp::TraceBuffer buf(1 << 16, &enc, &TraceEncoder::sink);
  eng.run(buf);
  buf.flush();
  enc.finish();
  return t;
}

}  // namespace blk::trace
