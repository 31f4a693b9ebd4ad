// Entropy-coded segment bit I/O with JPEG byte stuffing: every 0xFF data
// byte is followed by a 0x00 stuff byte on write and the pair is collapsed
// on read; an 0xFF followed by anything else is a marker and terminates the
// entropy data.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>

#include "arch/arch.h"
#include "util/logging.h"
#include "util/slice.h"

namespace pcr::jpeg {

/// MSB-first bit writer with byte stuffing, appending to a string. Bits
/// gather in a 64-bit accumulator and leave as whole 32-bit words: a word
/// holding no 0xFF byte (the common case) is stored in one go, any other
/// byte by byte with a 0x00 stuff byte after each 0xFF. Words are stored
/// through a raw pointer into slack the writer keeps at the end of the
/// string; the string holds exactly the written bytes once AlignToByte
/// returns, and again when the writer is destroyed.
class BitWriter {
 public:
  explicit BitWriter(std::string* out)
      : out_(out), size_(out->size()), capacity_(size_) {}
  ~BitWriter() { TrimSlack(); }

  BitWriter(const BitWriter&) = delete;
  BitWriter& operator=(const BitWriter&) = delete;

  /// Writes the low `count` bits of `bits`, MSB first. count in [0, 32].
  void WriteBits(uint32_t bits, int count) {
    PCR_DCHECK(count >= 0 && count <= 32);
    acc_ = (acc_ << count) | (bits & ((uint64_t{1} << count) - 1));
    acc_count_ += count;
    if (acc_count_ >= 32) FlushWord();
  }

  void WriteBit(int bit) { WriteBits(bit & 1, 1); }

  /// Pads the final partial byte with 1-bits (per the JPEG spec) and flushes.
  void AlignToByte() {
    const int pad = -acc_count_ & 7;
    acc_ = (acc_ << pad) | ((1u << pad) - 1);
    acc_count_ += pad;
    Reserve(8);
    while (acc_count_ > 0) {
      acc_count_ -= 8;
      PutByte(static_cast<uint8_t>(acc_ >> acc_count_));
    }
    TrimSlack();
  }

 private:
  // Moves the oldest 32 buffered bits to the output.
  void FlushWord() {
    acc_count_ -= 32;
    const uint32_t word = static_cast<uint32_t>(acc_ >> acc_count_);
    Reserve(8);
    const uint32_t inverted = ~word;  // A 0xFF byte becomes a zero byte.
    if (((inverted - 0x01010101u) & ~inverted & 0x80808080u) == 0) {
      const uint32_t big_endian = __builtin_bswap32(word);
      std::memcpy(buf_ + size_, &big_endian, 4);
      size_ += 4;
      return;
    }
    for (int shift = 24; shift >= 0; shift -= 8) {
      PutByte(static_cast<uint8_t>(word >> shift));
    }
  }

  // Ensures room for `n` more bytes past size_: first the string's spare
  // capacity, then geometric growth.
  void Reserve(size_t n) {
    if (capacity_ - size_ >= n) return;
    out_->resize(std::max(out_->capacity(), 2 * size_ + n));
    buf_ = out_->data();
    capacity_ = out_->size();
  }

  // Drops the unwritten slack, leaving the string to whoever appends next.
  void TrimSlack() {
    if (capacity_ == size_) return;
    out_->resize(size_);
    capacity_ = size_;
  }

  void PutByte(uint8_t byte) {
    buf_[size_++] = static_cast<char>(byte);
    if (byte == 0xff) buf_[size_++] = '\0';  // Stuff byte.
  }

  std::string* out_;
  char* buf_ = nullptr;  // out_->data() once Reserve has grown the string.
  size_t size_;          // Bytes of out_ written so far.
  size_t capacity_;      // out_->size(): writable bytes at buf_.
  uint64_t acc_ = 0;     // Low acc_count_ bits are pending output.
  int acc_count_ = 0;
};

/// MSB-first bit reader over entropy data, built on a buffered 64-bit
/// accumulator: a bulk refill pulls whole bytes from the input, collapsing
/// 0xFF00 stuffing as it goes, so the per-bit hot path is shift arithmetic
/// only. Stops (reports exhaustion) at a marker (0xFF followed by non-zero)
/// or end of input; a truncated stream is not an error at this layer —
/// partial-scan decode relies on it.
///
/// Peek(n)/Consume(n) expose the accumulator to table-driven decoders
/// (huffman.h): Peek returns the next n bits zero-padded past the end of the
/// data, and Consume flags exhaustion when asked to move past the last real
/// bit, so a decode from phantom padding is always detected.
class BitReader {
 public:
  /// Maximum bits a single Peek/ReadBits may request.
  static constexpr int kMaxPeekBits = 32;

  explicit BitReader(Slice data) : data_(data) {}

  /// Returns the next `count` bits MSB-first without consuming them,
  /// zero-padded if fewer real bits remain. count in [0, kMaxPeekBits].
  uint32_t Peek(int count) {
    PCR_DCHECK(count >= 0 && count <= kMaxPeekBits);
    if (acc_bits_ < count) Refill();
    if (count == 0) return 0;
    if (acc_bits_ >= count) {
      return static_cast<uint32_t>(acc_ >> (acc_bits_ - count));
    }
    // Fewer real bits than requested: left-justify and zero-pad.
    return static_cast<uint32_t>(acc_ << (count - acc_bits_)) &
           ((count >= 32 ? 0u : (1u << count)) - 1u);
  }

  /// Consumes `count` bits. Consuming past the last real bit marks the
  /// reader exhausted (the phantom zero-pad bits of Peek are not data).
  void Consume(int count) {
    if (count == 0) return;  // The mask below needs acc_bits_ <= 63 after.
    if (count <= acc_bits_) {
      acc_bits_ -= count;
      acc_ &= (~uint64_t{0}) >> (64 - 1 - acc_bits_) >> 1;
      return;
    }
    acc_ = 0;
    acc_bits_ = 0;
    exhausted_ = true;
  }

  /// Reads one bit; returns 0 at end of data (the spec's "fill with zero"
  /// behaviour never matters because callers check Exhausted()).
  int ReadBit() {
    if (acc_bits_ == 0) {
      Refill();
      if (acc_bits_ == 0) {
        exhausted_ = true;
        return 0;
      }
    }
    --acc_bits_;
    const int bit = static_cast<int>((acc_ >> acc_bits_) & 1);
    acc_ &= ~(uint64_t{1} << acc_bits_);  // Keep only unconsumed bits valid.
    return bit;
  }

  /// Reads `count` bits MSB-first, zero-padded (and flagged exhausted) past
  /// the end of the data.
  uint32_t ReadBits(int count) {
    const uint32_t v = Peek(count);
    Consume(count);
    return v;
  }

  /// Real (non-phantom) bits that can still be read before exhaustion.
  /// Only refilled lazily: a small return value is exact once the input is
  /// drained, which is the case that matters to truncation handling.
  int BitsAvailable() {
    if (acc_bits_ < kMaxPeekBits) Refill();
    return acc_bits_;
  }

  /// True once a read has run past the end of the entropy data.
  bool Exhausted() const { return exhausted_; }

 private:
  // Tops the accumulator up to > 56 buffered bits (or until the entropy
  // data ends at a marker / end of input), collapsing 0xFF00 stuffing.
  //
  // Word-at-a-time: a SIMD/SWAR scan (arch::Active().find_ff) locates the
  // next 0xFF, and everything before it is stuffing-free, so whole
  // big-endian words append with one load instead of eight byte steps. The
  // cached scan result survives across calls; it only reruns after the
  // cursor passes it (i.e. after a collapsed stuff pair).
  void Refill() {
    const uint8_t* base = data_.udata();
    const size_t size = data_.size();
    while (acc_bits_ <= 56) {
      if (pos_ >= size) return;
      if (next_ff_ == kUnscanned || next_ff_ < pos_) {
        next_ff_ = pos_ + arch::Active().find_ff(base + pos_, size - pos_);
      }
      if (next_ff_ - pos_ >= 8) {
        // At least a full stuffing-free word ahead: bulk-append the bytes
        // that fit (1..8 of them — acc_bits_ <= 56 guarantees at least one).
        uint64_t w;
        std::memcpy(&w, base + pos_, 8);
        w = __builtin_bswap64(w);  // First input byte = most significant.
        const int want = (64 - acc_bits_) >> 3;
        const int take = want * 8;
        acc_ = take == 64 ? w : (acc_ << take) | (w >> (64 - take));
        acc_bits_ += take;
        pos_ += static_cast<size_t>(want);
        continue;
      }
      if (pos_ < next_ff_) {
        acc_ = (acc_ << 8) | base[pos_];
        acc_bits_ += 8;
        ++pos_;
        continue;
      }
      // pos_ == next_ff_: an 0xFF byte.
      if (pos_ + 1 < size && base[pos_ + 1] == 0x00) {
        acc_ = (acc_ << 8) | 0xff;
        acc_bits_ += 8;
        pos_ += 2;  // Passes next_ff_, forcing a rescan next iteration.
        continue;
      }
      return;  // Marker (or lone trailing 0xFF): end of entropy data.
    }
  }

  static constexpr size_t kUnscanned = ~size_t{0};

  Slice data_;
  size_t pos_ = 0;
  size_t next_ff_ = kUnscanned;  // Absolute index of the next 0xFF byte.
  uint64_t acc_ = 0;  // Right-aligned: low acc_bits_ bits are valid.
  int acc_bits_ = 0;
  bool exhausted_ = false;
};

}  // namespace pcr::jpeg
