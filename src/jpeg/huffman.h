// Huffman coding for JPEG entropy segments: canonical code construction from
// a (bits, values) spec, encode/decode, and optimal table generation from
// symbol frequencies (ITU-T T.81 Annex K.2), which is what makes progressive
// output smaller than baseline in practice (jpegtran always optimizes).
//
// Decoding is table-driven: an 8-bit lookup table maps the next peeked bits
// straight to (symbol, code length) for the short codes that dominate real
// streams, with the canonical per-length walk (F.2.2.3) as the slow path for
// longer codes. The bit-by-bit walk is also exposed on its own
// (DecodeSymbolBitwise) as the reference path the parity tests diff against.
#pragma once

#include <array>
#include <cstdint>

#include "jpeg/bit_io.h"
#include "jpeg/constants.h"
#include "util/result.h"

namespace pcr::jpeg {

/// A built Huffman table usable for both encoding and decoding. Holds no
/// heap memory, so decoders can keep tables in reusable slots without
/// per-stream allocation.
class HuffTable {
 public:
  /// Codes of up to this many bits decode with a single table lookup.
  static constexpr int kLookupBits = 8;

  HuffTable() = default;

  /// Builds from a JPEG (bits[16], values[]) table definition.
  static Result<HuffTable> FromSpec(const uint8_t bits[16],
                                    const uint8_t* values, int num_values);
  static Result<HuffTable> FromSpec(const HuffSpec& spec) {
    return FromSpec(spec.bits, spec.values, spec.num_values);
  }

  /// Encodes symbol `sym` (must be present in the table).
  void EncodeSymbol(BitWriter* writer, int sym) const {
    PCR_DCHECK(code_len_[sym] > 0) << "symbol not in table: " << sym;
    writer->WriteBits(code_[sym], code_len_[sym]);
  }

  /// Decodes the next symbol; returns -1 on exhausted or invalid input. The
  /// two cases are distinguishable through reader->Exhausted(): true means
  /// the stream ran out of bits mid-code (truncation, not an error for
  /// partial-scan decoding), false means the bits do not form a valid code
  /// (corruption). A code that would only complete using the zero padding
  /// past the end of the data counts as truncation, never as a decode.
  int DecodeSymbol(BitReader* reader) const {
    const uint16_t entry = lut_[reader->Peek(kLookupBits)];
    if (entry != 0) {
      // Consume flags exhaustion when the code is longer than the buffered
      // bits — after Peek(kLookupBits) that can only mean the input is
      // drained and the code would complete on phantom padding.
      reader->Consume(entry >> 8);
      if (reader->Exhausted()) return -1;
      return entry & 0xff;
    }
    return DecodeSymbolBitwise(reader);
  }

  /// Reference decode path: the canonical bit-by-bit walk of F.2.2.3, one
  /// ReadBit per code bit, usable with any reader exposing ReadBit() and
  /// Exhausted(). Same -1 / Exhausted() contract as DecodeSymbol.
  template <class Reader>
  int DecodeSymbolBitwise(Reader* reader) const {
    int32_t code = reader->ReadBit();
    int l = 1;
    while (l <= 16 && (max_code_[l] < 0 || code > max_code_[l])) {
      code = (code << 1) | reader->ReadBit();
      ++l;
    }
    if (l > 16 || reader->Exhausted()) return -1;
    const int idx = val_ptr_[l] + (code - min_code_[l]);
    if (idx < 0 || idx >= num_values_) return -1;
    return values_[idx];
  }

  bool HasSymbol(int sym) const {
    return sym >= 0 && sym < 256 && code_len_[sym] > 0;
  }

  /// Code word of `sym` and its length in bits (0: not in the table).
  uint16_t code(int sym) const { return code_[sym]; }
  int code_length(int sym) const { return code_len_[sym]; }

  /// Serialized (bits, values) form for DHT emission.
  const std::array<uint8_t, 16>& bits() const { return bits_; }
  const uint8_t* values() const { return values_.data(); }
  int num_values() const { return num_values_; }

 private:
  // Encode side.
  std::array<uint16_t, 256> code_{};
  std::array<uint8_t, 256> code_len_{};
  // Decode side (per code length l in 1..16).
  std::array<int32_t, 17> min_code_{};
  std::array<int32_t, 17> max_code_{};  // -1 where no codes of that length.
  std::array<int32_t, 17> val_ptr_{};
  // Fast decode side: peeked kLookupBits bits -> (length << 8) | symbol for
  // codes of <= kLookupBits bits; 0 means "no short code" (slow path).
  std::array<uint16_t, 1 << kLookupBits> lut_{};
  // Spec form.
  std::array<uint8_t, 16> bits_{};
  std::array<uint8_t, 256> values_{};
  int num_values_ = 0;
};

/// Accumulates symbol frequencies and derives an optimal length-limited
/// (<=16 bits) Huffman table per Annex K.2.
class HuffFrequencies {
 public:
  void Count(int sym) { ++freq_[sym]; }
  bool Empty() const;
  /// True when every counted symbol has a code in `table`.
  bool CoveredBy(const HuffTable& table) const;

  /// Builds the optimal table. At least one symbol must have been counted
  /// (a table with a single dummy symbol is produced otherwise).
  Result<HuffTable> BuildOptimal() const;

 private:
  std::array<int64_t, 257> freq_{};  // [256] reserved per K.2.
};

}  // namespace pcr::jpeg
