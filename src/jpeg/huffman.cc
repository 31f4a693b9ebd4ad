#include "jpeg/huffman.h"

#include <algorithm>
#include <cstring>

#include "util/status.h"

namespace pcr::jpeg {

Result<HuffTable> HuffTable::FromSpec(const uint8_t bits[16],
                                      const uint8_t* values, int num_values) {
  HuffTable t;
  std::copy(bits, bits + 16, t.bits_.begin());

  int total = 0;
  for (int i = 0; i < 16; ++i) total += bits[i];
  if (total != num_values || total > 256 || num_values < 0) {
    return Status::Corruption("huffman table: bits/values mismatch");
  }
  std::copy(values, values + num_values, t.values_.begin());
  t.num_values_ = num_values;

  // Generate canonical code lengths and codes (C.2 of T.81).
  std::vector<uint8_t> huffsize;
  huffsize.reserve(total);
  for (int l = 1; l <= 16; ++l) {
    for (int i = 0; i < bits[l - 1]; ++i) {
      huffsize.push_back(static_cast<uint8_t>(l));
    }
  }
  std::vector<uint16_t> huffcode(total);
  {
    uint32_t code = 0;
    int si = huffsize.empty() ? 0 : huffsize[0];
    size_t k = 0;
    while (k < huffsize.size()) {
      while (k < huffsize.size() && huffsize[k] == si) {
        if (code >= (1u << si)) {
          return Status::Corruption("huffman table: code overflow");
        }
        huffcode[k] = static_cast<uint16_t>(code);
        ++code;
        ++k;
      }
      code <<= 1;
      ++si;
    }
  }

  // Encode-side lookup.
  for (size_t k = 0; k < huffsize.size(); ++k) {
    const int sym = t.values_[k];
    t.code_[sym] = huffcode[k];
    t.code_len_[sym] = huffsize[k];
  }

  // Decode-side tables (F.2.2.3).
  int p = 0;
  for (int l = 1; l <= 16; ++l) {
    if (bits[l - 1] > 0) {
      t.val_ptr_[l] = p;
      t.min_code_[l] = huffcode[p];
      p += bits[l - 1];
      t.max_code_[l] = huffcode[p - 1];
    } else {
      t.max_code_[l] = -1;
    }
  }

  // Fast decode LUT: every kLookupBits-bit window starting with a short code
  // maps directly to (length, symbol); all 2^(kLookupBits - len) suffixes of
  // a len-bit code share its entry.
  for (size_t k = 0; k < huffsize.size(); ++k) {
    const int len = huffsize[k];
    if (len > kLookupBits) break;  // huffsize is sorted by length.
    const uint16_t entry =
        static_cast<uint16_t>((len << 8) | t.values_[k]);
    const uint32_t base = static_cast<uint32_t>(huffcode[k])
                          << (kLookupBits - len);
    for (uint32_t fill = 0; fill < (1u << (kLookupBits - len)); ++fill) {
      t.lut_[base | fill] = entry;
    }
  }
  return t;
}

bool HuffFrequencies::Empty() const {
  for (int i = 0; i < 256; ++i) {
    if (freq_[i] > 0) return false;
  }
  return true;
}

bool HuffFrequencies::CoveredBy(const HuffTable& table) const {
  for (int i = 0; i < 256; ++i) {
    if (freq_[i] > 0 && !table.HasSymbol(i)) return false;
  }
  return true;
}

Result<HuffTable> HuffFrequencies::BuildOptimal() const {
  // Annex K.2 algorithm, as implemented by libjpeg's jpeg_gen_optimal_table.
  std::array<int64_t, 257> freq = freq_;
  freq[256] = 1;  // Reserve one code point so no real code is all-ones.

  std::array<int, 257> codesize{};
  std::array<int, 258> others{};
  others.fill(-1);

  for (;;) {
    // Find the two least-frequent nonzero symbols (c1 lowest, c2 next).
    int c1 = -1, c2 = -1;
    int64_t v1 = INT64_MAX, v2 = INT64_MAX;
    for (int i = 0; i <= 256; ++i) {
      if (freq[i] == 0) continue;
      if (freq[i] <= v1) {
        v2 = v1;
        c2 = c1;
        v1 = freq[i];
        c1 = i;
      } else if (freq[i] <= v2) {
        v2 = freq[i];
        c2 = i;
      }
    }
    if (c2 < 0) break;  // Single tree remains.

    freq[c1] += freq[c2];
    freq[c2] = 0;

    ++codesize[c1];
    while (others[c1] >= 0) {
      c1 = others[c1];
      ++codesize[c1];
    }
    others[c1] = c2;
    ++codesize[c2];
    while (others[c2] >= 0) {
      c2 = others[c2];
      ++codesize[c2];
    }
  }

  std::array<int, 33> bits{};
  for (int i = 0; i <= 256; ++i) {
    if (codesize[i] > 0) {
      if (codesize[i] > 32) {
        return Status::Corruption("huffman optimal: code too long");
      }
      ++bits[codesize[i]];
    }
  }

  // Limit code lengths to 16 (K.2 adjustment).
  for (int i = 32; i > 16; --i) {
    while (bits[i] > 0) {
      int j = i - 2;
      while (bits[j] == 0) --j;
      bits[i] -= 2;
      ++bits[i - 1];
      bits[j + 1] += 2;
      --bits[j];
    }
  }
  // Remove the reserved code point.
  int i = 16;
  while (i > 0 && bits[i] == 0) --i;
  if (i > 0) --bits[i];

  // Sort symbols by code size, then value.
  std::vector<uint8_t> values;
  for (int size = 1; size <= 32; ++size) {
    for (int sym = 0; sym < 256; ++sym) {
      if (codesize[sym] == size) values.push_back(static_cast<uint8_t>(sym));
    }
  }

  uint8_t bits8[16];
  for (int l = 1; l <= 16; ++l) bits8[l - 1] = static_cast<uint8_t>(bits[l]);
  return HuffTable::FromSpec(bits8, values.data(),
                             static_cast<int>(values.size()));
}

}  // namespace pcr::jpeg
