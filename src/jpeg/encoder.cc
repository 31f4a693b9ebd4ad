// JPEG encoder: image -> quantized coefficients -> entropy-coded baseline or
// progressive stream. Progressive scans follow ITU-T T.81 G.1; the AC
// refinement encoder mirrors the correction-bit buffering of libjpeg's
// jcphuff.c, which the decoder (decoder.cc) inverts.
//
// Entropy coding walks each scan once. The walk turns coefficients into
// compact tokens (a Huffman symbol plus its extra bits, or raw correction
// bits) and counts symbol frequencies as it goes; the per-scan optimal
// tables are built from those counts, and one loop writes the tokens.
#include <array>
#include <cmath>
#include <cstring>

#include "jpeg/bit_io.h"
#include "jpeg/codec.h"
#include "jpeg/constants.h"
#include "jpeg/dct.h"
#include "jpeg/huffman.h"
#include "util/logging.h"

namespace pcr::jpeg {

namespace {

// Huffman tables of a scan, by id: class (0 = DC, 1 = AC) * 2 + slot, with
// slot 0 for the first component and 1 for chroma.
constexpr int kNumTables = 4;
// Pseudo-table id of raw bits, written with no Huffman code in front:
// DC and AC correction bits.
constexpr uint32_t kRawBits = kNumTables;

int Slot(int ci) { return ci == 0 ? 0 : 1; }
int DcTable(int ci) { return Slot(ci); }
int AcTable(int ci) { return 2 + Slot(ci); }

void AppendMarker(std::string* out, uint8_t marker) {
  out->push_back(static_cast<char>(0xff));
  out->push_back(static_cast<char>(marker));
}

void AppendU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v >> 8));
  out->push_back(static_cast<char>(v & 0xff));
}

void AppendApp0Jfif(std::string* out) {
  AppendMarker(out, kAPP0);
  AppendU16(out, 16);
  out->append("JFIF", 5);  // Includes the NUL.
  out->push_back(1);       // Version 1.1.
  out->push_back(1);
  out->push_back(0);  // Units: none.
  AppendU16(out, 1);  // X density.
  AppendU16(out, 1);  // Y density.
  out->push_back(0);  // Thumbnail w/h.
  out->push_back(0);
}

void AppendDqt(std::string* out, int slot, const QuantTable& table) {
  AppendMarker(out, kDQT);
  AppendU16(out, 2 + 1 + 64);
  out->push_back(static_cast<char>(slot));  // 8-bit precision.
  for (int i = 0; i < 64; ++i) {
    out->push_back(static_cast<char>(table[kZigzag[i]]));
  }
}

void AppendSof(std::string* out, const FrameInfo& frame, bool progressive) {
  AppendMarker(out, progressive ? kSOF2 : kSOF0);
  AppendU16(out, static_cast<uint16_t>(8 + 3 * frame.components.size()));
  out->push_back(8);  // Sample precision.
  AppendU16(out, static_cast<uint16_t>(frame.height));
  AppendU16(out, static_cast<uint16_t>(frame.width));
  out->push_back(static_cast<char>(frame.components.size()));
  for (const auto& c : frame.components) {
    out->push_back(static_cast<char>(c.id));
    out->push_back(static_cast<char>((c.h_samp << 4) | c.v_samp));
    out->push_back(static_cast<char>(c.quant_tbl));
  }
}

void AppendDht(std::string* out, int table_class, int slot,
               const HuffTable& table) {
  AppendMarker(out, kDHT);
  AppendU16(out, static_cast<uint16_t>(2 + 1 + 16 + table.num_values()));
  out->push_back(static_cast<char>((table_class << 4) | slot));
  for (int i = 0; i < 16; ++i) {
    out->push_back(static_cast<char>(table.bits()[i]));
  }
  out->append(reinterpret_cast<const char*>(table.values()),
              table.num_values());
}

void AppendSos(std::string* out, const FrameInfo& frame, const ScanSpec& scan) {
  AppendMarker(out, kSOS);
  AppendU16(out,
            static_cast<uint16_t>(6 + 2 * scan.component_indices.size()));
  out->push_back(static_cast<char>(scan.component_indices.size()));
  for (int ci : scan.component_indices) {
    out->push_back(static_cast<char>(frame.components[ci].id));
    out->push_back(static_cast<char>((Slot(ci) << 4) | Slot(ci)));
  }
  out->push_back(static_cast<char>(scan.ss));
  out->push_back(static_cast<char>(scan.se));
  out->push_back(static_cast<char>((scan.ah << 4) | scan.al));
}

uint32_t LowBits(uint32_t v, int n) { return v & ((1u << n) - 1); }

// A token is one Huffman code and the extra bits that follow it, packed as
//   [31:29] table id (kRawBits: no code)   [28:24] extra-bit count, 0..16
//   [23:16] symbol                         [15:0]  extra bits
uint32_t MakeToken(uint32_t table, int symbol, uint32_t extra, int nbits) {
  return table << 29 | static_cast<uint32_t>(nbits) << 24 |
         static_cast<uint32_t>(symbol) << 16 | LowBits(extra, nbits);
}

// Visits the blocks of `scan` in coding order: interleaved scans (DC or
// baseline) in MCU order over padded dimensions, single-component scans over
// the component's nominal blocks.
template <typename Fn>
void ForEachScanBlock(const JpegData& data, const ScanSpec& scan, Fn&& fn) {
  const FrameInfo& frame = data.frame;
  if (scan.component_indices.size() > 1) {
    const int mcus_x = frame.mcus_x();
    const int mcus_y = frame.mcus_y();
    for (int my = 0; my < mcus_y; ++my) {
      for (int mx = 0; mx < mcus_x; ++mx) {
        for (int ci : scan.component_indices) {
          const auto& comp = frame.components[ci];
          for (int v = 0; v < comp.v_samp; ++v) {
            for (int h = 0; h < comp.h_samp; ++h) {
              fn(ci, data.coefficients.block(ci, mx * comp.h_samp + h,
                                             my * comp.v_samp + v));
            }
          }
        }
      }
    }
    return;
  }
  const int ci = scan.component_indices[0];
  const auto& comp = frame.components[ci];
  for (int by = 0; by < comp.height_blocks; ++by) {
    for (int bx = 0; bx < comp.width_blocks; ++bx) {
      fn(ci, data.coefficients.block(ci, bx, by));
    }
  }
}

// Turns one scan's coefficients into tokens in a single walk, counting the
// symbol frequencies of each table as it goes. Each block costs one pass
// over its band in zigzag order to build a 64-bit mask of the coefficients
// that are nonzero after the point transform; runs, ZRLs and correction
// bits then come from walking the mask's set bits.
class ScanTokenizer {
 public:
  ScanTokenizer(const JpegData& data, const ScanSpec& scan, bool progressive,
                std::vector<uint32_t>* tokens, HuffFrequencies* freqs)
      : data_(data), scan_(scan), progressive_(progressive), tokens_(tokens),
        freqs_(freqs), ac_table_(AcTable(scan.component_indices[0])) {}

  // Tokenizes the scan. False when a DC difference or AC value needs more
  // than 15 magnitude bits, which no JPEG decoder accepts.
  bool Run() {
    auto each = [this](auto&& fn) { ForEachScanBlock(data_, scan_, fn); };
    if (!progressive_) {
      each([this](int ci, const CoeffBlock& b) { BaselineBlock(ci, b); });
    } else if (scan_.IsDcScan() && scan_.ah == 0) {
      each([this](int ci, const CoeffBlock& b) {
        DcDifference(ci, b[0] >> scan_.al);  // Arithmetic shift (signed).
      });
    } else if (scan_.IsDcScan()) {
      each([this](int, const CoeffBlock& b) {
        RawBits(static_cast<uint32_t>(b[0] >> scan_.al) & 1, 1);
      });
    } else if (scan_.ah == 0) {
      each([this](int, const CoeffBlock& b) { AcFirstBlock(b); });
    } else {
      each([this](int, const CoeffBlock& b) { AcRefineBlock(b); });
    }
    FlushEobRun();
    return !too_wide_;
  }

 private:
  // Magnitude category: bits needed to represent v (0 for 0).
  static int NumBits(uint32_t v) { return v == 0 ? 0 : 32 - __builtin_clz(v); }

  // A Huffman symbol followed by `nbits` (<= 64) extra bits, the last one
  // lowest. Extra bits beyond the token's 16 continue as raw bits.
  void Symbol(int table, int symbol, uint64_t extra = 0, int nbits = 0) {
    freqs_[table].Count(symbol);
    if (nbits <= 16) {
      tokens_->push_back(
          MakeToken(table, symbol, static_cast<uint32_t>(extra), nbits));
      return;
    }
    tokens_->push_back(MakeToken(
        table, symbol, static_cast<uint32_t>(extra >> (nbits - 16)), 16));
    RawBits64(extra, nbits - 16);
  }

  // Appends up to 16 raw bits, packed into the previous token when that is
  // a raw-bits token with room.
  void RawBits(uint32_t bits, int count) {
    if (!tokens_->empty()) {
      uint32_t& last = tokens_->back();
      const int have = (last >> 24) & 31;
      if (last >> 29 == kRawBits && have + count <= 16) {
        last = MakeToken(kRawBits, 0, (last & 0xffff) << count | bits,
                         have + count);
        return;
      }
    }
    tokens_->push_back(MakeToken(kRawBits, 0, bits, count));
  }

  // Appends `count` (<= 63) raw bits, the last one lowest.
  void RawBits64(uint64_t bits, int count) {
    while (count > 0) {
      const int n = count < 16 ? count : 16;
      count -= n;
      RawBits(LowBits(static_cast<uint32_t>(bits >> count), n), n);
    }
  }

  // Codes `value` as the difference from the component's previous DC: its
  // category symbol, then its magnitude bits (ones' complement if negative).
  void DcDifference(int ci, int value) {
    const int diff = value - dc_pred_[ci];
    dc_pred_[ci] = value;
    const uint32_t magnitude = static_cast<uint32_t>(diff < 0 ? -diff : diff);
    const int nbits = NumBits(magnitude);
    too_wide_ |= nbits > 15;
    Symbol(DcTable(ci), nbits, diff < 0 ? ~magnitude : magnitude, nbits);
  }

  // Masks of the band's coefficients whose magnitude is at least 2^bit,
  // 2^(bit + 1), ... (N masks), bit k for zigzag index k. |c| >= t is one
  // unsigned compare, (uint16)(c + t - 1) > 2t - 2, and the masks fill from
  // the top, so a coefficient costs one load and a compare and an
  // add-with-carry per mask.
  template <int N>
  static std::array<uint64_t, N> AtLeastMasks(const CoeffBlock& block, int ss,
                                              int se, int bit) {
    std::array<uint64_t, N> masks{};
    for (int k = se; k >= ss; --k) {
      const int c = block[kZigzag[k]];
      for (int i = 0; i < N; ++i) {
        const uint32_t t = 1u << (bit + i);
        const bool at_least = static_cast<uint16_t>(c + t - 1) > 2 * t - 2;
        masks[i] = masks[i] * 2 + at_least;
      }
    }
    for (uint64_t& mask : masks) mask <<= ss;
    return masks;
  }

  // Emits the run/size symbols of the nonzero coefficients in `mask` (the
  // first-pass AC coding shared by baseline and progressive scans). Returns
  // the zigzag index of the last one, ss - 1 if none.
  int AcValues(int table, const CoeffBlock& block, uint64_t mask, int ss,
               int al) {
    int prev = ss - 1;
    while (mask != 0) {
      const int k = __builtin_ctzll(mask);
      mask &= mask - 1;
      int run = k - prev - 1;
      prev = k;
      FlushEobRun();
      while (run > 15) {
        Symbol(table, 0xF0);  // ZRL.
        run -= 16;
      }
      const int c = block[kZigzag[k]];
      const uint32_t a = static_cast<uint32_t>(c < 0 ? -c : c) >> al;
      const int nbits = NumBits(a);
      too_wide_ |= nbits > 15;
      Symbol(table, run << 4 | nbits, c < 0 ? ~a : a, nbits);
    }
    return prev;
  }

  void BaselineBlock(int ci, const CoeffBlock& block) {
    DcDifference(ci, block[0]);
    const uint64_t mask = AtLeastMasks<1>(block, 1, 63, 0)[0];
    const int table = AcTable(ci);
    if (AcValues(table, block, mask, 1, 0) < 63) {
      Symbol(table, 0x00);  // EOB.
    }
  }

  void AcFirstBlock(const CoeffBlock& block) {
    const uint64_t mask =
        AtLeastMasks<1>(block, scan_.ss, scan_.se, scan_.al)[0];
    if (AcValues(ac_table_, block, mask, scan_.ss, scan_.al) < scan_.se) {
      ExtendEobRun(0, 0);
    }
  }

  // Successive-approximation AC refinement (G.1.2.3), with libjpeg's
  // correction-bit buffering: coefficients already nonzero from earlier
  // scans send one correction bit each, written after the next symbol of
  // the block or, when none follows, with the block's EOB run.
  void AcRefineBlock(const CoeffBlock& block) {
    const int ss = scan_.ss;
    const int se = scan_.se;
    const int al = scan_.al;
    const auto [nonzero, old] = AtLeastMasks<2>(block, ss, se, al);
    // Magnitude exactly 1 after the point transform: nonzero from this scan
    // on. The others were nonzero before and send a correction bit.
    const uint64_t newly = nonzero & ~old;
    const int last_newly = newly != 0 ? 63 - __builtin_clzll(newly) : ss - 1;

    uint64_t pending = 0;  // Correction bits since the last symbol.
    int pending_count = 0;
    int run = 0;
    int prev = ss - 1;
    uint64_t mask = nonzero;
    while (mask != 0) {
      const int k = __builtin_ctzll(mask);
      mask &= mask - 1;
      run += k - prev - 1;
      prev = k;
      if (k <= last_newly) {
        while (run > 15) {
          FlushEobRun();
          Symbol(ac_table_, 0xF0, pending, pending_count);  // ZRL.
          run -= 16;
          pending = 0;
          pending_count = 0;
        }
      }
      const int c = block[kZigzag[k]];
      if ((newly >> k & 1) == 0) {
        const uint32_t a = static_cast<uint32_t>(c < 0 ? -c : c) >> al;
        pending = pending << 1 | (a & 1);
        ++pending_count;
        continue;
      }
      FlushEobRun();
      // The sign bit, then the pending correction bits.
      const uint64_t sign = c < 0 ? 0 : 1;
      Symbol(ac_table_, run << 4 | 1, sign << pending_count | pending,
             pending_count + 1);
      pending = 0;
      pending_count = 0;
      run = 0;
    }
    run += se - prev;
    if (run > 0 || pending_count > 0) ExtendEobRun(pending, pending_count);
  }

  // Adds a block to the current EOB run, with the correction bits that
  // follow the run's symbol. The symbol's value depends on the run's final
  // length, so a placeholder token holds its place until FlushEobRun.
  void ExtendEobRun(uint64_t bits, int count) {
    if (eob_run_ == 0) {
      eob_token_ = tokens_->size();
      tokens_->push_back(MakeToken(ac_table_, 0, 0, 0));  // Not raw bits.
    }
    ++eob_run_;
    RawBits64(bits, count);
    eob_bits_ += count;
    // Flush at the 32767-block ceiling or once the bit backlog is large.
    if (eob_run_ == 0x7FFF || eob_bits_ > 900) FlushEobRun();
  }

  void FlushEobRun() {
    if (eob_run_ == 0) return;
    const int nbits = NumBits(static_cast<uint32_t>(eob_run_)) - 1;
    freqs_[ac_table_].Count(nbits << 4);
    (*tokens_)[eob_token_] = MakeToken(ac_table_, nbits << 4,
                                       static_cast<uint32_t>(eob_run_), nbits);
    eob_run_ = 0;
    eob_bits_ = 0;
  }

  const JpegData& data_;
  const ScanSpec& scan_;
  const bool progressive_;
  std::vector<uint32_t>* tokens_;
  HuffFrequencies* freqs_;
  const int ac_table_;  // Progressive AC scans have a single component.
  int dc_pred_[4] = {0, 0, 0, 0};
  bool too_wide_ = false;
  int eob_run_ = 0;
  int eob_bits_ = 0;
  size_t eob_token_ = 0;
};

// Writes a scan's tokens with `tables` (indexed by table id).
void EmitTokens(const std::vector<uint32_t>& tokens,
                const HuffTable* const* tables, std::string* out) {
  // Code word and length by table id and symbol: (code << 5) | length. The
  // raw-bits row is a zero-length code.
  uint32_t codes[kNumTables + 1][256] = {};
  for (int t = 0; t < kNumTables; ++t) {
    if (tables[t] == nullptr) continue;
    for (int sym = 0; sym < 256; ++sym) {
      codes[t][sym] = static_cast<uint32_t>(tables[t]->code(sym)) << 5 |
                      static_cast<uint32_t>(tables[t]->code_length(sym));
    }
  }

  out->reserve(out->size() + 2 * tokens.size() + 64);
  BitWriter writer(out);
  for (const uint32_t token : tokens) {
    const uint32_t code = codes[token >> 29][token >> 16 & 0xff];
    const int nbits = token >> 24 & 31;
    writer.WriteBits((code >> 5) << nbits | (token & 0xffff),
                     static_cast<int>(code & 31) + nbits);
  }
  writer.AlignToByte();
}

}  // namespace

Result<std::string> EncodeFromData(const JpegData& data, bool progressive,
                                   std::vector<ScanSpec> script,
                                   bool optimize_huffman) {
  const int num_comps = static_cast<int>(data.frame.components.size());
  if (num_comps < 1 || num_comps > 4) {
    return Status::InvalidArgument("unsupported component count");
  }
  if (script.empty()) {
    script = progressive ? DefaultProgressiveScript(num_comps)
                         : BaselineScript(num_comps);
  }
  for (const ScanSpec& scan : script) {
    if (scan.component_indices.empty()) {
      return Status::InvalidArgument("scan without components");
    }
    if (scan.ss < 0 || scan.se > 63 || scan.ah < 0 || scan.ah > 13 ||
        scan.al < 0 || scan.al > 13) {
      return Status::InvalidArgument("scan parameters out of range");
    }
    for (int ci : scan.component_indices) {
      if (ci < 0 || ci >= num_comps) {
        return Status::InvalidArgument("scan component out of range");
      }
    }
  }
  if (progressive && !ValidateProgressiveScript(script, num_comps)) {
    return Status::InvalidArgument("invalid progressive scan script");
  }

  std::string out;
  AppendMarker(&out, kSOI);
  AppendApp0Jfif(&out);
  // Emit each quant table used by some component.
  bool slot_used[4] = {false, false, false, false};
  for (const auto& c : data.frame.components) {
    if (c.quant_tbl < 0 || c.quant_tbl >= 4 ||
        static_cast<size_t>(c.quant_tbl) >= data.quant_tables.size()) {
      return Status::InvalidArgument("bad quant table slot");
    }
    if (!slot_used[c.quant_tbl]) {
      AppendDqt(&out, c.quant_tbl, data.quant_tables[c.quant_tbl]);
      slot_used[c.quant_tbl] = true;
    }
  }
  AppendSof(&out, data.frame, progressive);

  // Progressive always optimizes (as jpegtran does); otherwise the Annex K
  // tables are written once, ahead of the scans.
  const bool optimize = progressive || optimize_huffman;
  HuffTable std_tables[kNumTables];
  if (!optimize) {
    const HuffSpec specs[kNumTables] = {StdDcLumaSpec(), StdDcChromaSpec(),
                                        StdAcLumaSpec(), StdAcChromaSpec()};
    for (int t = 0; t < kNumTables; ++t) {
      PCR_ASSIGN_OR_RETURN(std_tables[t], HuffTable::FromSpec(specs[t]));
    }
    for (int slot = 0; slot < (num_comps > 1 ? 2 : 1); ++slot) {
      AppendDht(&out, 0, slot, std_tables[slot]);
      AppendDht(&out, 1, slot, std_tables[2 + slot]);
    }
  }

  std::vector<uint32_t> tokens;  // One scan's tokens, reused across scans.
  for (const ScanSpec& scan : script) {
    tokens.clear();
    HuffFrequencies freqs[kNumTables];
    if (!ScanTokenizer(data, scan, progressive, &tokens, freqs).Run()) {
      return Status::InvalidArgument(
          "coefficient needs more than 15 magnitude bits");
    }
    HuffTable scan_tables[kNumTables];
    const HuffTable* tables[kNumTables] = {nullptr, nullptr, nullptr, nullptr};
    // Slot-major (DC then AC per slot), only tables with observed symbols.
    for (int slot = 0; slot < 2; ++slot) {
      for (int table_class = 0; table_class < 2; ++table_class) {
        const int t = table_class * 2 + slot;
        if (freqs[t].Empty()) continue;
        if (optimize) {
          PCR_ASSIGN_OR_RETURN(scan_tables[t], freqs[t].BuildOptimal());
          AppendDht(&out, table_class, slot, scan_tables[t]);
          tables[t] = &scan_tables[t];
        } else if (freqs[t].CoveredBy(std_tables[t])) {
          tables[t] = &std_tables[t];
        } else {
          return Status::InvalidArgument(
              "value outside the standard Huffman tables");
        }
      }
    }
    AppendSos(&out, data.frame, scan);
    EmitTokens(tokens, tables, &out);
  }

  AppendMarker(&out, kEOI);
  return out;
}

namespace {

// Forward DCT + quantization of one component plane into coefficient blocks
// at padded dimensions (edge samples replicated).
void PlaneToCoefficients(const Plane& plane, const QuantTable& qtbl,
                         int width_blocks, int height_blocks, int comp,
                         CoeffImage* coeffs) {
  double spatial[64];
  double freq[64];
  for (int by = 0; by < height_blocks; ++by) {
    for (int bx = 0; bx < width_blocks; ++bx) {
      for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) {
          spatial[y * 8 + x] =
              static_cast<double>(plane.at_clamped(bx * 8 + x, by * 8 + y)) -
              128.0;
        }
      }
      ForwardDct8x8(spatial, freq);
      CoeffBlock& block = coeffs->block(comp, bx, by);
      for (int i = 0; i < 64; ++i) {
        const double q = static_cast<double>(qtbl[i]);
        block[i] = static_cast<int16_t>(std::lround(freq[i] / q));
      }
    }
  }
}

}  // namespace

Result<std::string> Encode(const Image& img, const EncodeOptions& options) {
  if (img.empty()) return Status::InvalidArgument("empty image");
  if (img.width() > 65535 || img.height() > 65535) {
    return Status::InvalidArgument("image too large for JPEG");
  }

  const PlanarImage planar = RgbToYcbcr(img, options.subsampling);
  const int num_comps = planar.num_components();

  JpegData data;
  data.frame.width = img.width();
  data.frame.height = img.height();
  data.frame.progressive = options.progressive;
  data.quant_tables.resize(num_comps > 1 ? 2 : 1);
  data.quant_tables[0] = ScaleQuantTable(kStdLumaQuant, options.quality);
  if (num_comps > 1) {
    data.quant_tables[1] = ScaleQuantTable(kStdChromaQuant, options.quality);
  }

  for (int c = 0; c < num_comps; ++c) {
    ComponentInfo info;
    info.id = c + 1;
    if (num_comps == 1) {
      info.h_samp = info.v_samp = 1;
    } else if (c == 0) {
      const bool sub = options.subsampling == ChromaSubsampling::k420;
      info.h_samp = info.v_samp = sub ? 2 : 1;
    } else {
      info.h_samp = info.v_samp = 1;
    }
    info.quant_tbl = c == 0 ? 0 : 1;
    data.frame.components.push_back(info);
  }
  data.frame.ComputeGeometry();
  data.coefficients = CoeffImage(data.frame);

  for (int c = 0; c < num_comps; ++c) {
    const auto& info = data.frame.components[c];
    PlaneToCoefficients(planar.planes[c], data.quant_tables[info.quant_tbl],
                        info.width_blocks_padded, info.height_blocks_padded, c,
                        &data.coefficients);
  }

  return EncodeFromData(data, options.progressive, options.scan_script,
                        options.optimize_huffman);
}

}  // namespace pcr::jpeg
