// Public JPEG codec API: baseline and progressive encoding, full and partial
// decoding, coefficient-level access, and lossless baseline->progressive
// transcoding (the role jpegtran plays in the paper).
#pragma once

#include <string>
#include <vector>

#include "image/color.h"
#include "image/image.h"
#include "jpeg/coeff_image.h"
#include "jpeg/scan_script.h"
#include "util/result.h"
#include "util/slice.h"

namespace pcr::jpeg {

/// Encoder configuration.
struct EncodeOptions {
  int quality = 90;  // libjpeg-style 1..100.
  ChromaSubsampling subsampling = ChromaSubsampling::k420;
  bool progressive = false;
  /// Build per-scan optimal Huffman tables (always on for progressive, like
  /// jpegtran; optional for baseline where Annex K tables are the default).
  bool optimize_huffman = false;
  /// Custom progressive scan script; empty selects the libjpeg default
  /// (10 scans for color).
  std::vector<ScanSpec> scan_script;
};

/// Coefficient-level representation of a parsed or about-to-be-encoded JPEG.
struct JpegData {
  FrameInfo frame;
  std::vector<QuantTable> quant_tables;  // Indexed by slot; size >= slots used.
  CoeffImage coefficients;
};

/// Result of a (possibly partial) decode.
struct DecodeResult {
  Image image;
  FrameInfo frame;
  int scans_decoded = 0;
  /// True when an EOI was reached after a script-complete set of scans
  /// brought every coefficient to full precision.
  bool complete = false;
  /// Kernel tier that rendered the pixels ("scalar"/"avx2" — see
  /// arch/arch.h). Static string, informational.
  const char* kernel_isa = "scalar";
};

/// Reusable decode buffers. A decoder thread that keeps one DecodeScratch
/// across calls pays zero heap allocation for coefficient planes and
/// YCbCr staging once shapes repeat (the common same-sized-dataset case) —
/// only the returned Image is freshly allocated. Not thread-safe; use one
/// per thread.
struct DecodeScratch {
  CoeffImage coeffs;
  PlanarImage planar;
  ColorScratch color;
};

/// Compresses an image. Color images become YCbCr 3-component JPEGs,
/// grayscale stays single-component.
Result<std::string> Encode(const Image& img, const EncodeOptions& options);

/// Decodes as much of `data` as available: truncated progressive streams
/// (or streams terminated early with EOI — the PCR case) yield the best
/// reconstruction from the scans present. `scratch` may be null.
Result<DecodeResult> DecodeFull(Slice data, DecodeScratch* scratch = nullptr);

/// Convenience wrapper returning just the pixels.
Result<Image> Decode(Slice data, DecodeScratch* scratch = nullptr);

/// Parses a JPEG down to quantized coefficients without the inverse DCT.
Result<JpegData> DecodeToCoefficients(Slice data);

/// Entropy-encodes existing coefficients. `script` empty selects baseline
/// (progressive=false) or the default progressive script. Progressive output
/// always uses per-scan optimal Huffman tables; `optimize_huffman` also
/// enables them for baseline output.
Result<std::string> EncodeFromData(const JpegData& data, bool progressive,
                                   std::vector<ScanSpec> script = {},
                                   bool optimize_huffman = false);

/// Losslessly converts a (baseline or progressive) JPEG into a progressive
/// one with the default 10-scan script, exactly like
/// `jpegtran -progressive`: coefficients are bit-identical.
Result<std::string> TranscodeToProgressive(Slice data);

/// Renders pixels from coefficient-level data (dequantize + fixed-point
/// IDCT + integer color convert). Used after partial scan assembly.
/// `scratch` may be null.
Image RenderCoefficients(const JpegData& data,
                         DecodeScratch* scratch = nullptr);

}  // namespace pcr::jpeg
