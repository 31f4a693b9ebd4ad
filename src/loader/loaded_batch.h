// LoadedBatch: one record as LoaderPipeline delivers it and DecodeCache
// stores it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/record_source.h"
#include "image/image.h"

namespace pcr {

/// One loaded (and optionally decoded) record.
struct LoadedBatch {
  int record_index = -1;
  int scan_group = 0;
  std::vector<int64_t> labels;
  std::vector<Image> images;  // Decoded pixels (the default).
  // When the pipeline runs with decode off, the assembled JPEG streams are
  // carried as spans into the moved RecordBatch backing (no extra copy).
  std::vector<ByteSpan> jpeg_spans;
  std::string jpeg_backing;
  uint64_t bytes_read = 0;

  int size() const { return static_cast<int>(labels.size()); }
  int num_jpegs() const { return static_cast<int>(jpeg_spans.size()); }
  Slice jpeg(int i) const {
    return Slice(jpeg_backing.data() + jpeg_spans[i].offset,
                 jpeg_spans[i].length);
  }
};

}  // namespace pcr
