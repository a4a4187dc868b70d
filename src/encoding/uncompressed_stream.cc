#include <memory>

#include "src/encoding/streams_internal.h"

namespace tde {
namespace internal {

std::unique_ptr<UncompressedStream> UncompressedStream::Make(
    uint8_t width, bool sign_extend) {
  auto s = std::unique_ptr<UncompressedStream>(new UncompressedStream());
  InitHeader(s->mutable_buffer(), EncodingType::kUncompressed, width,
             static_cast<uint8_t>(8 * width), sign_extend,
             HeaderView::kExtraOffset);
  return s;
}

std::unique_ptr<UncompressedStream> UncompressedStream::FromBuffer(
    std::vector<uint8_t> buf) {
  auto s = std::unique_ptr<UncompressedStream>(new UncompressedStream());
  *s->mutable_buffer() = std::move(buf);
  s->finalized_ = s->header().logical_size();
  s->finalized_stream_ = true;
  return s;
}

size_t UncompressedStream::BlockBytes() const {
  return static_cast<size_t>(kBlockSize) * width();
}

Status UncompressedStream::CheckAppend(const Lane* values,
                                       size_t count) const {
  const uint8_t w = width();
  if (w == 8) return Status::OK();
  const bool se = SignExtendOf(header());
  for (size_t i = 0; i < count; ++i) {
    if (!LaneFits(values[i], w, se)) {
      return Status::OutOfRange("value exceeds element width");
    }
  }
  return Status::OK();
}

void UncompressedStream::PackBlock(const Lane* values) {
  const uint8_t w = width();
  const size_t old = buf_.size();
  buf_.resize(old + BlockBytes());
  uint8_t* out = buf_.data() + old;
  for (uint32_t i = 0; i < kBlockSize; ++i) {
    StoreBytes(out + static_cast<size_t>(i) * w,
               static_cast<uint64_t>(values[i]), w);
  }
}

void UncompressedStream::DecodeBlock(uint64_t block_idx, Lane* out) const {
  LoadValues(BlockData(block_idx), width(), SignExtendOf(header()),
             kBlockSize, [](size_t i) { return i; }, out);
}

}  // namespace internal
}  // namespace tde
