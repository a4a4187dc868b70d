#ifndef TDE_ENCODING_STREAMS_INTERNAL_H_
#define TDE_ENCODING_STREAMS_INTERNAL_H_

#include <cstring>
#include <mutex>
#include <vector>

#include "src/encoding/stream.h"

namespace tde {
namespace internal {

/// Bit 0 of the reserved header byte: sign-extend values narrower than 8
/// bytes on load. A storage detail, not type knowledge: encodings remain
/// semantically neutral, they just need a lossless load.
inline constexpr uint8_t kSignExtendFlag = 1;

inline bool SignExtendOf(const ConstHeaderView& h) {
  return (h.GetU64(16) >> 56) & kSignExtendFlag;  // byte 23
}

/// Sizes the buffer to `data_offset` and writes the common 24-byte prefix.
inline void InitHeader(std::vector<uint8_t>* buf, EncodingType type,
                       uint8_t width, uint8_t bits, bool sign_extend,
                       uint64_t data_offset) {
  buf->assign(data_offset, 0);
  HeaderView h(buf);
  h.set_logical_size(0);
  h.set_data_offset(data_offset);
  h.set_block_size(kBlockSize);
  h.set_algorithm(type);
  h.set_width(width);
  h.set_bits(bits);
  if (sign_extend) (*buf)[23] = kSignExtendFlag;
}

/// Loads a `width`-byte value honoring the stream's sign-extension flag.
inline Lane LoadLane(const uint8_t* p, uint8_t width, bool sign_extend) {
  return sign_extend ? LoadSigned(p, width)
                     : static_cast<Lane>(LoadUnsigned(p, width));
}

/// Width-specialised loader for stored fixed-width values (dictionary
/// entries, uncompressed blocks): out[i] = the `width`-byte little-endian
/// value at index `at(i)` of `base`, extended exactly as LoadLane does.
/// The width/sign dispatch happens once per call, so the per-row loop is a
/// fixed-size load and a cast. Callers pass the identity for a run of
/// values, or unpacked dictionary codes for a gather; every index must lie
/// inside the caller's validated value space.
template <typename At>
void LoadValues(const uint8_t* base, uint8_t width, bool sign_extend,
                size_t n, At at, Lane* out) {
  auto load = [&](auto tag) {
    using T = decltype(tag);
    for (size_t i = 0; i < n; ++i) {
      T v;
      std::memcpy(&v, base + static_cast<size_t>(at(i)) * sizeof(T),
                  sizeof(T));
      out[i] = static_cast<Lane>(v);  // sign- or zero-extends by T
    }
  };
  switch (width) {
    case 1:
      return sign_extend ? load(int8_t{}) : load(uint8_t{});
    case 2:
      return sign_extend ? load(int16_t{}) : load(uint16_t{});
    case 4:
      return sign_extend ? load(int32_t{}) : load(uint32_t{});
    default:  // 8: stream headers only ever hold 1, 2, 4 or 8
      return load(uint64_t{});
  }
}

/// True if `v` can be stored in `width` bytes under the given signedness.
inline bool LaneFits(Lane v, uint8_t width, bool sign_extend) {
  return sign_extend ? FitsSigned(v, width)
                     : FitsUnsigned(static_cast<uint64_t>(v), width);
}

/// Uncompressed: raw little-endian `width`-byte values, bits == 8 * width.
class UncompressedStream : public BlockedStream {
 public:
  static std::unique_ptr<UncompressedStream> Make(uint8_t width,
                                                  bool sign_extend);
  static std::unique_ptr<UncompressedStream> FromBuffer(
      std::vector<uint8_t> buf);

 protected:
  size_t BlockBytes() const override;
  Status CheckAppend(const Lane* values, size_t count) const override;
  void PackBlock(const Lane* values) override;
  void DecodeBlock(uint64_t block_idx, Lane* out) const override;
};

/// Frame-of-reference (Sect. 3.1.1): header holds an 8-byte frame value;
/// packed values are added to it.
class ForStream : public BlockedStream {
 public:
  static constexpr uint64_t kFrameOffset = 24;
  static std::unique_ptr<ForStream> Make(uint8_t width, int64_t frame,
                                         uint8_t bits);
  static std::unique_ptr<ForStream> FromBuffer(std::vector<uint8_t> buf);

  int64_t frame() const { return header().GetI64(kFrameOffset); }

 protected:
  size_t BlockBytes() const override;
  Status CheckAppend(const Lane* values, size_t count) const override;
  void PackBlock(const Lane* values) override;
  void DecodeBlock(uint64_t block_idx, Lane* out) const override;
};

/// Delta (Sect. 3.1.2): header holds the 8-byte minimum delta; each block
/// starts with an 8-byte running total (the block's first value) so the
/// stream supports random as well as sequential access.
class DeltaStream : public BlockedStream {
 public:
  static constexpr uint64_t kMinDeltaOffset = 24;
  static std::unique_ptr<DeltaStream> Make(uint8_t width, int64_t min_delta,
                                           uint8_t bits);
  static std::unique_ptr<DeltaStream> FromBuffer(std::vector<uint8_t> buf);

  int64_t min_delta() const { return header().GetI64(kMinDeltaOffset); }

 protected:
  size_t BlockBytes() const override;
  Status CheckAppend(const Lane* values, size_t count) const override;
  void PackBlock(const Lane* values) override;
  void DecodeBlock(uint64_t block_idx, Lane* out) const override;
  void OnCommit(const Lane* values, size_t count) override;

 private:
  bool have_last_ = false;
  Lane last_ = 0;
};

/// Dictionary (Sect. 3.1.3): header holds the entry count followed by space
/// for 2^bits entries of `width` bytes, so the dictionary can grow in place
/// up to the limit; packed values are indexes. Decoding gathers entries
/// straight from that entry space: a code is < 2^bits, so it always indexes
/// bytes ValidateStreamBuffer has bounded. The value->index map is a cuckoo
/// hash (kept small because entries are capped at 2^15) that exists only
/// while the stream is built: Finalize releases it and an opened stream,
/// which can never be appended to, never has one.
class DictStream : public BlockedStream {
 public:
  static constexpr uint64_t kEntryCountOffset = 24;
  static constexpr uint64_t kEntriesOffset = 32;

  static std::unique_ptr<DictStream> Make(uint8_t width, bool sign_extend,
                                          uint8_t bits);
  static std::unique_ptr<DictStream> FromBuffer(std::vector<uint8_t> buf);

  uint64_t entry_count() const { return header().GetU64(kEntryCountOffset); }
  /// All entries, in index order.
  std::vector<Lane> Entries() const;

  /// Compressed-domain reads: codes are the packed indexes themselves, so
  /// this skips the per-row entry decode of Get().
  bool GetCodes(uint64_t row, size_t count, Lane* out) const override;
  std::vector<Lane> CodeEntries() const override { return Entries(); }

  /// Packs the tail, then drops the value->index map: no append can follow.
  Status Finalize() override;

 protected:
  size_t BlockBytes() const override;
  Status CheckAppend(const Lane* values, size_t count) const override;
  void PackBlock(const Lane* values) override;
  void DecodeBlock(uint64_t block_idx, Lane* out) const override;
  void OnCommit(const Lane* values, size_t count) override;

 private:
  /// Cuckoo hash value->index; two buckets per key, relocation on insert.
  struct Cuckoo {
    std::vector<Lane> keys;
    std::vector<uint32_t> vals;
    std::vector<uint8_t> used;
    uint64_t mask = 0;
    void Init(uint64_t capacity_pow2);
    uint32_t Find(Lane key) const;  // UINT32_MAX if absent
    void Insert(Lane key, uint32_t val);
    void Grow();
  };

  uint32_t Lookup(Lane v) const { return map_.Find(v); }

  Cuckoo map_;
};

/// Affine (Sect. 3.1.4): value = base + row * delta; zero packed bits.
class AffineStream : public BlockedStream {
 public:
  static constexpr uint64_t kBaseOffset = 24;
  static constexpr uint64_t kDeltaOffset = 32;

  static std::unique_ptr<AffineStream> Make(uint8_t width, int64_t base,
                                            int64_t delta);
  static std::unique_ptr<AffineStream> FromBuffer(std::vector<uint8_t> buf);

  int64_t base() const { return header().GetI64(kBaseOffset); }
  int64_t delta() const { return header().GetI64(kDeltaOffset); }

 protected:
  size_t BlockBytes() const override { return 0; }
  Status CheckAppend(const Lane* values, size_t count) const override;
  void PackBlock(const Lane* values) override;
  void DecodeBlock(uint64_t block_idx, Lane* out) const override;
};

/// Run-length (Sect. 3.1.5): its own format — the common prefix plus two
/// field-width bytes, then length/value pairs. Backwards seeks degrade to a
/// sequential scan from the start of the stream, which is why the strategic
/// optimizer keeps RLE off hash-join inner sides (Sect. 4.3).
class RleStream : public EncodedStream {
 public:
  static constexpr uint64_t kCountWidthOffset = 24;
  static constexpr uint64_t kValueWidthOffset = 25;
  static constexpr uint64_t kPairsOffset = 32;

  static std::unique_ptr<RleStream> Make(uint8_t width, bool sign_extend,
                                         uint8_t count_width,
                                         uint8_t value_width);
  static std::unique_ptr<RleStream> FromBuffer(std::vector<uint8_t> buf);

  Status Append(const Lane* values, size_t count) override;
  /// Appends a whole run in O(1) (used by RLE rebuild, Sect. 3.4.1).
  Status AppendRun(Lane value, uint64_t count);
  Status Finalize() override;
  Status Get(uint64_t row, size_t count, Lane* out) const override;
  Status GetRuns(std::vector<RleRun>* out) const override;
  uint64_t size() const override { return total_; }

  uint8_t count_width() const { return buf_[kCountWidthOffset]; }
  uint8_t value_width() const { return buf_[kValueWidthOffset]; }
  uint64_t run_count() const;

 private:
  void EmitRun();
  Lane RunValue(uint64_t pair_idx) const;
  uint64_t RunCount(uint64_t pair_idx) const;

  uint64_t total_ = 0;
  bool in_run_ = false;
  Lane cur_value_ = 0;
  uint64_t cur_count_ = 0;
  bool finalized_stream_ = false;
  // Sequential-access cursor (Sect. 4.3): the last decoded pair and its
  // first row; a backwards seek resets it to the start. Concurrent queries
  // share the stream, so Get copies and stores the cursor as one snapshot
  // under cursor_mu_ and walks a private copy.
  struct Cursor {
    uint64_t pair = 0;
    uint64_t row = 0;
  };
  mutable std::mutex cursor_mu_;
  mutable Cursor cursor_;
};

}  // namespace internal
}  // namespace tde

#endif  // TDE_ENCODING_STREAMS_INTERNAL_H_
