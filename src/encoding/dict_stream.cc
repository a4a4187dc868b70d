#include <algorithm>
#include <limits>
#include <memory>
#include <unordered_set>

#include "src/common/hash.h"
#include "src/encoding/bitpack.h"
#include "src/encoding/streams_internal.h"

namespace tde {
namespace internal {

namespace {
constexpr uint32_t kAbsent = std::numeric_limits<uint32_t>::max();
}  // namespace

void DictStream::Cuckoo::Init(uint64_t capacity_pow2) {
  keys.assign(capacity_pow2, 0);
  vals.assign(capacity_pow2, 0);
  used.assign(capacity_pow2, 0);
  mask = capacity_pow2 - 1;
}

uint32_t DictStream::Cuckoo::Find(Lane key) const {
  const uint64_t h1 = Mix64(static_cast<uint64_t>(key)) & mask;
  if (used[h1] && keys[h1] == key) return vals[h1];
  const uint64_t h2 = Mix64(~static_cast<uint64_t>(key)) & mask;
  if (used[h2] && keys[h2] == key) return vals[h2];
  return kAbsent;
}

void DictStream::Cuckoo::Insert(Lane key, uint32_t val) {
  // Displacement loop with a relocation bound; grow and retry on a cycle.
  Lane k = key;
  uint32_t v = val;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const uint64_t h1 = Mix64(static_cast<uint64_t>(k)) & mask;
    if (!used[h1]) {
      keys[h1] = k;
      vals[h1] = v;
      used[h1] = 1;
      return;
    }
    const uint64_t h2 = Mix64(~static_cast<uint64_t>(k)) & mask;
    if (!used[h2]) {
      keys[h2] = k;
      vals[h2] = v;
      used[h2] = 1;
      return;
    }
    // Evict the occupant of the first bucket and re-place it.
    std::swap(k, keys[h1]);
    std::swap(v, vals[h1]);
  }
  Grow();
  Insert(k, v);
}

void DictStream::Cuckoo::Grow() {
  std::vector<Lane> old_keys = std::move(keys);
  std::vector<uint32_t> old_vals = std::move(vals);
  std::vector<uint8_t> old_used = std::move(used);
  Init((mask + 1) * 2);
  for (size_t i = 0; i < old_used.size(); ++i) {
    if (old_used[i]) Insert(old_keys[i], old_vals[i]);
  }
}

std::unique_ptr<DictStream> DictStream::Make(uint8_t width, bool sign_extend,
                                             uint8_t bits) {
  auto s = std::unique_ptr<DictStream>(new DictStream());
  // Reserve entry space for 2^bits entries up front so the dictionary can
  // grow in place (Sect. 3.1.3) without moving the packed data.
  const uint64_t data_offset =
      kEntriesOffset + static_cast<uint64_t>(width) * (uint64_t{1} << bits);
  InitHeader(s->mutable_buffer(), EncodingType::kDictionary, width, bits,
             sign_extend, data_offset);
  HeaderView(s->mutable_buffer()).SetU64(kEntryCountOffset, 0);
  s->map_.Init(256);
  return s;
}

std::unique_ptr<DictStream> DictStream::FromBuffer(std::vector<uint8_t> buf) {
  // No value->index map: an opened stream is finalized, so nothing looks a
  // value up, and decoding reads the stored entries directly.
  auto s = std::unique_ptr<DictStream>(new DictStream());
  *s->mutable_buffer() = std::move(buf);
  s->finalized_ = s->header().logical_size();
  s->finalized_stream_ = true;
  return s;
}

Status DictStream::Finalize() {
  TDE_RETURN_NOT_OK(BlockedStream::Finalize());
  map_ = Cuckoo();
  return Status::OK();
}

std::vector<Lane> DictStream::Entries() const {
  std::vector<Lane> out(entry_count());
  LoadValues(buf_.data() + kEntriesOffset, width(), SignExtendOf(header()),
             out.size(), [](size_t i) { return i; }, out.data());
  return out;
}

size_t DictStream::BlockBytes() const {
  return PackedBytes(kBlockSize, bits());
}

Status DictStream::CheckAppend(const Lane* values, size_t count) const {
  const uint64_t capacity = uint64_t{1} << bits();
  const uint8_t w = width();
  const bool se = SignExtendOf(header());
  uint64_t new_entries = 0;
  std::unordered_set<Lane> batch_new;
  for (size_t i = 0; i < count; ++i) {
    if (map_.Find(values[i]) != kAbsent) continue;
    if (!LaneFits(values[i], w, se)) {
      return Status::OutOfRange("dictionary entry exceeds element width");
    }
    if (batch_new.insert(values[i]).second) ++new_entries;
  }
  if (entry_count() + new_entries > capacity) {
    return Status::CapacityExceeded("dictionary full");
  }
  return Status::OK();
}

void DictStream::OnCommit(const Lane* values, size_t count) {
  HeaderView h = mheader();
  uint64_t n = entry_count();
  const uint8_t w = width();
  for (size_t i = 0; i < count; ++i) {
    if (map_.Find(values[i]) != kAbsent) continue;
    map_.Insert(values[i], static_cast<uint32_t>(n));
    StoreBytes(buf_.data() + kEntriesOffset + n * w,
               static_cast<uint64_t>(values[i]), w);
    ++n;
  }
  h.SetU64(kEntryCountOffset, n);
}

void DictStream::PackBlock(const Lane* values) {
  uint64_t packed[kBlockSize];
  for (uint32_t i = 0; i < kBlockSize; ++i) {
    packed[i] = Lookup(values[i]);
  }
  const size_t old = buf_.size();
  buf_.resize(old + BlockBytes());
  PackBits(packed, kBlockSize, bits(), buf_.data() + old);
}

void DictStream::DecodeBlock(uint64_t block_idx, Lane* out) const {
  uint64_t packed[kBlockSize];
  UnpackBits(BlockData(block_idx), kBlockSize, bits(), packed);
  LoadValues(buf_.data() + kEntriesOffset, width(), SignExtendOf(header()),
             kBlockSize, [&packed](size_t i) { return packed[i]; }, out);
}

bool DictStream::GetCodes(uint64_t row, size_t count, Lane* out) const {
  if (row + count > size()) return false;
  size_t produced = 0;
  uint64_t packed[kBlockSize];
  // Finalized (packed) region: unpack the indexes, skip the entry decode.
  while (produced < count && row + produced < finalized_) {
    const uint64_t abs = row + produced;
    const uint64_t block = abs / kBlockSize;
    const uint64_t in_block = abs % kBlockSize;
    if (in_block == 0 && count - produced >= kBlockSize &&
        finalized_ - abs >= kBlockSize) {
      // Aligned full block: unpack straight into the caller's lanes.
      // Lane is the signed counterpart of uint64_t, so the cast aliases
      // legally.
      UnpackBits(BlockData(block), kBlockSize, bits(),
                 reinterpret_cast<uint64_t*>(out + produced));
      produced += kBlockSize;
      continue;
    }
    UnpackBits(BlockData(block), kBlockSize, bits(), packed);
    const size_t take = static_cast<size_t>(
        std::min<uint64_t>(kBlockSize - in_block,
                           std::min<uint64_t>(count - produced,
                                              finalized_ - abs)));
    for (size_t i = 0; i < take; ++i) {
      out[produced + i] = static_cast<Lane>(packed[in_block + i]);
    }
    produced += take;
  }
  // Pending tail: OnCommit registered every committed value, so the map
  // resolves each one.
  while (produced < count) {
    const uint64_t abs = row + produced;
    const uint32_t c = map_.Find(pending_[abs - finalized_]);
    if (c == kAbsent) return false;
    out[produced++] = static_cast<Lane>(c);
  }
  return true;
}

}  // namespace internal
}  // namespace tde
