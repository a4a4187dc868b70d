// Width-parameterized stream coverage: every encoding must round-trip at
// every element width it can be narrowed to, under both load extensions,
// the dictionary cuckoo hash must survive adversarial loads, and 8-byte
// dictionary and uncompressed streams must return real bit patterns
// exactly.

#include <algorithm>
#include <bit>
#include <limits>
#include <random>

#include <gtest/gtest.h>

#include "src/encoding/manipulate.h"
#include "src/encoding/streams_internal.h"

namespace tde {
namespace {

class WidthSweep
    : public ::testing::TestWithParam<std::tuple<EncodingType, int, bool>> {};

TEST_P(WidthSweep, RoundTripsAtWidth) {
  const auto [type, width_i, sign_extend] = GetParam();
  const uint8_t width = static_cast<uint8_t>(width_i);
  // Values that fit the signed (or, without sign extension, the unsigned)
  // range of `width`; the unsigned range's top half is what a sign-
  // extending load would get wrong.
  int64_t lo, hi;
  if (sign_extend) {
    hi = width >= 8 ? 100000 : (int64_t{1} << (8 * width - 1)) - 1;
    lo = -hi - 1;
  } else {
    hi = width >= 8 ? 200000 : (int64_t{1} << (8 * width)) - 1;
    lo = width >= 8 ? 0 : hi / 2 - 31;
  }
  std::mt19937_64 rng(width * 7 + static_cast<int>(type) + sign_extend);
  std::vector<Lane> v(4000);
  for (size_t i = 0; i < v.size(); ++i) {
    switch (type) {
      case EncodingType::kAffine:
        v[i] = lo + static_cast<Lane>(i) % (hi - lo);
        break;
      case EncodingType::kDelta:
        v[i] = lo + static_cast<Lane>(i * 3) % (hi - lo);
        break;
      case EncodingType::kRunLength:
        v[i] = lo + static_cast<Lane>(i / 100) % 50;
        break;
      default:
        v[i] = lo + static_cast<Lane>(rng() % 64);
        break;
    }
  }
  if (type == EncodingType::kAffine) {
    // Affine needs an exact progression that stays inside the width: use
    // the widest constant-step ramp that fits, then hold at the top.
    const Lane step = 1;
    for (size_t i = 0; i < v.size(); ++i) {
      const Lane val = lo + static_cast<Lane>(i) * step;
      v[i] = val <= hi ? val : v[i - 1];
    }
    // A held tail breaks the affine progression; truncate to the ramp.
    const size_t ramp = static_cast<size_t>(
        std::min<int64_t>(static_cast<int64_t>(v.size()), hi - lo + 1));
    v.resize(ramp);
  }
  EncodingStats stats;
  stats.Update(v.data(), v.size());
  auto r = EncodedStream::Create(type, width, sign_extend, stats, 0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto s = r.MoveValue();
  ASSERT_TRUE(s->Append(v.data(), v.size()).ok());
  ASSERT_TRUE(s->Finalize().ok());
  EXPECT_EQ(s->width(), width);
  std::vector<Lane> back(v.size());
  ASSERT_TRUE(s->Get(0, back.size(), back.data()).ok());
  EXPECT_EQ(back, v);
  // Reopen from bytes too, and read a window that starts and ends inside
  // decompression blocks.
  auto reopened = EncodedStream::Open(s->buffer()).MoveValue();
  ASSERT_TRUE(reopened->Get(0, back.size(), back.data()).ok());
  EXPECT_EQ(back, v);
  const size_t first = 37;
  const size_t n = std::min<size_t>(v.size() - first, 1500);
  std::vector<Lane> window(n);
  ASSERT_TRUE(reopened->Get(first, n, window.data()).ok());
  EXPECT_TRUE(std::equal(window.begin(), window.end(), v.begin() + first));
}

INSTANTIATE_TEST_SUITE_P(
    AllWidths, WidthSweep,
    ::testing::Combine(
        ::testing::Values(EncodingType::kUncompressed,
                          EncodingType::kFrameOfReference,
                          EncodingType::kDelta, EncodingType::kDictionary,
                          EncodingType::kAffine, EncodingType::kRunLength),
        ::testing::Values(1, 2, 4, 8), ::testing::Bool()),
    [](const auto& info) {
      std::string n = EncodingName(std::get<0>(info.param));
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n + "_w" + std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_signed" : "_unsigned");
    });

/// IEEE patterns a real column stores verbatim: NaN (both signs), both
/// zeros, both infinities, denormals, extremes, and the NULL sentinel
/// (whose pattern is the one -0.0 has, so 12 distinct values).
std::vector<Lane> RealBitPatterns() {
  const double specials[] = {
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -4.9406564584124654e-320,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      1.5,
      -2.25};
  std::vector<Lane> distinct;
  for (double d : specials) distinct.push_back(std::bit_cast<Lane>(d));
  distinct.push_back(kNullSentinel);
  std::vector<Lane> v(5000);
  std::mt19937_64 rng(8);
  for (Lane& x : v) x = distinct[rng() % distinct.size()];
  return v;
}

class RealPatterns : public ::testing::TestWithParam<EncodingType> {};

TEST_P(RealPatterns, Width8StreamsReturnExactBits) {
  const std::vector<Lane> v = RealBitPatterns();
  EncodingStats stats;
  stats.Update(v.data(), v.size());
  auto built = EncodedStream::Create(GetParam(), 8, /*sign_extend=*/true,
                                     stats, 0)
                   .MoveValue();
  ASSERT_TRUE(built->Append(v.data(), v.size()).ok());
  ASSERT_TRUE(built->Finalize().ok());
  auto opened = EncodedStream::Open(built->buffer());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  for (const EncodedStream* s : {built.get(), opened.value().get()}) {
    // Windows that start and end inside decompression blocks and cross
    // block boundaries.
    for (const auto& [first, n] : std::vector<std::pair<size_t, size_t>>{
             {0, v.size()}, {1, 1}, {1023, 2}, {999, 2049}, {4001, 999}}) {
      std::vector<Lane> out(n);
      ASSERT_TRUE(s->Get(first, n, out.data()).ok());
      EXPECT_TRUE(std::equal(out.begin(), out.end(), v.begin() + first))
          << "window " << first << "+" << n;
    }
    std::vector<Lane> codes(v.size());
    if (GetParam() != EncodingType::kDictionary) {
      EXPECT_FALSE(s->GetCodes(0, codes.size(), codes.data()));
      continue;
    }
    ASSERT_TRUE(s->GetCodes(0, codes.size(), codes.data()));
    const std::vector<Lane> entries = s->CodeEntries();
    ASSERT_EQ(entries.size(), 12u);
    for (size_t i = 0; i < v.size(); ++i) {
      ASSERT_LT(static_cast<uint64_t>(codes[i]), entries.size());
      ASSERT_EQ(entries[codes[i]], v[i]) << "row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DictAndUncompressed, RealPatterns,
                         ::testing::Values(EncodingType::kDictionary,
                                           EncodingType::kUncompressed),
                         [](const auto& info) {
                           return std::string(EncodingName(info.param));
                         });

TEST(OpenedDictionary, AppendReturnsAStatus) {
  // An opened stream carries no value->index map; appending must still be
  // refused cleanly, never look a value up.
  std::vector<Lane> v = {5, 6, 7, 5};
  EncodingStats stats;
  stats.Update(v.data(), v.size());
  auto built = EncodedStream::Create(EncodingType::kDictionary, 8, true,
                                     stats, 2)
                   .MoveValue();
  ASSERT_TRUE(built->Append(v.data(), v.size()).ok());
  ASSERT_TRUE(built->Finalize().ok());
  EXPECT_EQ(built->Append(v.data(), 1).code(), StatusCode::kInternal);
  auto opened = EncodedStream::Open(built->buffer()).MoveValue();
  EXPECT_EQ(opened->Append(v.data(), v.size()).code(), StatusCode::kInternal);
  Lane fresh = 99;
  EXPECT_EQ(opened->Append(&fresh, 1).code(), StatusCode::kInternal);
  EXPECT_TRUE(opened->Finalize().ok());
  std::vector<Lane> back(v.size());
  ASSERT_TRUE(opened->Get(0, back.size(), back.data()).ok());
  EXPECT_EQ(back, v);
}

TEST(DictCuckoo, SurvivesFullCapacityRandomKeys) {
  // Fill a maximal dictionary (2^15 entries) with adversarially wide keys;
  // every index must resolve back to its key.
  std::mt19937_64 rng(31337);
  std::vector<Lane> keys;
  keys.reserve(kMaxDictEntries);
  while (keys.size() < kMaxDictEntries) {
    keys.push_back(static_cast<Lane>(rng()));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  auto s = internal::DictStream::Make(8, /*sign_extend=*/true, /*bits=*/15);
  ASSERT_TRUE(s->Append(keys.data(), keys.size()).ok());
  ASSERT_TRUE(s->Finalize().ok());
  EXPECT_EQ(s->entry_count(), keys.size());
  std::vector<Lane> back(keys.size());
  ASSERT_TRUE(s->Get(0, back.size(), back.data()).ok());
  EXPECT_EQ(back, keys);
}

TEST(DictCuckoo, ClusteredKeysStillResolve) {
  // Sequential keys sharing high bits stress the two-bucket scheme.
  std::vector<Lane> keys(10000);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<Lane>(i) + (int64_t{1} << 40);
  }
  auto s = internal::DictStream::Make(8, true, 14);
  ASSERT_TRUE(s->Append(keys.data(), keys.size()).ok());
  std::vector<Lane> back(keys.size());
  ASSERT_TRUE(s->Get(0, back.size(), back.data()).ok());
  EXPECT_EQ(back, keys);
}

TEST(NarrowedStreams, AppendAfterNarrowRespectsWidth) {
  // A narrowed dictionary stream must reject entries that no longer fit.
  std::vector<Lane> v = {1, 2, 3};
  EncodingStats stats;
  stats.Update(v.data(), v.size());
  auto s = EncodedStream::Create(EncodingType::kDictionary, 8, true, stats, 2)
               .MoveValue();
  ASSERT_TRUE(s->Append(v.data(), v.size()).ok());
  ASSERT_TRUE(NarrowStreamWidth(s->mutable_buffer(), true).ok());
  ASSERT_EQ(s->width(), 1);
  Lane wide = 300;
  EXPECT_EQ(s->Append(&wide, 1).code(), StatusCode::kOutOfRange);
  Lane fits = 4;
  EXPECT_TRUE(s->Append(&fits, 1).ok());
}

}  // namespace
}  // namespace tde
