#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/crc32.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "common/units.hpp"

namespace mha::common {
namespace {

using namespace mha::common::literals;

// ---------------------------------------------------------------- units ---

TEST(Units, LiteralsMultiplyCorrectly) {
  EXPECT_EQ(1_KiB, 1024u);
  EXPECT_EQ(64_KiB, 65536u);
  EXPECT_EQ(1_MiB, 1048576u);
  EXPECT_EQ(1_GiB, 1073741824u);
}

TEST(Units, FormatExactMultiples) {
  EXPECT_EQ(format_bytes(0), "0B");
  EXPECT_EQ(format_bytes(17), "17B");
  EXPECT_EQ(format_bytes(1024), "1KiB");
  EXPECT_EQ(format_bytes(64_KiB), "64KiB");
  EXPECT_EQ(format_bytes(3_MiB), "3MiB");
  EXPECT_EQ(format_bytes(2_GiB), "2GiB");
}

TEST(Units, FormatFractional) {
  EXPECT_EQ(format_bytes(1536), "1.50KiB");
  EXPECT_EQ(format_bytes(1_MiB + 512_KiB), "1.50MiB");
}

TEST(Units, ParseAcceptsSuffixForms) {
  EXPECT_EQ(parse_bytes("64K"), 64_KiB);
  EXPECT_EQ(parse_bytes("64KiB"), 64_KiB);
  EXPECT_EQ(parse_bytes("64kb"), 64_KiB);
  EXPECT_EQ(parse_bytes("2M"), 2_MiB);
  EXPECT_EQ(parse_bytes("1GiB"), 1_GiB);
  EXPECT_EQ(parse_bytes("512"), 512u);
  EXPECT_EQ(parse_bytes("512B"), 512u);
  EXPECT_EQ(parse_bytes("  8K  "), 8_KiB);
}

TEST(Units, ParseRejectsMalformed) {
  EXPECT_FALSE(parse_bytes("").has_value());
  EXPECT_FALSE(parse_bytes("KiB").has_value());
  EXPECT_FALSE(parse_bytes("12Q").has_value());
  EXPECT_FALSE(parse_bytes("-5K").has_value());
  EXPECT_FALSE(parse_bytes("1.5K").has_value());
}

TEST(Units, ParseRejectsOverflow) {
  EXPECT_FALSE(parse_bytes("99999999999999999999").has_value());
  EXPECT_FALSE(parse_bytes("18446744073709551615G").has_value());
}

TEST(Units, ParseFormatRoundTrip) {
  for (ByteCount v : {1_KiB, 4_KiB, 64_KiB, 640_KiB, 1_MiB, 12_MiB, 3_GiB}) {
    EXPECT_EQ(parse_bytes(format_bytes(v)), v) << format_bytes(v);
  }
}

TEST(Units, FormatBandwidth) {
  EXPECT_EQ(format_bandwidth(100.0), "100.00 B/s");
  EXPECT_EQ(format_bandwidth(2.0 * 1024 * 1024), "2.00 MiB/s");
}

// ---------------------------------------------------------------- crc32 ---

TEST(Crc32, KnownVectors) {
  // Standard IEEE CRC-32 test vectors.
  EXPECT_EQ(crc32("", 0), 0x00000000u);
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog"), 0x414FA339u);
}

TEST(Crc32, ChainedEqualsWhole) {
  const std::string data = "hello, parallel file systems";
  const std::uint32_t whole = crc32(data);
  const std::uint32_t part = crc32(data.substr(6), crc32(data.substr(0, 6)));
  EXPECT_EQ(whole, part);
}

TEST(Crc32, SensitiveToSingleBit) {
  std::string a = "abcdefg";
  std::string b = a;
  b[3] ^= 1;
  EXPECT_NE(crc32(a), crc32(b));
}

/// One bit per step, straight from the reflected polynomial: the reference
/// both kernels must match.
std::uint32_t crc32_bitwise(const std::uint8_t* data, std::size_t size, std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return ~c;
}

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t size) {
  std::vector<std::uint8_t> bytes(size);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
  return bytes;
}

TEST(Crc32, KernelsMatchBitwiseReferenceAtEveryLengthAndAlignment) {
  // Lengths below, at and above the 64-byte fold threshold and its 16-byte
  // steps, plus page and chunk sizes ±1; every start alignment mod 16.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  for (const std::size_t n : {4096u, 65536u}) {
    lengths.insert(lengths.end(), {n - 1, n, n + 1});
  }
  Rng rng(2018);
  const std::vector<std::uint8_t> buffer = random_bytes(rng, 65537 + 16);
  for (const std::size_t n : lengths) {
    for (std::size_t align = 0; align < 16; ++align) {
      const std::uint8_t* p = buffer.data() + align;
      const auto seed = static_cast<std::uint32_t>(rng.next_u64());
      const std::uint32_t want = crc32_bitwise(p, n, seed);
      ASSERT_EQ(crc32(p, n, seed), want) << "length " << n << " alignment " << align;
      ASSERT_EQ(crc32_slice8(p, n, seed), want) << "length " << n << " alignment " << align;
    }
  }
}

TEST(Crc32, ChainingThroughRandomSplitsEqualsWhole) {
  Rng rng(38);
  const std::vector<std::uint8_t> buffer = random_bytes(rng, 70000);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t size = rng.next_in(0, buffer.size());
    const auto seed = static_cast<std::uint32_t>(rng.next_u64());
    const std::uint32_t want = crc32_bitwise(buffer.data(), size, seed);
    // Cut [0, size) into pieces of random length (short ones for the table
    // kernel, long ones for the fold) and chain each piece's result on.
    std::uint32_t fast = seed;
    std::uint32_t table = seed;
    for (std::size_t pos = 0; pos < size;) {
      const std::size_t piece =
          std::min<std::size_t>(size - pos, rng.next_in(1, rng.next_below(2) ? 100 : 20000));
      fast = crc32(buffer.data() + pos, piece, fast);
      table = crc32_slice8(buffer.data() + pos, piece, table);
      pos += piece;
    }
    ASSERT_EQ(fast, want) << "trial " << trial << " size " << size;
    ASSERT_EQ(table, want) << "trial " << trial << " size " << size;
  }
}

// ------------------------------------------------------------------ rng ---

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextInCoversRangeInclusive) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.next_in(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values should appear in 500 draws
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::multiset<int> a(v.begin(), v.end()), b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------- stats ---

TEST(OnlineStats, BasicMoments) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, MergeMatchesSequential) {
  OnlineStats whole, left, right;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10;
    whole.add(x);
    (i < 20 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(OnlineStats, MergeEmptyEitherSide) {
  OnlineStats filled;
  for (double x : {1.0, 3.0, 5.0}) filled.add(x);
  const double mean = filled.mean();
  const double variance = filled.variance();

  OnlineStats empty;
  filled.merge(empty);  // merging nothing changes nothing
  EXPECT_EQ(filled.count(), 3u);
  EXPECT_DOUBLE_EQ(filled.mean(), mean);
  EXPECT_DOUBLE_EQ(filled.variance(), variance);
  EXPECT_DOUBLE_EQ(filled.min(), 1.0);
  EXPECT_DOUBLE_EQ(filled.max(), 5.0);

  OnlineStats target;
  target.merge(filled);  // merging into empty adopts the other side whole
  EXPECT_EQ(target.count(), 3u);
  EXPECT_DOUBLE_EQ(target.mean(), mean);
  EXPECT_DOUBLE_EQ(target.variance(), variance);
  EXPECT_DOUBLE_EQ(target.min(), 1.0);
  EXPECT_DOUBLE_EQ(target.max(), 5.0);

  OnlineStats both;
  both.merge(OnlineStats{});  // empty + empty stays empty, not NaN
  EXPECT_EQ(both.count(), 0u);
  EXPECT_EQ(both.mean(), 0.0);
  EXPECT_EQ(both.variance(), 0.0);
}

TEST(OnlineStats, MergeSingleSamples) {
  OnlineStats a, b;
  a.add(2.0);
  b.add(8.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_NEAR(a.variance(), 18.0, 1e-12);  // ((2-5)^2 + (8-5)^2) / (2-1)
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 8.0);
}

TEST(Percentiles, NearestRank) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_DOUBLE_EQ(p.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(p.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(p.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(p.percentile(0), 1.0);
}

TEST(Percentiles, EdgeRanks) {
  Percentiles empty;
  EXPECT_DOUBLE_EQ(empty.percentile(50), 0.0);

  Percentiles single;
  single.add(42.0);  // one sample answers every rank
  EXPECT_DOUBLE_EQ(single.percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(single.percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(single.percentile(100), 42.0);

  Percentiles two;
  two.add(10.0);
  two.add(20.0);
  EXPECT_DOUBLE_EQ(two.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(two.percentile(100), 20.0);
  // Insertion order is irrelevant: ranks come from the sorted samples.
  Percentiles reversed;
  reversed.add(20.0);
  reversed.add(10.0);
  EXPECT_DOUBLE_EQ(reversed.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(reversed.percentile(100), 20.0);
}

TEST(SizeHistogram, BucketsByPowerOfTwo) {
  EXPECT_EQ(SizeHistogram::bucket_of(0), 0u);
  EXPECT_EQ(SizeHistogram::bucket_of(1), 0u);
  EXPECT_EQ(SizeHistogram::bucket_of(2), 1u);
  EXPECT_EQ(SizeHistogram::bucket_of(1023), 9u);
  EXPECT_EQ(SizeHistogram::bucket_of(1024), 10u);
}

TEST(SizeHistogram, CountsAndDump) {
  SizeHistogram h;
  h.add(16);
  h.add(16);
  h.add(64_KiB);
  EXPECT_EQ(h.count(), 3u);
  const std::string dump = h.to_string();
  EXPECT_NE(dump.find("2"), std::string::npos);
}

// --------------------------------------------------------------- result ---

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.to_string(), "ok");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = Status::not_found("missing thing");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.to_string(), "not_found: missing thing");
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(Result, HoldsError) {
  Result<int> r = Status::io_error("disk on fire");
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kIoError);
  EXPECT_EQ(r.value_or(-1), -1);
}

Status propagate_helper(bool fail) {
  MHA_RETURN_IF_ERROR(fail ? Status::corruption("inner") : Status::ok());
  return Status::ok();
}

TEST(Result, ReturnIfErrorMacro) {
  EXPECT_TRUE(propagate_helper(false).is_ok());
  EXPECT_EQ(propagate_helper(true).code(), ErrorCode::kCorruption);
}

TEST(Types, OpAndServerKindNames) {
  EXPECT_STREQ(to_string(OpType::kRead), "read");
  EXPECT_STREQ(to_string(OpType::kWrite), "write");
  EXPECT_STREQ(to_string(ServerKind::kHdd), "HServer");
  EXPECT_STREQ(to_string(ServerKind::kSsd), "SServer");
}

}  // namespace
}  // namespace mha::common
