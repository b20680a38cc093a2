#include "src/common/crc32.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace fl {
namespace {

std::span<const std::uint8_t> AsBytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Crc32Test, KnownVectors) {
  // Standard IEEE CRC32 check value.
  EXPECT_EQ(Crc32(AsBytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(AsBytes("")), 0x00000000u);
  EXPECT_EQ(Crc32(AsBytes("a")), 0xE8B7BE43u);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data = "federated learning at scale";
  const std::uint32_t clean = Crc32(AsBytes(data));
  data[5] ^= 0x01;
  EXPECT_NE(Crc32(AsBytes(data)), clean);
}

// The classic one-table bytewise CRC-32 loop, kept here as the reference
// the sliced implementation must match.
std::uint32_t BytewiseCrc32(std::span<const std::uint8_t> data,
                            std::uint32_t seed) {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const std::uint8_t b : data) c = table[(c ^ b) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesBytewiseReference) {
  // Every length through a few sliced steps plus tail, at every alignment,
  // each CRC seeding the next so chained (streamed) use is covered too.
  std::vector<std::uint8_t> buf(4096 + 8);
  std::uint32_t x = 0x9E3779B9u;
  for (auto& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  std::uint32_t seed = 0;
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 4096; ++len) {
      const auto data = std::span<const std::uint8_t>(buf).subspan(offset, len);
      const std::uint32_t want = BytewiseCrc32(data, seed);
      ASSERT_EQ(Crc32(data, seed), want)
          << "offset=" << offset << " len=" << len;
      seed = want;
    }
  }
}

TEST(Crc32Test, SeedChainsDistinctly) {
  const std::string data = "payload";
  EXPECT_NE(Crc32(AsBytes(data), 0), Crc32(AsBytes(data), 1));
}

}  // namespace
}  // namespace fl
