#include "src/crypto/chacha20.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace fl::crypto {
namespace {

// Runs a test body under the portable 4-lane kernel and again under
// whatever kernel the CPU dispatch picks (AVX2 where available), so both
// code paths are pinned by every equivalence test.
template <typename Fn>
void ForEachKernel(Fn&& fn) {
  internal::UseGenericKernelForTest(true);
  fn("generic");
  internal::UseGenericKernelForTest(false);
  fn("dispatched");
}

// Byte-at-a-time XOR oracle built on the retained one-block reference.
void ScalarXorRef(const Key256& key, const Nonce96& nonce,
                  std::uint32_t counter, std::span<std::uint8_t> data) {
  std::uint8_t block[64];
  std::size_t pos = 0;
  while (pos < data.size()) {
    ChaCha20BlockRef(key, nonce, counter++, block);
    const std::size_t take = std::min<std::size_t>(64, data.size() - pos);
    for (std::size_t i = 0; i < take; ++i) data[pos + i] ^= block[i];
    pos += take;
  }
}

TEST(ChaCha20Test, Rfc8439KeystreamVector) {
  // RFC 8439 section 2.4.2: key 00..1f, nonce 000000000000004a00000000,
  // counter 1 — encrypting the known plaintext yields the known ciphertext.
  Key256 key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  Nonce96 nonce{};
  nonce[7] = 0x4a;
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  std::vector<std::uint8_t> buf(plaintext.begin(), plaintext.end());
  ChaCha20Xor(key, nonce, 1, buf);
  // First bytes of the RFC ciphertext.
  const std::uint8_t expected_prefix[] = {0x6e, 0x2e, 0x35, 0x9a, 0x25,
                                          0x68, 0xf9, 0x80, 0x41, 0xba};
  for (std::size_t i = 0; i < sizeof(expected_prefix); ++i) {
    EXPECT_EQ(buf[i], expected_prefix[i]) << i;
  }
}

TEST(ChaCha20Test, Rfc8439BlockFunctionVector) {
  // RFC 8439 section 2.3.2: the full serialized block for key 00..1f,
  // nonce 00:00:00:09:00:00:00:4a:00:00:00:00, counter 1.
  Key256 key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  Nonce96 nonce{};
  nonce[3] = 0x09;
  nonce[7] = 0x4a;
  const std::uint8_t expected[64] = {
      0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd,
      0x1f, 0xa3, 0x20, 0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0,
      0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a, 0xc3, 0xd4, 0x6c, 0x4e, 0xd2,
      0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2, 0xd7, 0x05,
      0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e,
      0xb9, 0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e};
  std::uint8_t block[64];
  ChaCha20BlockRef(key, nonce, 1, block);
  EXPECT_EQ(0, std::memcmp(block, expected, 64)) << "scalar reference";
  ForEachKernel([&](const char* kernel) {
    std::vector<std::uint8_t> zeros(64, 0);
    ChaCha20Xor(key, nonce, 1, zeros);
    EXPECT_EQ(0, std::memcmp(zeros.data(), expected, 64)) << kernel;
  });
}

TEST(ChaCha20Test, Rfc8439AppendixA1FirstKeystreamBlock) {
  // RFC 8439 A.1 test vector #1: zero key, zero nonce, counter 0.
  const std::uint8_t expected[64] = {
      0x76, 0xb8, 0xe0, 0xad, 0xa0, 0xf1, 0x3d, 0x90, 0x40, 0x5d, 0x6a,
      0xe5, 0x53, 0x86, 0xbd, 0x28, 0xbd, 0xd2, 0x19, 0xb8, 0xa0, 0x8d,
      0xed, 0x1a, 0xa8, 0x36, 0xef, 0xcc, 0x8b, 0x77, 0x0d, 0xc7, 0xda,
      0x41, 0x59, 0x7c, 0x51, 0x57, 0x48, 0x8d, 0x77, 0x24, 0xe0, 0x3f,
      0xb8, 0xd8, 0x4a, 0x37, 0x6a, 0x43, 0xb8, 0xf4, 0x15, 0x18, 0xa1,
      0x1c, 0xc3, 0x87, 0xb6, 0x69, 0xb2, 0xee, 0x65, 0x86};
  const Key256 key{};
  const Nonce96 nonce{};
  std::uint8_t block[64];
  ChaCha20BlockRef(key, nonce, 0, block);
  EXPECT_EQ(0, std::memcmp(block, expected, 64)) << "scalar reference";
  ForEachKernel([&](const char* kernel) {
    std::vector<std::uint8_t> zeros(64, 0);
    ChaCha20Xor(key, nonce, 0, zeros);
    EXPECT_EQ(0, std::memcmp(zeros.data(), expected, 64)) << kernel;
  });
}

TEST(ChaCha20Test, Rfc8439FullSunscreenCiphertext) {
  // RFC 8439 section 2.4.2: the complete 114-byte ciphertext, which spans
  // two blocks and ends mid-block (a partial-tail case for the multi-block
  // kernel).
  Key256 key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  Nonce96 nonce{};
  nonce[7] = 0x4a;
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  const std::uint8_t expected[114] = {
      0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07,
      0x28, 0xdd, 0x0d, 0x69, 0x81, 0xe9, 0x7e, 0x7a, 0xec, 0x1d, 0x43,
      0x60, 0xc2, 0x0a, 0x27, 0xaf, 0xcc, 0xfd, 0x9f, 0xae, 0x0b, 0xf9,
      0x1b, 0x65, 0xc5, 0x52, 0x47, 0x33, 0xab, 0x8f, 0x59, 0x3d, 0xab,
      0xcd, 0x62, 0xb3, 0x57, 0x16, 0x39, 0xd6, 0x24, 0xe6, 0x51, 0x52,
      0xab, 0x8f, 0x53, 0x0c, 0x35, 0x9f, 0x08, 0x61, 0xd8, 0x07, 0xca,
      0x0d, 0xbf, 0x50, 0x0d, 0x6a, 0x61, 0x56, 0xa3, 0x8e, 0x08, 0x8a,
      0x22, 0xb6, 0x5e, 0x52, 0xbc, 0x51, 0x4d, 0x16, 0xcc, 0xf8, 0x06,
      0x81, 0x8c, 0xe9, 0x1a, 0xb7, 0x79, 0x37, 0x36, 0x5a, 0xf9, 0x0b,
      0xbf, 0x74, 0xa3, 0x5b, 0xe6, 0xb4, 0x0b, 0x8e, 0xed, 0xf2, 0x78,
      0x5e, 0x42, 0x87, 0x4d};
  ASSERT_EQ(plaintext.size(), sizeof(expected));
  ForEachKernel([&](const char* kernel) {
    std::vector<std::uint8_t> buf(plaintext.begin(), plaintext.end());
    ChaCha20Xor(key, nonce, 1, buf);
    EXPECT_EQ(0, std::memcmp(buf.data(), expected, sizeof(expected)))
        << kernel;
  });
}

TEST(ChaCha20Test, XorMatchesScalarReferenceAcrossLengths) {
  Key256 key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(0xA0 + i);
  Nonce96 nonce{};
  nonce[0] = 0x11;
  nonce[11] = 0x99;
  // Lengths probe every stride relationship: sub-block, exact block,
  // exact stride (4 and 8 blocks), and mid-stride tails.
  for (std::size_t len : {1u, 63u, 64u, 65u, 255u, 256u, 257u, 511u, 512u,
                          513u, 1000u}) {
    for (std::uint32_t counter : {0u, 1u, 5u}) {
      std::vector<std::uint8_t> data(len);
      for (std::size_t i = 0; i < len; ++i) {
        data[i] = static_cast<std::uint8_t>(i * 31 + counter);
      }
      std::vector<std::uint8_t> expect = data;
      ScalarXorRef(key, nonce, counter, expect);
      ForEachKernel([&](const char* kernel) {
        std::vector<std::uint8_t> got = data;
        ChaCha20Xor(key, nonce, counter, got);
        EXPECT_EQ(got, expect) << kernel << " len=" << len
                               << " counter=" << counter;
      });
    }
  }
}

TEST(ChaCha20Test, CounterOverflowMidStride) {
  // The 32-bit block counter wraps mod 2^32 per lane; starting just below
  // the wrap forces the overflow to land inside one multi-block stride for
  // both the 4-lane and 8-lane kernels.
  Key256 key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(0x30 + i);
  Nonce96 nonce{};
  nonce[5] = 0x66;
  for (std::uint32_t counter :
       {0xFFFFFFFFu, 0xFFFFFFFEu, 0xFFFFFFFCu, 0xFFFFFFF9u}) {
    std::vector<std::uint8_t> data(64 * 12);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::uint8_t>(i);
    }
    std::vector<std::uint8_t> expect = data;
    ScalarXorRef(key, nonce, counter, expect);
    ForEachKernel([&](const char* kernel) {
      std::vector<std::uint8_t> got = data;
      ChaCha20Xor(key, nonce, counter, got);
      EXPECT_EQ(got, expect) << kernel << " counter=" << counter;
    });
  }
}

TEST(ChaCha20Test, XorIsInvolution) {
  Key256 key{};
  key[0] = 7;
  Nonce96 nonce{};
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  auto copy = data;
  ChaCha20Xor(key, nonce, 0, data);
  EXPECT_NE(data, copy);
  ChaCha20Xor(key, nonce, 0, data);
  EXPECT_EQ(data, copy);
}

TEST(PrgTest, DeterministicPerSeed) {
  Key256 seed{};
  seed[5] = 0x42;
  EXPECT_EQ(PrgWords(seed, 100), PrgWords(seed, 100));
}

TEST(PrgTest, DifferentSeedsDiffer) {
  Key256 a{}, b{};
  a[0] = 1;
  b[0] = 2;
  EXPECT_NE(PrgWords(a, 64), PrgWords(b, 64));
}

TEST(PrgTest, StreamIdSeparatesOutputs) {
  Key256 seed{};
  seed[1] = 9;
  EXPECT_NE(PrgWords(seed, 64, 0), PrgWords(seed, 64, 1));
}

TEST(PrgTest, PrefixStability) {
  // Expanding more words keeps the shared prefix identical — required for
  // mask vectors of different logical lengths derived from one seed.
  Key256 seed{};
  seed[2] = 3;
  const auto short_out = PrgWords(seed, 10);
  const auto long_out = PrgWords(seed, 100);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(short_out[i], long_out[i]);
  }
}

TEST(PrgTest, ZeroCountYieldsEmpty) {
  Key256 seed{};
  EXPECT_TRUE(PrgWords(seed, 0).empty());
}

TEST(PrgTest, MultiBlockMatchesScalarReference) {
  Key256 seed{};
  seed[0] = 0xC4;
  seed[31] = 0x11;
  // Counts straddle block (16-word) and stride (64-/128-word) boundaries.
  for (std::size_t count : {1u, 15u, 16u, 17u, 63u, 64u, 65u, 127u, 128u,
                            129u, 1000u}) {
    for (std::uint32_t stream : {0u, 7u}) {
      const auto expect = PrgWordsRef(seed, count, stream);
      ForEachKernel([&](const char* kernel) {
        EXPECT_EQ(PrgWords(seed, count, stream), expect)
            << kernel << " count=" << count << " stream=" << stream;
      });
    }
  }
}

TEST(PrgTest, RandomSeedsAndLengthsMatchScalarReference) {
  // Fully random keys put a distinct value in every state word, so a
  // misplaced lane or word in a kernel's output shuffle cannot hide.
  std::uint64_t x = 0x243F6A8885A308D3ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int trial = 0; trial < 200; ++trial) {
    Key256 seed;
    for (auto& b : seed) b = static_cast<std::uint8_t>(next());
    const std::size_t count = next() % 600;
    const auto stream = static_cast<std::uint32_t>(next());
    const auto expect = PrgWordsRef(seed, count, stream);
    ForEachKernel([&](const char* kernel) {
      ASSERT_EQ(PrgWords(seed, count, stream), expect)
          << kernel << " trial=" << trial << " count=" << count;
    });
  }
}

TEST(PrgTest, AccumulateMatchesSeparateExpandAndApply) {
  Key256 a{}, b{};
  a[3] = 0x5A;
  b[9] = 0xE2;
  for (std::size_t count : {1u, 16u, 65u, 129u, 777u}) {
    // Pre-change shape: materialize each mask, then add/subtract it.
    std::vector<std::uint32_t> expect(count);
    for (std::size_t i = 0; i < count; ++i) {
      expect[i] = static_cast<std::uint32_t>(i * 2654435761u);
    }
    std::vector<std::uint32_t> got = expect;
    const auto mask_a = PrgWordsRef(a, count, 3);
    const auto mask_b = PrgWordsRef(b, count, 0);
    for (std::size_t i = 0; i < count; ++i) expect[i] += mask_a[i];
    for (std::size_t i = 0; i < count; ++i) expect[i] -= mask_b[i];
    ForEachKernel([&](const char* kernel) {
      auto acc = got;
      PrgAccumulate(a, 3, +1, acc);
      PrgAccumulate(b, 0, -1, acc);
      EXPECT_EQ(acc, expect) << kernel << " count=" << count;
    });
  }
}

TEST(AddWordsTest, MatchesTheScalarLoopAtEveryLengthAndMask) {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int trial = 0; trial < 300; ++trial) {
    // Lengths 0..70 cover every tail after the 4-word vector body; a few
    // longer ones cover the body itself.
    const std::size_t n =
        trial < 240 ? static_cast<std::size_t>(trial % 71) : next() % 5000;
    const std::uint32_t mask =
        trial % 3 == 0 ? 0xFFFFFFFFu
                       : (std::uint32_t{1} << (1 + next() % 31)) - 1u;
    std::vector<std::uint32_t> acc(n), in(n);
    for (auto& w : acc) w = static_cast<std::uint32_t>(next());
    for (auto& w : in) w = static_cast<std::uint32_t>(next());

    std::vector<std::uint32_t> sum = acc, reduced = acc;
    for (std::size_t i = 0; i < n; ++i) sum[i] = (sum[i] + in[i]) & mask;
    for (std::size_t i = 0; i < n; ++i) reduced[i] &= mask;

    std::vector<std::uint32_t> got = acc;
    AddWords(got, in, mask);
    EXPECT_EQ(got, sum) << "n=" << n << " mask=" << mask;
    got = acc;
    AddWords(got, {}, mask);
    EXPECT_EQ(got, reduced) << "n=" << n << " mask=" << mask;
  }
}

TEST(PrgTest, ActiveStrideIsAtLeastFourBlocks) {
  EXPECT_GE(internal::ActiveStrideBlocks(), 4u);
}

TEST(PrgTest, OutputLooksUniform) {
  Key256 seed{};
  seed[7] = 0x77;
  const auto words = PrgWords(seed, 100000);
  double mean = 0;
  for (std::uint32_t w : words) {
    mean += static_cast<double>(w) / words.size();
  }
  // Mean of U[0, 2^32) is 2^31.
  EXPECT_NEAR(mean / 4294967296.0, 0.5, 0.01);
}

}  // namespace
}  // namespace fl::crypto
