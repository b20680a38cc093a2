#include "src/crypto/sha256.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>
#include <vector>

namespace fl::crypto {
namespace {

std::span<const std::uint8_t> AsBytes(const std::string& s) {
  return std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string data = "federated learning at scale: system design";
  for (std::size_t split = 0; split <= data.size(); split += 7) {
    Sha256 h;
    h.Update(data.substr(0, split));
    h.Update(data.substr(split));
    EXPECT_EQ(h.Finalize(), Sha256::Hash(data)) << "split=" << split;
  }
}

TEST(Sha256Test, BlockBoundaryLengths) {
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 128u}) {
    const std::string a(len, 'x');
    // Self-consistency across buffering paths.
    Sha256 one;
    one.Update(a);
    Sha256 two;
    for (char c : a) two.Update(std::string(1, c));
    EXPECT_EQ(one.Finalize(), two.Finalize()) << "len=" << len;
  }
}

TEST(HmacSha256Test, Rfc4231Vector1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  const std::string msg = "Hi There";
  const Digest mac = HmacSha256(
      key, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(DigestToHex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256Test, Rfc4231Vector2) {
  const std::string key = "Jefe";
  const std::string msg = "what do ya want for nothing?";
  const Digest mac = HmacSha256(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(key.data()), key.size()),
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(DigestToHex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256Test, LongKeyIsHashedFirst) {
  const std::vector<std::uint8_t> key(131, 0xaa);
  const std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  const Digest mac = HmacSha256(
      key, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(DigestToHex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

struct Rfc4231Case {
  int number;
  std::vector<std::uint8_t> key;
  std::string message;
  const char* mac_hex;
};

// RFC 4231 cases 1, 2, 3, 4, 6 and 7: key lengths 20, 4, 20, 25, 131, 131
// (case 5 tests truncated output, which this API does not offer).
std::vector<Rfc4231Case> Rfc4231Cases() {
  std::vector<std::uint8_t> key4;
  for (std::uint8_t b = 1; b <= 25; ++b) key4.push_back(b);
  return {
      {1, std::vector<std::uint8_t>(20, 0x0b), "Hi There",
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {2, {'J', 'e', 'f', 'e'}, "what do ya want for nothing?",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {3, std::vector<std::uint8_t>(20, 0xaa), std::string(50, '\xdd'),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {4, key4, std::string(50, '\xcd'),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {6, std::vector<std::uint8_t>(131, 0xaa),
       "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {7, std::vector<std::uint8_t>(131, 0xaa),
       "This is a test using a larger than block-size key and a larger than "
       "block-size data. The key needs to be hashed before being used by the "
       "HMAC algorithm.",
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
}

TEST(HmacSha256KeyTest, Rfc4231Vectors) {
  for (const Rfc4231Case& c : Rfc4231Cases()) {
    const HmacSha256Key key(c.key);
    EXPECT_EQ(DigestToHex(key.Mac(AsBytes(c.message))), c.mac_hex)
        << "case " << c.number;
    // Mac() is const: a second call on the same key gives the same tag.
    EXPECT_EQ(DigestToHex(key.Mac(AsBytes(c.message))), c.mac_hex)
        << "case " << c.number;
  }
}

TEST(HmacSha256KeyTest, ReusedKeyMatchesOneShot) {
  std::mt19937_64 gen(4231);
  std::vector<std::uint8_t> key_bytes(gen() % 100);
  for (auto& b : key_bytes) b = static_cast<std::uint8_t>(gen());
  const HmacSha256Key key(key_bytes);
  for (int i = 0; i < 1000; ++i) {
    std::vector<std::uint8_t> msg(gen() % 200);
    for (auto& b : msg) b = static_cast<std::uint8_t>(gen());
    ASSERT_EQ(key.Mac(msg), HmacSha256(key_bytes, msg))
        << "message " << i << " length " << msg.size();
  }
}

// --- Compression kernels ----------------------------------------------------

enum class Kernel { kScalar, kShaNi };

// Runs each test under the scalar reference compression and under the
// SHA-NI kernel (skipped on CPUs without SHA extensions).
class Sha256KernelTest : public ::testing::TestWithParam<Kernel> {
 protected:
  void SetUp() override {
    if (GetParam() == Kernel::kShaNi && !internal::ShaNiSha256Available()) {
      GTEST_SKIP() << "CPU lacks SHA extensions (or -msha unsupported)";
    }
    UseKernelUnderTest();
  }
  void TearDown() override { internal::UseScalarSha256ForTest(false); }

  void UseKernelUnderTest() {
    internal::UseScalarSha256ForTest(GetParam() == Kernel::kScalar);
  }
};

TEST_P(Sha256KernelTest, Fips180Vectors) {
  EXPECT_EQ(DigestToHex(Sha256::Hash(std::string("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(DigestToHex(Sha256::Hash(std::string(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      DigestToHex(Sha256::Hash(std::string(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(
      DigestToHex(Sha256::Hash(std::string(
          "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
          "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"))),
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST_P(Sha256KernelTest, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(DigestToHex(h.Finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256KernelTest, RandomSplitsMatchScalarOneShot) {
  std::mt19937_64 gen(180);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<std::uint8_t> data(gen() % 1025);
    for (auto& b : data) b = static_cast<std::uint8_t>(gen());
    internal::UseScalarSha256ForTest(true);
    const Digest want = Sha256::Hash(data);
    UseKernelUnderTest();
    // Up to three cut points, so Update sees partial buffers, runs of
    // whole blocks and empty spans.
    std::vector<std::size_t> cuts{0, data.size()};
    const int extra = static_cast<int>(gen() % 4);
    for (int i = 0; i < extra; ++i) cuts.push_back(gen() % (data.size() + 1));
    std::sort(cuts.begin(), cuts.end());
    Sha256 h;
    const std::span<const std::uint8_t> all(data);
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      h.Update(all.subspan(cuts[i], cuts[i + 1] - cuts[i]));
    }
    ASSERT_EQ(h.Finalize(), want)
        << "trial " << trial << " length " << data.size();
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, Sha256KernelTest,
                         ::testing::Values(Kernel::kScalar, Kernel::kShaNi),
                         [](const ::testing::TestParamInfo<Kernel>& info) {
                           return info.param == Kernel::kScalar ? "Scalar"
                                                                : "ShaNi";
                         });

// Threads race the first use of the kernel dispatch and a test override
// that flips it; both kernels agree, so every digest stays correct.
TEST(Sha256DispatchTest, ConcurrentHashingAcrossKernelSwitch) {
  const std::string abc_hex =
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (DigestToHex(Sha256::Hash(std::string("abc"))) != abc_hex) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (int i = 0; i < 200; ++i) internal::UseScalarSha256ForTest(i % 2 == 0);
  internal::UseScalarSha256ForTest(false);
  stop = true;
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(DeriveKeyTest, DistinctLabelsYieldDistinctKeys) {
  const std::vector<std::uint8_t> material{1, 2, 3, 4};
  EXPECT_NE(DeriveKey(material, "label-a"), DeriveKey(material, "label-b"));
  EXPECT_EQ(DeriveKey(material, "label-a"), DeriveKey(material, "label-a"));
}

}  // namespace
}  // namespace fl::crypto
