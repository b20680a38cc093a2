#include "src/crypto/dh.h"

#include <gtest/gtest.h>

#include <random>

namespace fl::crypto {
namespace {

Key256 SeedKey(std::uint8_t fill) {
  Key256 k;
  k.fill(fill);
  return k;
}

TEST(ModArithTest, MulModMatchesSmallCases) {
  EXPECT_EQ(MulMod(3, 4, 7), 5u);
  EXPECT_EQ(MulMod(0, 99, 7), 0u);
  // Large operands that would overflow 64-bit multiplication.
  const std::uint64_t big = kDhPrime - 1;
  EXPECT_EQ(MulMod(big, big, kDhPrime), 1u);  // (-1)^2 = 1 mod p
}

TEST(ModArithTest, MersenneMulModMatchesWideRemainder) {
  const auto ref = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<std::uint64_t>((static_cast<__uint128_t>(a) * b) %
                                      kDhPrime);
  };
  const std::uint64_t edges[] = {0,           1,          kDhPrime - 1,
                                 kDhPrime,    1ULL << 61, ~0ULL};
  for (std::uint64_t a : edges) {
    for (std::uint64_t b : edges) {
      EXPECT_EQ(MulMod(a, b, kDhPrime), ref(a, b)) << a << " * " << b;
    }
  }
  std::mt19937_64 gen(61);
  for (int i = 0; i < 100000; ++i) {
    // Alternate full 64-bit operands with reduced ones, the shape every
    // DH and Shamir caller passes.
    std::uint64_t a = gen(), b = gen();
    if (i % 2 == 0) {
      a %= kDhPrime;
      b %= kDhPrime;
    }
    ASSERT_EQ(MulMod(a, b, kDhPrime), ref(a, b)) << a << " * " << b;
  }
}

TEST(ModArithTest, PowModKnownValues) {
  EXPECT_EQ(PowMod(2, 10, 1000), 24u);
  EXPECT_EQ(PowMod(5, 0, 7), 1u);
  // Fermat's little theorem: a^(p-1) = 1 mod p.
  EXPECT_EQ(PowMod(3, kDhPrime - 1, kDhPrime), 1u);
  EXPECT_EQ(PowMod(123456789, kDhPrime - 1, kDhPrime), 1u);
}

TEST(DhTest, KeyPairDeterministicFromRandomness) {
  const DhKeyPair a = GenerateKeyPair(SeedKey(1));
  const DhKeyPair b = GenerateKeyPair(SeedKey(1));
  EXPECT_EQ(a.secret, b.secret);
  EXPECT_EQ(a.public_key, b.public_key);
  const DhKeyPair c = GenerateKeyPair(SeedKey(2));
  EXPECT_NE(a.public_key, c.public_key);
}

TEST(DhTest, PublicKeyMatchesExponentiation) {
  const DhKeyPair kp = GenerateKeyPair(SeedKey(3));
  EXPECT_EQ(kp.public_key, PowMod(kDhGenerator, kp.secret, kDhPrime));
}

TEST(DhTest, AgreementIsSymmetric) {
  const DhKeyPair alice = GenerateKeyPair(SeedKey(4));
  const DhKeyPair bob = GenerateKeyPair(SeedKey(5));
  const Key256 ab = Agree(alice, bob.public_key, "test");
  const Key256 ba = Agree(bob, alice.public_key, "test");
  EXPECT_EQ(ab, ba);
}

TEST(DhTest, DifferentLabelsYieldDifferentKeys) {
  const DhKeyPair alice = GenerateKeyPair(SeedKey(6));
  const DhKeyPair bob = GenerateKeyPair(SeedKey(7));
  EXPECT_NE(Agree(alice, bob.public_key, "mask"),
            Agree(alice, bob.public_key, "transport"));
}

TEST(DhTest, DifferentPeersYieldDifferentKeys) {
  const DhKeyPair alice = GenerateKeyPair(SeedKey(8));
  const DhKeyPair bob = GenerateKeyPair(SeedKey(9));
  const DhKeyPair carol = GenerateKeyPair(SeedKey(10));
  EXPECT_NE(Agree(alice, bob.public_key, "x"),
            Agree(alice, carol.public_key, "x"));
}

TEST(DhTest, PairwiseAgreementAcrossCohort) {
  // Every pair in a cohort agrees symmetrically — the property SecAgg's
  // pairwise masks cancel through.
  std::vector<DhKeyPair> cohort;
  for (std::uint8_t i = 0; i < 8; ++i) {
    cohort.push_back(GenerateKeyPair(SeedKey(static_cast<std::uint8_t>(20 + i))));
  }
  for (std::size_t u = 0; u < cohort.size(); ++u) {
    for (std::size_t v = u + 1; v < cohort.size(); ++v) {
      EXPECT_EQ(Agree(cohort[u], cohort[v].public_key, "m"),
                Agree(cohort[v], cohort[u].public_key, "m"));
    }
  }
}

}  // namespace
}  // namespace fl::crypto
