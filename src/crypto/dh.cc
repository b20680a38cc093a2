#include "src/crypto/dh.h"

#include <cstring>

namespace fl::crypto {

std::uint64_t MulMod(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  const __uint128_t prod = static_cast<__uint128_t>(a) * b;
  if (m == kDhPrime) {
    // Mersenne reduction, 2^61 = 1 (mod p): fold the bits above 61 onto the
    // low 61. Operands may be any 64-bit values, so the first fold can
    // reach 68 bits; a second fold brings it under 2p.
    const __uint128_t once = (prod & kDhPrime) + (prod >> 61);
    std::uint64_t r = static_cast<std::uint64_t>(once & kDhPrime) +
                      static_cast<std::uint64_t>(once >> 61);
    if (r >= kDhPrime) r -= kDhPrime;
    return r;
  }
  return static_cast<std::uint64_t>(prod % m);
}

std::uint64_t PowMod(std::uint64_t base, std::uint64_t exp, std::uint64_t m) {
  std::uint64_t result = 1;
  std::uint64_t b = base % m;
  while (exp > 0) {
    if (exp & 1) result = MulMod(result, b, m);
    b = MulMod(b, b, m);
    exp >>= 1;
  }
  return result;
}

DhKeyPair GenerateKeyPair(const Key256& randomness) {
  std::uint64_t x;
  std::memcpy(&x, randomness.data(), sizeof(x));
  // Exponent in [2, p-2].
  x = 2 + (x % (kDhPrime - 3));
  return DhKeyPair{x, PowMod(kDhGenerator, x, kDhPrime)};
}

Key256 Agree(const DhKeyPair& mine, std::uint64_t peer_public,
             std::string_view label) {
  const std::uint64_t shared = PowMod(peer_public, mine.secret, kDhPrime);
  std::uint8_t buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<std::uint8_t>(shared >> (8 * i));
  }
  const Digest d =
      DeriveKey(std::span<const std::uint8_t>(buf, sizeof(buf)), label);
  Key256 key;
  std::memcpy(key.data(), d.data(), key.size());
  return key;
}

}  // namespace fl::crypto
