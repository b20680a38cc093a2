// Finite-field Diffie–Hellman key agreement over a 61-bit safe prime.
//
// SUBSTITUTION NOTE (documented in DESIGN.md): the production Secure
// Aggregation protocol of Bonawitz et al. (CCS 2017) uses elliptic-curve DH.
// We reproduce the protocol *structure* — per-client keypairs, pairwise
// agreed secrets expanded by a PRG — over a small prime field that is
// adequate for simulation and testing but NOT cryptographically strong.
// Every derived secret passes through SHA-256 before use as key material.
#pragma once

#include <cstdint>
#include <string_view>

#include "src/crypto/chacha20.h"
#include "src/crypto/sha256.h"

namespace fl::crypto {

// p = 2305843009213693951 = 2^61 - 1 (Mersenne prime), generator 3.
inline constexpr std::uint64_t kDhPrime = 2305843009213693951ULL;
inline constexpr std::uint64_t kDhGenerator = 3;

struct DhKeyPair {
  std::uint64_t secret = 0;  // x
  std::uint64_t public_key = 0;  // g^x mod p
};

std::uint64_t MulMod(std::uint64_t a, std::uint64_t b, std::uint64_t m);
std::uint64_t PowMod(std::uint64_t base, std::uint64_t exp, std::uint64_t m);

// Derives a keypair from 32 bytes of randomness.
DhKeyPair GenerateKeyPair(const Key256& randomness);

// Computes the shared secret (peer_public)^secret and hashes it into a
// 256-bit symmetric key, bound to `label` (e.g. "secagg-pairwise-mask").
Key256 Agree(const DhKeyPair& mine, std::uint64_t peer_public,
             std::string_view label);

}  // namespace fl::crypto
