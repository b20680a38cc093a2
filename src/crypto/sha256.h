// SHA-256 and HMAC-SHA256 (FIPS 180-4 / RFC 2104), implemented from scratch.
// Used for key derivation and message authentication inside Secure
// Aggregation (Sec. 6) and for the check-in attestation tokens (Sec. 3).
// Compression runs on SHA-NI where the CPU has it, else on the scalar
// reference (sha256.cc); both give identical digests.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "src/common/bytes.h"

namespace fl::crypto {

using Digest = std::array<std::uint8_t, 32>;

class Sha256 {
 public:
  Sha256();
  void Update(std::span<const std::uint8_t> data);
  void Update(const std::string& s) {
    Update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }
  Digest Finalize();

  static Digest Hash(std::span<const std::uint8_t> data);
  static Digest Hash(const std::string& s);

 private:
  // Folds whole 64-byte blocks into state_ with the active kernel.
  void Compress(const std::uint8_t* blocks, std::size_t nblocks);
  std::array<std::uint32_t, 8> state_;
  std::uint64_t bit_count_ = 0;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
};

// An HMAC-SHA256 key with its pads absorbed: the two midstates after
// key^ipad and key^opad. Mac() then costs two compressions for a message of
// up to 55 bytes, where the one-shot form pays four. Reuse one per key.
class HmacSha256Key {
 public:
  explicit HmacSha256Key(std::span<const std::uint8_t> key);
  Digest Mac(std::span<const std::uint8_t> message) const;

 private:
  Sha256 inner_;
  Sha256 outer_;
};

// One-shot HMAC: HmacSha256Key(key).Mac(message).
Digest HmacSha256(std::span<const std::uint8_t> key,
                  std::span<const std::uint8_t> message);

// HKDF-style expansion: derive a labelled subkey from input key material.
Digest DeriveKey(std::span<const std::uint8_t> key_material,
                 std::string_view label);

std::string DigestToHex(const Digest& d);

namespace internal {
// True when the SHA-NI kernel is compiled in and the CPU reports SHA
// extensions, i.e. when the runtime dispatch picks it.
bool ShaNiSha256Available();
// Forces the scalar reference compression (true) or re-resolves by CPU
// (false), so SHA-NI hosts can exercise both code paths. Test-only.
void UseScalarSha256ForTest(bool scalar);
}  // namespace internal

}  // namespace fl::crypto
