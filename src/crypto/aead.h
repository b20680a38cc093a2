// Authenticated encryption: ChaCha20 + HMAC-SHA256, encrypt-then-MAC.
//
// Secure Aggregation clients exchange Shamir shares through the server; the
// shares are encrypted pairwise so the server (honest-but-curious, Sec. 6)
// relays them without learning their contents.
#pragma once

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/sha256.h"

namespace fl::crypto {

// Ciphertext layout: 12-byte nonce | body | 32-byte tag.
constexpr std::size_t AeadCiphertextBytes(std::size_t plaintext_bytes) {
  return 12 + plaintext_bytes + 32;
}

Bytes AeadEncrypt(const Key256& key, const Nonce96& nonce,
                  std::span<const std::uint8_t> plaintext);

Result<Bytes> AeadDecrypt(const Key256& key,
                          std::span<const std::uint8_t> ciphertext);

}  // namespace fl::crypto
