#include "src/crypto/aead.h"

#include <cstring>

namespace fl::crypto {
namespace {

Key256 MacKey(const Key256& enc_key) {
  const Digest d = DeriveKey(
      std::span<const std::uint8_t>(enc_key.data(), enc_key.size()),
      "aead-mac-key");
  Key256 k;
  std::memcpy(k.data(), d.data(), k.size());
  return k;
}

}  // namespace

Bytes AeadEncrypt(const Key256& key, const Nonce96& nonce,
                  std::span<const std::uint8_t> plaintext) {
  Bytes out;
  out.reserve(AeadCiphertextBytes(plaintext.size()));
  out.insert(out.end(), nonce.begin(), nonce.end());
  out.insert(out.end(), plaintext.begin(), plaintext.end());
  ChaCha20Xor(key, nonce, 1,
              std::span<std::uint8_t>(out.data() + nonce.size(),
                                      plaintext.size()));
  const Key256 mac_key = MacKey(key);
  const Digest tag = HmacSha256(
      std::span<const std::uint8_t>(mac_key.data(), mac_key.size()),
      std::span<const std::uint8_t>(out.data(), out.size()));
  out.insert(out.end(), tag.begin(), tag.end());
  return out;
}

Result<Bytes> AeadDecrypt(const Key256& key,
                          std::span<const std::uint8_t> ciphertext) {
  if (ciphertext.size() < AeadCiphertextBytes(0)) {
    return DataLossError("AEAD ciphertext too short");
  }
  const std::size_t body_end = ciphertext.size() - 32;
  const Key256 mac_key = MacKey(key);
  const Digest expected = HmacSha256(
      std::span<const std::uint8_t>(mac_key.data(), mac_key.size()),
      ciphertext.first(body_end));
  // Constant-time comparison.
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    diff |= expected[i] ^ ciphertext[body_end + i];
  }
  if (diff != 0) {
    return PermissionDeniedError("AEAD tag mismatch");
  }
  Nonce96 nonce;
  std::memcpy(nonce.data(), ciphertext.data(), nonce.size());
  Bytes plain(ciphertext.begin() + 12,
              ciphertext.begin() + static_cast<std::ptrdiff_t>(body_end));
  ChaCha20Xor(key, nonce, 1, std::span<std::uint8_t>(plain));
  return plain;
}

}  // namespace fl::crypto
