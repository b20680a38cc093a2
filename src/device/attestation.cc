#include "src/device/attestation.h"

#include <array>

namespace fl::device {
namespace {

// Little-endian secret bytes: the HMAC key.
std::array<std::uint8_t, 8> KeyBytes(std::uint64_t secret) {
  std::array<std::uint8_t, 8> key;
  for (int i = 0; i < 8; ++i) {
    key[i] = static_cast<std::uint8_t>(secret >> (8 * i));
  }
  return key;
}

// Little-endian (device, nonce): the message a token authenticates.
std::array<std::uint8_t, 16> Message(DeviceId device, std::uint64_t nonce) {
  std::array<std::uint8_t, 16> msg;
  for (int i = 0; i < 8; ++i) {
    msg[i] = static_cast<std::uint8_t>(device.value >> (8 * i));
    msg[8 + i] = static_cast<std::uint8_t>(nonce >> (8 * i));
  }
  return msg;
}

}  // namespace

AttestationAuthority::AttestationAuthority(std::uint64_t platform_secret)
    : key_(KeyBytes(platform_secret)) {}

AttestationToken AttestationAuthority::Issue(DeviceId device,
                                             std::uint64_t nonce) const {
  return AttestationToken{device, nonce, key_.Mac(Message(device, nonce))};
}

AttestationToken AttestationAuthority::Forge(DeviceId device,
                                             std::uint64_t nonce,
                                             std::uint64_t wrong_secret) const {
  return AttestationToken{
      device, nonce,
      crypto::HmacSha256(KeyBytes(wrong_secret), Message(device, nonce))};
}

bool AttestationAuthority::Verify(const AttestationToken& token) const {
  const crypto::Digest expected = key_.Mac(Message(token.device, token.nonce));
  // Constant-time comparison.
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    diff |= expected[i] ^ token.mac[i];
  }
  return diff == 0;
}

}  // namespace fl::device
