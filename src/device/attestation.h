// Remote attestation (Sec. 3): "we need to protect against attacks to
// influence the FL result from non-genuine devices. We do so by using
// Android's remote attestation mechanism ... which helps to ensure that only
// genuine devices and applications participate in FL."
//
// SUBSTITUTION: SafetyNet is modelled as an HMAC issued by a platform
// attestation authority whose key genuine devices can exercise (via the
// "platform") and compromised devices cannot. The server verifies tokens
// against the authority. This preserves the check-in control flow and the
// accept/reject behaviour under data-poisoning attempts.
#pragma once

#include <cstdint>
#include <string>

#include "src/common/id.h"
#include "src/crypto/sha256.h"

namespace fl::device {

struct AttestationToken {
  DeviceId device;
  std::uint64_t nonce = 0;
  crypto::Digest mac{};
};

class AttestationAuthority {
 public:
  explicit AttestationAuthority(std::uint64_t platform_secret);

  // Issued by the platform on genuine devices. Non-genuine devices cannot
  // call this; they forge tokens with a wrong secret.
  AttestationToken Issue(DeviceId device, std::uint64_t nonce) const;

  // A compromised device's best effort: a token under a guessed secret.
  AttestationToken Forge(DeviceId device, std::uint64_t nonce,
                         std::uint64_t wrong_secret) const;

  bool Verify(const AttestationToken& token) const;

 private:
  // The platform secret as an HMAC key with its pads absorbed once, so
  // every Issue and Verify on the check-in path skips the key schedule.
  crypto::HmacSha256Key key_;
};

}  // namespace fl::device
