#include "src/device/attestation.h"

#include <gtest/gtest.h>

namespace fl::device {
namespace {

TEST(AttestationTest, GenuineTokenVerifies) {
  AttestationAuthority authority(12345);
  const auto token = authority.Issue(DeviceId{7}, 999);
  EXPECT_TRUE(authority.Verify(token));
}

TEST(AttestationTest, ForgedTokenRejected) {
  AttestationAuthority authority(12345);
  const auto forged = authority.Forge(DeviceId{7}, 999, 54321);
  EXPECT_FALSE(authority.Verify(forged));
}

TEST(AttestationTest, TokenBoundToDevice) {
  AttestationAuthority authority(1);
  auto token = authority.Issue(DeviceId{7}, 999);
  token.device = DeviceId{8};  // replay under a different identity
  EXPECT_FALSE(authority.Verify(token));
}

TEST(AttestationTest, TokenBoundToNonce) {
  AttestationAuthority authority(1);
  auto token = authority.Issue(DeviceId{7}, 999);
  token.nonce = 1000;
  EXPECT_FALSE(authority.Verify(token));
}

TEST(AttestationTest, DifferentAuthoritiesDisagree) {
  AttestationAuthority a(1), b(2);
  const auto token = a.Issue(DeviceId{7}, 1);
  EXPECT_FALSE(b.Verify(token));
}

TEST(AttestationTest, LuckyForgeryRequiresExactSecret) {
  AttestationAuthority authority(0xABCDEF);
  // Forging with the true secret works (that is the defended boundary:
  // compromise of the platform key, out of scope per Sec. 3).
  const auto forged_right = authority.Forge(DeviceId{3}, 5, 0xABCDEF);
  EXPECT_TRUE(authority.Verify(forged_right));
  const auto forged_close = authority.Forge(DeviceId{3}, 5, 0xABCDEE);
  EXPECT_FALSE(authority.Verify(forged_close));
}

TEST(AttestationTest, TokenBytesArePinned) {
  // HMAC-SHA256 under the little-endian secret over little-endian
  // (device, nonce). Pinned so kernel or key-caching changes cannot
  // silently change the tokens a fleet issues.
  AttestationAuthority authority(12345);
  const auto token = authority.Issue(DeviceId{42}, 0x1234);
  EXPECT_EQ(crypto::DigestToHex(token.mac),
            "5438b4ce7120e258f286cf0c1e9609a04e6d9f5805667efa39e5c741b0b697ac");
  EXPECT_EQ(authority.Forge(DeviceId{42}, 0x1234, 12345).mac, token.mac);
}

}  // namespace
}  // namespace fl::device
