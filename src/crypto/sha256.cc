#include "src/crypto/sha256.h"

#include <atomic>
#include <cstring>

#include "src/crypto/sha256_internal.h"

namespace fl::crypto {
namespace {

inline std::uint32_t Rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

// The scalar compression: the reference every other kernel is pinned
// against, and the fallback on CPUs without SHA extensions.
void ScalarBlocks(std::uint32_t state[8], const std::uint8_t* data,
                  std::size_t nblocks) {
  using internal::kSha256K;
  for (; nblocks > 0; --nblocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[i * 4]) << 24) |
             (static_cast<std::uint32_t>(data[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(data[i * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(data[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kSha256K[i] + w[i];
      const std::uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

// --- Kernel dispatch --------------------------------------------------------

internal::Sha256BlocksFn Resolve() {
#if defined(FL_SHA256_SHANI)
  if (__builtin_cpu_supports("sha")) return internal::Sha256BlocksShaNi;
#endif
  return ScalarBlocks;
}

// Resolved once on first use; an atomic so the test override cannot race
// with hashing on other threads.
std::atomic<internal::Sha256BlocksFn>& ActiveBlocks() {
  static std::atomic<internal::Sha256BlocksFn> fn{Resolve()};
  return fn;
}

}  // namespace

namespace internal {

bool ShaNiSha256Available() { return Resolve() != ScalarBlocks; }

void UseScalarSha256ForTest(bool scalar) {
  ActiveBlocks().store(scalar ? ScalarBlocks : Resolve(),
                       std::memory_order_relaxed);
}

}  // namespace internal

Sha256::Sha256() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
}

void Sha256::Compress(const std::uint8_t* blocks, std::size_t nblocks) {
  ActiveBlocks().load(std::memory_order_relaxed)(state_.data(), blocks,
                                                  nblocks);
}

void Sha256::Update(std::span<const std::uint8_t> data) {
  bit_count_ += static_cast<std::uint64_t>(data.size()) * 8;
  std::size_t pos = 0;
  if (buffer_len_ > 0) {
    const std::size_t need = 64 - buffer_len_;
    const std::size_t take = std::min(need, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    pos = take;
    if (buffer_len_ == 64) {
      Compress(buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t whole = (data.size() - pos) / 64;
  if (whole > 0) {
    Compress(data.data() + pos, whole);
    pos += whole * 64;
  }
  if (pos < data.size()) {
    std::memcpy(buffer_.data(), data.data() + pos, data.size() - pos);
    buffer_len_ = data.size() - pos;
  }
}

Digest Sha256::Finalize() {
  // Append 0x80, pad with zeros, append 64-bit big-endian length.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    Compress(buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_count_ >> (8 * (7 - i)));
  }
  Compress(buffer_.data(), 1);
  buffer_len_ = 0;
  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest Sha256::Hash(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.Update(data);
  return h.Finalize();
}

Digest Sha256::Hash(const std::string& s) {
  Sha256 h;
  h.Update(s);
  return h.Finalize();
}

HmacSha256Key::HmacSha256Key(std::span<const std::uint8_t> key) {
  std::array<std::uint8_t, 64> k{};
  if (key.size() > 64) {
    const Digest d = Sha256::Hash(key);
    std::memcpy(k.data(), d.data(), d.size());
  } else if (!key.empty()) {
    std::memcpy(k.data(), key.data(), key.size());
  }
  std::array<std::uint8_t, 64> ipad, opad;
  for (int i = 0; i < 64; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  inner_.Update(std::span<const std::uint8_t>(ipad));
  outer_.Update(std::span<const std::uint8_t>(opad));
}

Digest HmacSha256Key::Mac(std::span<const std::uint8_t> message) const {
  Sha256 inner = inner_;
  inner.Update(message);
  const Digest inner_digest = inner.Finalize();
  Sha256 outer = outer_;
  outer.Update(std::span<const std::uint8_t>(inner_digest));
  return outer.Finalize();
}

Digest HmacSha256(std::span<const std::uint8_t> key,
                  std::span<const std::uint8_t> message) {
  return HmacSha256Key(key).Mac(message);
}

Digest DeriveKey(std::span<const std::uint8_t> key_material,
                 std::string_view label) {
  return HmacSha256(key_material,
                    std::span<const std::uint8_t>(
                        reinterpret_cast<const std::uint8_t*>(label.data()),
                        label.size()));
}

std::string DigestToHex(const Digest& d) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (std::uint8_t b : d) {
    out.push_back(hex[b >> 4]);
    out.push_back(hex[b & 0xF]);
  }
  return out;
}

}  // namespace fl::crypto
