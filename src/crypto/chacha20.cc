#include "src/crypto/chacha20.h"

#include <cstring>

#include "src/common/status.h"
#include "src/crypto/chacha20_internal.h"

namespace fl::crypto {
namespace {

using internal::kMaxStrideWords;
using internal::NativeFromLE;

inline std::uint32_t LoadLE32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

// Expands key/nonce into the 16-word base state (counter slot s[12] = 0;
// the kernels substitute per-block counters).
void InitState(const Key256& key, const Nonce96& nonce, std::uint32_t s[16]) {
  s[0] = 0x61707865;
  s[1] = 0x3320646e;
  s[2] = 0x79622d32;
  s[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) s[4 + i] = LoadLE32(key.data() + 4 * i);
  s[12] = 0;
  for (int i = 0; i < 3; ++i) s[13 + i] = LoadLE32(nonce.data() + 4 * i);
}

Nonce96 StreamNonce(std::uint32_t stream_id) {
  Nonce96 nonce{};
  nonce[0] = static_cast<std::uint8_t>(stream_id);
  nonce[1] = static_cast<std::uint8_t>(stream_id >> 8);
  nonce[2] = static_cast<std::uint8_t>(stream_id >> 16);
  nonce[3] = static_cast<std::uint8_t>(stream_id >> 24);
  return nonce;
}

// --- Portable 4-lane kernel -------------------------------------------------
// GCC/Clang vector extensions: one v4u per state word row, so every
// quarter-round statement is one 128-bit op across four blocks. This beats
// relying on the autovectorizer, which (GCC 12, -O2/-O3) refuses or
// pessimizes the rotate-heavy lane loops.
typedef std::uint32_t v4u __attribute__((vector_size(16)));

inline v4u Rotl4(v4u x, int n) { return (x << n) | (x >> (32 - n)); }

inline void QuarterRound4(v4u& a, v4u& b, v4u& c, v4u& d) {
  a += b; d ^= a; d = Rotl4(d, 16);
  c += d; b ^= c; b = Rotl4(b, 12);
  a += b; d ^= a; d = Rotl4(d, 8);
  c += d; b ^= c; b = Rotl4(b, 7);
}

void BlocksX4(const std::uint32_t s[16], std::uint32_t counter,
              std::uint32_t* out) {
  v4u x[16];
  for (int w = 0; w < 16; ++w) x[w] = v4u{s[w], s[w], s[w], s[w]};
  const v4u ctr = v4u{counter, counter + 1, counter + 2, counter + 3};
  x[12] = ctr;
  for (int round = 0; round < 10; ++round) {
    QuarterRound4(x[0], x[4], x[8], x[12]);
    QuarterRound4(x[1], x[5], x[9], x[13]);
    QuarterRound4(x[2], x[6], x[10], x[14]);
    QuarterRound4(x[3], x[7], x[11], x[15]);
    QuarterRound4(x[0], x[5], x[10], x[15]);
    QuarterRound4(x[1], x[6], x[11], x[12]);
    QuarterRound4(x[2], x[7], x[8], x[13]);
    QuarterRound4(x[3], x[4], x[9], x[14]);
  }
  for (int w = 0; w < 16; ++w) {
    const v4u add = (w == 12) ? ctr : v4u{s[w], s[w], s[w], s[w]};
    const v4u v = x[w] + add;
    for (int l = 0; l < 4; ++l) out[l * 16 + w] = NativeFromLE(v[l]);
  }
}

// acc[i] += ks[i] (Sign +1) or -= (Sign -1) for i < n, four words per
// vector op: at -O2 GCC leaves this variable-length loop scalar, and it
// then costs about a third as much as the keystream itself.
template <int Sign>
inline void AccumulateWords(std::uint32_t* __restrict acc,
                            const std::uint32_t* __restrict ks,
                            std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    v4u a, k;
    std::memcpy(&a, acc + i, sizeof(a));
    std::memcpy(&k, ks + i, sizeof(k));
    a = Sign > 0 ? a + k : a - k;
    std::memcpy(acc + i, &a, sizeof(a));
  }
  for (; i < n; ++i) acc[i] = Sign > 0 ? acc[i] + ks[i] : acc[i] - ks[i];
}

// --- Kernel dispatch --------------------------------------------------------

struct Dispatch {
  internal::BlocksFn blocks;
  std::size_t stride_blocks;
  std::size_t stride_words;
};

Dispatch Resolve() {
#if defined(FL_CHACHA20_AVX2)
  if (__builtin_cpu_supports("avx2")) {
    return {internal::BlocksX8Avx2, internal::kAvx2StrideBlocks,
            internal::kAvx2StrideBlocks * 16};
  }
#endif
  return {BlocksX4, internal::kGenericStrideBlocks,
          internal::kGenericStrideBlocks * 16};
}

Dispatch& ActiveDispatch() {
  static Dispatch d = Resolve();
  return d;
}

}  // namespace

namespace internal {

std::size_t ActiveStrideBlocks() { return ActiveDispatch().stride_blocks; }

void UseGenericKernelForTest(bool generic) {
  ActiveDispatch() =
      generic ? Dispatch{BlocksX4, kGenericStrideBlocks,
                         kGenericStrideBlocks * 16}
              : Resolve();
}

}  // namespace internal

void ChaCha20Xor(const Key256& key, const Nonce96& nonce,
                 std::uint32_t initial_counter, std::span<std::uint8_t> data) {
  const Dispatch d = ActiveDispatch();
  std::uint32_t s[16];
  InitState(key, nonce, s);
  std::uint32_t ks[kMaxStrideWords];
  std::uint32_t counter = initial_counter;
  std::size_t pos = 0;
  while (pos < data.size()) {
    d.blocks(s, counter, ks);
    counter += static_cast<std::uint32_t>(d.stride_blocks);
    const std::size_t take = std::min<std::size_t>(
        d.stride_words * sizeof(std::uint32_t), data.size() - pos);
    // ks holds native-mapped LE words: its raw bytes ARE the RFC keystream.
    const auto* ksb = reinterpret_cast<const std::uint8_t*>(ks);
    std::uint8_t* __restrict p = data.data() + pos;
    for (std::size_t i = 0; i < take; ++i) p[i] ^= ksb[i];
    pos += take;
  }
}

std::vector<std::uint32_t> PrgWords(const Key256& seed, std::size_t count,
                                    std::uint32_t stream_id) {
  std::vector<std::uint32_t> out(count);
  if (count == 0) return out;
  const Dispatch d = ActiveDispatch();
  std::uint32_t s[16];
  InitState(seed, StreamNonce(stream_id), s);
  std::uint32_t ks[kMaxStrideWords];
  std::uint32_t counter = 0;
  std::size_t pos = 0;
  while (pos < count) {
    d.blocks(s, counter, ks);
    counter += static_cast<std::uint32_t>(d.stride_blocks);
    const std::size_t take = std::min(d.stride_words, count - pos);
    std::memcpy(out.data() + pos, ks, take * sizeof(std::uint32_t));
    pos += take;
  }
  return out;
}

void PrgAccumulate(const Key256& seed, std::uint32_t stream_id, int sign,
                   std::span<std::uint32_t> acc) {
  if (acc.empty()) return;
  const Dispatch d = ActiveDispatch();
  std::uint32_t s[16];
  InitState(seed, StreamNonce(stream_id), s);
  std::uint32_t ks[kMaxStrideWords];
  std::uint32_t counter = 0;
  std::size_t pos = 0;
  const std::size_t n = acc.size();
  while (pos < n) {
    d.blocks(s, counter, ks);
    counter += static_cast<std::uint32_t>(d.stride_blocks);
    const std::size_t take = std::min(d.stride_words, n - pos);
    if (sign >= 0) {
      AccumulateWords<+1>(acc.data() + pos, ks, take);
    } else {
      AccumulateWords<-1>(acc.data() + pos, ks, take);
    }
    pos += take;
  }
}

void AddWords(std::span<std::uint32_t> acc, std::span<const std::uint32_t> in,
              std::uint32_t mask) {
  FL_CHECK(in.empty() || in.size() == acc.size());
  std::uint32_t* __restrict a = acc.data();
  const std::size_t n = acc.size();
  const v4u m = {mask, mask, mask, mask};
  std::size_t i = 0;
  if (in.empty()) {
    for (; i + 4 <= n; i += 4) {
      v4u v;
      std::memcpy(&v, a + i, sizeof(v));
      v &= m;
      std::memcpy(a + i, &v, sizeof(v));
    }
    for (; i < n; ++i) a[i] &= mask;
    return;
  }
  const std::uint32_t* __restrict b = in.data();
  for (; i + 4 <= n; i += 4) {
    v4u v, w;
    std::memcpy(&v, a + i, sizeof(v));
    std::memcpy(&w, b + i, sizeof(w));
    v = (v + w) & m;
    std::memcpy(a + i, &v, sizeof(v));
  }
  for (; i < n; ++i) a[i] = (a[i] + b[i]) & mask;
}

// --- Scalar reference -------------------------------------------------------

namespace {

inline std::uint32_t RotlRef(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

inline void QuarterRoundRef(std::uint32_t& a, std::uint32_t& b,
                            std::uint32_t& c, std::uint32_t& d) {
  a += b; d ^= a; d = RotlRef(d, 16);
  c += d; b ^= c; b = RotlRef(b, 12);
  a += b; d ^= a; d = RotlRef(d, 8);
  c += d; b ^= c; b = RotlRef(b, 7);
}

}  // namespace

void ChaCha20BlockRef(const Key256& key, const Nonce96& nonce,
                      std::uint32_t counter, std::uint8_t out[64]) {
  std::uint32_t s[16];
  InitState(key, nonce, s);
  s[12] = counter;
  std::uint32_t w[16];
  std::memcpy(w, s, sizeof(w));
  for (int round = 0; round < 10; ++round) {
    QuarterRoundRef(w[0], w[4], w[8], w[12]);
    QuarterRoundRef(w[1], w[5], w[9], w[13]);
    QuarterRoundRef(w[2], w[6], w[10], w[14]);
    QuarterRoundRef(w[3], w[7], w[11], w[15]);
    QuarterRoundRef(w[0], w[5], w[10], w[15]);
    QuarterRoundRef(w[1], w[6], w[11], w[12]);
    QuarterRoundRef(w[2], w[7], w[8], w[13]);
    QuarterRoundRef(w[3], w[4], w[9], w[14]);
  }
  for (int i = 0; i < 16; ++i) {
    const std::uint32_t v = w[i] + s[i];
    out[4 * i] = static_cast<std::uint8_t>(v);
    out[4 * i + 1] = static_cast<std::uint8_t>(v >> 8);
    out[4 * i + 2] = static_cast<std::uint8_t>(v >> 16);
    out[4 * i + 3] = static_cast<std::uint8_t>(v >> 24);
  }
}

std::vector<std::uint32_t> PrgWordsRef(const Key256& seed, std::size_t count,
                                       std::uint32_t stream_id) {
  // Deliberately the pre-fast-path shape: zero-filled vector, one 64-byte
  // block per call, byte-level XOR over the buffer, native word load.
  const Nonce96 nonce = StreamNonce(stream_id);
  std::vector<std::uint32_t> out(count, 0);
  if (count == 0) return out;
  auto* bytes = reinterpret_cast<std::uint8_t*>(out.data());
  const std::size_t total = count * sizeof(std::uint32_t);
  std::uint8_t ks[64];
  std::uint32_t counter = 0;
  std::size_t pos = 0;
  while (pos < total) {
    ChaCha20BlockRef(seed, nonce, counter++, ks);
    const std::size_t take = std::min<std::size_t>(64, total - pos);
    for (std::size_t i = 0; i < take; ++i) bytes[pos + i] ^= ks[i];
    pos += take;
  }
  return out;
}

}  // namespace fl::crypto
