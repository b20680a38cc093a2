// ChaCha20 stream cipher (RFC 8439 core) used as
//  (a) the PRG that expands Secure Aggregation mask seeds into full-length
//      masking vectors, and
//  (b) the cipher half of the authenticated-encryption scheme protecting
//      Shamir shares in transit (Sec. 6).
//
// The production path is a state-parallel multi-block kernel: several
// blocks' states advance together in word-lane layout so every
// quarter-round operation is one SIMD op per word row, and keystream is
// produced as 32-bit words with no byte-at-a-time serialization. Two
// kernels exist — a portable 4-lane kernel (GCC/Clang vector extensions,
// 128-bit ops) and an 8-lane AVX2 kernel in chacha20_avx2.cc — selected
// once at startup by CPU capability; both are bit-exact against the
// retained one-block scalar reference (ChaCha20BlockRef / PrgWordsRef),
// which tests and the scaling bench use as the oracle.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/bytes.h"

namespace fl::crypto {

using Key256 = std::array<std::uint8_t, 32>;
using Nonce96 = std::array<std::uint8_t, 12>;

// Generates the ChaCha20 keystream and XORs it over `data` in place.
void ChaCha20Xor(const Key256& key, const Nonce96& nonce,
                 std::uint32_t initial_counter, std::span<std::uint8_t> data);

// Deterministic PRG over the keystream: expands a 32-byte seed into `count`
// uniform 32-bit words (the additive masks of Secure Aggregation). Thin
// wrapper over the streaming kernel for callers that need a materialized
// mask; the SecAgg hot paths use PrgAccumulate instead.
std::vector<std::uint32_t> PrgWords(const Key256& seed, std::size_t count,
                                    std::uint32_t stream_id = 0);

// Fused mask-accumulate: streams PRG(seed, stream_id) keystream words
// straight into acc[i] += ks[i] (sign >= 0) or acc[i] -= ks[i] (sign < 0)
// from a small stack buffer — no mask vector is ever materialized, zeroed,
// or re-walked. Bit-exact with applying PrgWords() word-by-word (u32
// arithmetic wraps mod 2^32).
void PrgAccumulate(const Key256& seed, std::uint32_t stream_id, int sign,
                   std::span<std::uint32_t> acc);

// acc[i] = (acc[i] + in[i]) & mask for every i, in wrapping u32 arithmetic,
// four words per vector op (GCC -O2 leaves the plain loop scalar). `in` is
// as long as `acc`, or empty to only reduce `acc` by `mask`. The SecAgg
// shard merges, masked-input sums and ring reductions run on it.
void AddWords(std::span<std::uint32_t> acc, std::span<const std::uint32_t> in,
              std::uint32_t mask = 0xFFFFFFFFu);

// --- Scalar reference implementations (bit-exactness oracles) -------------
// One-block RFC 8439 core with byte-serialized output — the
// pre-fast-path implementation, retained verbatim. Tests pin the
// multi-block kernels against these; the scaling bench uses them as the
// "scalar baseline" side of its speedup gate. Not for production callers.
void ChaCha20BlockRef(const Key256& key, const Nonce96& nonce,
                      std::uint32_t counter, std::uint8_t out[64]);
std::vector<std::uint32_t> PrgWordsRef(const Key256& seed, std::size_t count,
                                       std::uint32_t stream_id = 0);

namespace internal {
// Blocks per invocation of the active multi-block kernel (4 portable,
// 8 AVX2). Tests use it to pin equivalence across stride boundaries,
// including block-counter wraparound mid-stride.
std::size_t ActiveStrideBlocks();
// Forces the portable 4-lane kernel (true) or re-resolves by CPU (false),
// so AVX2 hosts can exercise both code paths. Test-only; not thread-safe
// against concurrent keystream generation.
void UseGenericKernelForTest(bool generic);
}  // namespace internal

}  // namespace fl::crypto
