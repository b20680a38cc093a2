// 8-lane ChaCha20 kernel, compiled with -mavx2 (see src/crypto/CMakeLists).
// Only reached through the runtime dispatch in chacha20.cc after
// __builtin_cpu_supports("avx2") — nothing here executes on older CPUs.
// Bit-exact with the 4-lane portable kernel and the scalar reference: the
// same per-block counters, just eight of them per invocation.
//
// Register x[w] holds state word w of eight consecutive blocks (one block
// per 32-bit lane). The 16- and 8-bit rotates are byte permutations, one
// vpshufb each; the 12- and 7-bit ones stay shift+shift+or. The output is
// block-major, so two in-register 8x8 transposes (words 0-7, then 8-15)
// turn the eight lanes into eight blocks, written with sixteen 256-bit
// stores instead of 128 lane extracts.
#include "src/crypto/chacha20_internal.h"

#if defined(FL_CHACHA20_AVX2)

#include <immintrin.h>

namespace fl::crypto::internal {
namespace {

// x86 is little-endian, so NativeFromLE is the identity and the transposed
// lanes can be stored as they are.
static_assert(std::endian::native == std::endian::little);

inline __m256i Add(__m256i a, __m256i b) { return _mm256_add_epi32(a, b); }
inline __m256i Xor(__m256i a, __m256i b) { return _mm256_xor_si256(a, b); }

template <int N>
inline __m256i Rotl(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi32(x, N), _mm256_srli_epi32(x, 32 - N));
}

// Within each 32-bit word, result byte i is source byte k[i]: rotl 16 swaps
// the two halves (2, 3, 0, 1), rotl 8 moves the top byte to the bottom
// (3, 0, 1, 2).
inline __m256i Rotl16(__m256i x) {
  const __m256i k = _mm256_setr_epi8(2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14,
                                     15, 12, 13, 2, 3, 0, 1, 6, 7, 4, 5, 10,
                                     11, 8, 9, 14, 15, 12, 13);
  return _mm256_shuffle_epi8(x, k);
}

inline __m256i Rotl8(__m256i x) {
  const __m256i k = _mm256_setr_epi8(3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15,
                                     12, 13, 14, 3, 0, 1, 2, 7, 4, 5, 6, 11,
                                     8, 9, 10, 15, 12, 13, 14);
  return _mm256_shuffle_epi8(x, k);
}

inline void QuarterRound8(__m256i& a, __m256i& b, __m256i& c, __m256i& d) {
  a = Add(a, b); d = Rotl16(Xor(d, a));
  c = Add(c, d); b = Rotl<12>(Xor(b, c));
  a = Add(a, b); d = Rotl8(Xor(d, a));
  c = Add(c, d); b = Rotl<7>(Xor(b, c));
}

// Transposes rows r[0..7] (row i = word `first + i` of blocks 0..7) and
// stores row l of the result — words first..first+7 of block l — at
// out + l * 16 + first.
inline void TransposeStore(const __m256i r[8], std::uint32_t* out,
                           int first) {
  // Interleave word pairs, then pairs of pairs, within each 128-bit half:
  // q[j] holds lane j of rows 0-3 in its low half and lane j + 4 in its
  // high half (q[j + 4] likewise for rows 4-7).
  const __m256i t0 = _mm256_unpacklo_epi32(r[0], r[1]);
  const __m256i t1 = _mm256_unpackhi_epi32(r[0], r[1]);
  const __m256i t2 = _mm256_unpacklo_epi32(r[2], r[3]);
  const __m256i t3 = _mm256_unpackhi_epi32(r[2], r[3]);
  const __m256i t4 = _mm256_unpacklo_epi32(r[4], r[5]);
  const __m256i t5 = _mm256_unpackhi_epi32(r[4], r[5]);
  const __m256i t6 = _mm256_unpacklo_epi32(r[6], r[7]);
  const __m256i t7 = _mm256_unpackhi_epi32(r[6], r[7]);
  const __m256i q[8] = {
      _mm256_unpacklo_epi64(t0, t2), _mm256_unpackhi_epi64(t0, t2),
      _mm256_unpacklo_epi64(t1, t3), _mm256_unpackhi_epi64(t1, t3),
      _mm256_unpacklo_epi64(t4, t6), _mm256_unpackhi_epi64(t4, t6),
      _mm256_unpacklo_epi64(t5, t7), _mm256_unpackhi_epi64(t5, t7)};
  // Join the halves: block j takes the low halves of q[j] and q[j + 4],
  // block j + 4 the high halves.
  for (int j = 0; j < 4; ++j) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + j * 16 + first),
        _mm256_permute2x128_si256(q[j], q[j + 4], 0x20));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + (j + 4) * 16 + first),
        _mm256_permute2x128_si256(q[j], q[j + 4], 0x31));
  }
}

}  // namespace

void BlocksX8Avx2(const std::uint32_t s[16], std::uint32_t counter,
                  std::uint32_t* out) {
  __m256i init[16];
  for (int w = 0; w < 16; ++w) {
    init[w] = _mm256_set1_epi32(static_cast<int>(s[w]));
  }
  // Per-lane counters wrap mod 2^32 independently, like the reference.
  init[12] = _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(counter)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  __m256i x[16];
  for (int w = 0; w < 16; ++w) x[w] = init[w];
  for (int round = 0; round < 10; ++round) {
    QuarterRound8(x[0], x[4], x[8], x[12]);
    QuarterRound8(x[1], x[5], x[9], x[13]);
    QuarterRound8(x[2], x[6], x[10], x[14]);
    QuarterRound8(x[3], x[7], x[11], x[15]);
    QuarterRound8(x[0], x[5], x[10], x[15]);
    QuarterRound8(x[1], x[6], x[11], x[12]);
    QuarterRound8(x[2], x[7], x[8], x[13]);
    QuarterRound8(x[3], x[4], x[9], x[14]);
  }
  for (int w = 0; w < 16; ++w) x[w] = Add(x[w], init[w]);
  TransposeStore(x, out, 0);
  TransposeStore(x + 8, out, 8);
}

}  // namespace fl::crypto::internal

#endif  // FL_CHACHA20_AVX2
