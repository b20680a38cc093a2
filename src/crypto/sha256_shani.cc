// SHA-256 compression with the x86 SHA extensions, compiled with -msha
// -msse4.1 (see src/crypto/CMakeLists). Only reached through the runtime
// dispatch in sha256.cc after __builtin_cpu_supports("sha") — nothing here
// executes on older CPUs. Bit-exact with the scalar reference in sha256.cc:
// the same FIPS 180-4 rounds, two at a time per sha256rnds2.
#include "src/crypto/sha256_internal.h"

#if defined(FL_SHA256_SHANI)

#include <immintrin.h>

namespace fl::crypto::internal {

void Sha256BlocksShaNi(std::uint32_t state[8], const std::uint8_t* data,
                       std::size_t nblocks) {
  // Big-endian message words: reverse the bytes of each 32-bit lane.
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  // sha256rnds2 keeps the working variables as {A,B,E,F} and {C,D,G,H}
  // (highest lane first); regroup the a..h chaining words into that shape.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);    // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);  // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);

  for (; nblocks > 0; --nblocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w[j % 4] holds schedule words W[4j..4j+3] for the group in flight.
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& cur = w[g & 3];
      if (g < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            byte_swap);
      }
      const __m128i wk = _mm_add_epi32(
          cur, _mm_load_si128(
                   reinterpret_cast<const __m128i*>(&kSha256K[4 * g])));
      // Rounds 4g, 4g+1. After two rounds the old {A,B,E,F} is the new
      // {C,D,G,H}, so the pair trades names and the second call trades back.
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (g >= 3 && g < 15) {
        // W[4(g+1)..]: its slot already holds msg1(W[4(g-3)..], W[4(g-2)..]);
        // add W[t-7] and the sigma1 terms of the two previous groups.
        __m128i& next = w[(g + 1) & 3];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, w[(g + 3) & 3], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      if (g >= 1 && g < 13) {
        __m128i& prev = w[(g + 3) & 3];
        prev = _mm_sha256msg1_epu32(prev, cur);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);   // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);  // DCHG
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(tmp, cdgh, 0xF0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(cdgh, tmp, 8));  // HGFE
}

}  // namespace fl::crypto::internal

#endif  // FL_SHA256_SHANI
