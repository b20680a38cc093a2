// AVX2 matmul kernels, compiled with -mavx2 (see src/tensor/CMakeLists).
// Only reached through the runtime dispatch in tensor.cc after
// __builtin_cpu_supports("avx2") — nothing here executes on older CPUs.
//
// Bit-identical with the reference loops in tensor.cc: register tiles hold
// whole outputs, each accumulated from +0 over the reduction index in
// ascending order with a separate multiply and add. MatMul/MatMulTransA
// replace the reference's `a == 0` skip by a masked +0 term (so 0 * inf
// never reaches an output, and an accumulator that is never -0 is left
// unchanged). MatMulTransB keeps one double accumulator per output, as the
// reference does, and vectorises across outputs over a packed B^T panel.
#include "src/tensor/tensor_internal.h"

#if defined(FL_TENSOR_AVX2)

#include <immintrin.h>

namespace fl::internal {
namespace {

constexpr std::size_t kLanes = 8;  // floats per __m256
constexpr int kTileRows = 4;

// Lane l is on iff l < live.
__m256i TailMask(std::size_t live) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(live)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// c(rows, cols) = sum over s ascending of A(r, s) * b(s, :), where
// A(r, s) = a[r * a_row + s * a_step]. MatMul reads A by rows, MatMulTransA
// by columns; both stream b row by row.
struct Axpy {
  const float* a;
  std::size_t a_row, a_step;
  const float* b;
  float* c;
  std::size_t rows, steps, cols;
};

// One R x (8 V) output tile at (r0, j0); when kTail the last vector holds
// only the lanes `tail` enables.
template <int R, int V, bool kTail>
void AxpyTile(const Axpy& p, std::size_t r0, std::size_t j0, __m256i tail) {
  __m256 acc[R][V];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) acc[r][v] = _mm256_setzero_ps();
  }
  const __m256 zero = _mm256_setzero_ps();
  const std::size_t a_row = p.a_row, a_step = p.a_step, ldb = p.cols;
  const float* as = p.a + r0 * a_row;
  const float* brow = p.b + j0;
  for (std::size_t s = 0; s < p.steps; ++s, as += a_step, brow += ldb) {
    __m256 bv[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      bv[v] = kTail && v == V - 1
                  ? _mm256_maskload_ps(brow + v * kLanes, tail)
                  : _mm256_loadu_ps(brow + v * kLanes);
    }
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(as + r * a_row);
      const __m256 live = _mm256_cmp_ps(av, zero, _CMP_NEQ_UQ);
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v) {
        const __m256 term = _mm256_and_ps(_mm256_mul_ps(av, bv[v]), live);
        acc[r][v] = _mm256_add_ps(acc[r][v], term);
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    float* crow = p.c + (r0 + r) * p.cols + j0;
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      if (kTail && v == V - 1) {
        _mm256_maskstore_ps(crow + v * kLanes, tail, acc[r][v]);
      } else {
        _mm256_storeu_ps(crow + v * kLanes, acc[r][v]);
      }
    }
  }
}

template <int V, bool kTail>
void AxpyColumns(const Axpy& p, std::size_t j0, __m256i tail) {
  std::size_t r = 0;
  for (; r + kTileRows <= p.rows; r += kTileRows) {
    AxpyTile<kTileRows, V, kTail>(p, r, j0, tail);
  }
  for (; r < p.rows; ++r) AxpyTile<1, V, kTail>(p, r, j0, tail);
}

void RunAxpy(const Axpy& p) {
  const __m256i all = _mm256_set1_epi32(-1);
  std::size_t j = 0;
  for (; j + 2 * kLanes <= p.cols; j += 2 * kLanes) {
    AxpyColumns<2, false>(p, j, all);
  }
  if (j + kLanes <= p.cols) {
    AxpyColumns<1, false>(p, j, all);
    j += kLanes;
  }
  if (j < p.cols) AxpyColumns<1, true>(p, j, TailMask(p.cols - j));
}

// R rows by 8 outputs of MatMulTransB, starting at row a / output c: a
// has n columns, bt is the packed n x width panel of B^T offset to the
// tile's first output, and `live` of the 8 outputs are stored. Each output
// sums (double)(a * b) over j ascending; the float product is rounded
// before widening, as in the reference.
template <int R>
void DotTile(const float* a, std::size_t n, const float* bt,
             std::size_t width, float* c, std::size_t ldc, std::size_t live) {
  __m256d acc[R][2];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    acc[r][0] = _mm256_setzero_pd();
    acc[r][1] = _mm256_setzero_pd();
  }
  for (std::size_t j = 0; j < n; ++j) {
    const __m128 b_lo = _mm_loadu_ps(bt + j * width);
    const __m128 b_hi = _mm_loadu_ps(bt + j * width + 4);
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m128 av = _mm_broadcast_ss(a + r * n + j);
      acc[r][0] =
          _mm256_add_pd(acc[r][0], _mm256_cvtps_pd(_mm_mul_ps(av, b_lo)));
      acc[r][1] =
          _mm256_add_pd(acc[r][1], _mm256_cvtps_pd(_mm_mul_ps(av, b_hi)));
    }
  }
  const __m256i mask = TailMask(live);
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    const __m256 out = _mm256_set_m128(_mm256_cvtpd_ps(acc[r][1]),
                                       _mm256_cvtpd_ps(acc[r][0]));
    if (live == kLanes) {
      _mm256_storeu_ps(c + r * ldc, out);
    } else {
      _mm256_maskstore_ps(c + r * ldc, mask, out);
    }
  }
}

}  // namespace

void MatMulAvx2(const float* a, const float* b, float* c, std::size_t m,
                std::size_t k, std::size_t n) {
  RunAxpy({.a = a, .a_row = k, .a_step = 1, .b = b, .c = c, .rows = m,
           .steps = k, .cols = n});
}

void MatMulTransAAvx2(const float* a, const float* b, float* c, std::size_t m,
                      std::size_t k, std::size_t n) {
  RunAxpy({.a = a, .a_row = 1, .a_step = k, .b = b, .c = c, .rows = k,
           .steps = m, .cols = n});
}

void MatMulTransBAvx2(const float* a, const float* b, float* c, float* bt,
                      std::size_t m, std::size_t n, std::size_t k) {
  const std::size_t width = (k + kLanes - 1) / kLanes * kLanes;
  for (std::size_t j = 0; j < n; ++j) {
    float* row = bt + j * width;
    for (std::size_t p = 0; p < k; ++p) row[p] = b[p * n + j];
    for (std::size_t p = k; p < width; ++p) row[p] = 0.0f;
  }
  for (std::size_t q = 0; q < k; q += kLanes) {
    const std::size_t live = k - q < kLanes ? k - q : kLanes;
    std::size_t i = 0;
    for (; i + kTileRows <= m; i += kTileRows) {
      DotTile<kTileRows>(a + i * n, n, bt + q, width, c + i * k + q, k, live);
    }
    for (; i < m; ++i) {
      DotTile<1>(a + i * n, n, bt + q, width, c + i * k + q, k, live);
    }
  }
}

}  // namespace fl::internal

#endif  // FL_TENSOR_AVX2
