// Shared internals between the reference matmul loops (tensor.cc) and the
// AVX2 kernels (tensor_avx2.cc, compiled with -mavx2 and selected at run
// time by CPU capability). Tests reach both kernels through this header.
//
// The kernels are bit-identical: every output accumulates its terms in
// ascending reduction order, as a separate multiply then add (no FMA), and
// MatMul/MatMulTransA skip a zero A entry (the AVX2 kernels add a masked +0
// instead, which leaves an accumulator that is never -0 unchanged).
#pragma once

#include <cstddef>

#include "src/tensor/tensor.h"

namespace fl::internal {

enum class MatMulKernel { kReference, kAvx2 };

// True when the AVX2 kernels are compiled in and the CPU reports AVX2.
bool Avx2MatMulAvailable();

// The Tensor::MatMul* operations on an explicit kernel. kAvx2 runs the AVX2
// kernel on every shape (Tensor::MatMul* use it only where its tile fits);
// call it only when Avx2MatMulAvailable().
Tensor MatMul(const Tensor& a, const Tensor& b, MatMulKernel kernel);
Tensor MatMulTransA(const Tensor& a, const Tensor& b, MatMulKernel kernel);
Tensor MatMulTransB(const Tensor& a, const Tensor& b, MatMulKernel kernel);

#if defined(FL_TENSOR_AVX2)
// Raw AVX2 kernels over row-major buffers; `c` is zero-filled on entry.
// c(m,n) = a(m,k) * b(k,n).
void MatMulAvx2(const float* a, const float* b, float* c, std::size_t m,
                std::size_t k, std::size_t n);
// c(k,n) = a(m,k)^T * b(m,n).
void MatMulTransAAvx2(const float* a, const float* b, float* c, std::size_t m,
                      std::size_t k, std::size_t n);
// c(m,k) = a(m,n) * b(k,n)^T. `bt` is caller-owned scratch of
// n * RoundUp(k, 8) floats for the packed, zero-padded B^T panel.
void MatMulTransBAvx2(const float* a, const float* b, float* c, float* bt,
                      std::size_t m, std::size_t n, std::size_t k);
#endif

}  // namespace fl::internal
