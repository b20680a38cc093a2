#include "src/tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "src/tensor/tensor_internal.h"

namespace fl {

std::size_t ShapeNumElements(const Shape& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ",";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  FL_CHECK_MSG(data_.size() == ShapeNumElements(shape_),
               "data size does not match shape " + ShapeToString(shape_));
}

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::GlorotUniform(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  const std::size_t fan_in = t.rank() >= 2 ? t.shape()[0] : t.size();
  const std::size_t fan_out = t.rank() >= 2 ? t.shape()[1] : t.size();
  const double limit = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  for (float& v : t.data_) {
    v = static_cast<float>(rng.Uniform(-limit, limit));
  }
  return t;
}

Tensor Tensor::RandomNormal(Shape shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) {
    v = static_cast<float>(rng.Normal(0.0, stddev));
  }
  return t;
}

Tensor& Tensor::AddInPlace(const Tensor& other, float alpha) {
  FL_CHECK_MSG(SameShape(other), "AddInPlace shape mismatch: " +
                                     ShapeToString(shape_) + " vs " +
                                     ShapeToString(other.shape_));
  // restrict-qualified raw pointers let the compiler vectorize without
  // runtime aliasing checks (the two buffers never overlap: distinct
  // std::vector allocations).
  float* __restrict__ dst = data_.data();
  const float* __restrict__ src = other.data_.data();
  const std::size_t n = data_.size();
  for (std::size_t i = 0; i < n; ++i) dst[i] += alpha * src[i];
  return *this;
}

Tensor& Tensor::Scale(float alpha) {
  float* __restrict__ dst = data_.data();
  const std::size_t n = data_.size();
  for (std::size_t i = 0; i < n; ++i) dst[i] *= alpha;
  return *this;
}

void Tensor::Fill(float value) {
  for (float& v : data_) v = value;
}

Tensor Tensor::Add(const Tensor& other, float alpha) const {
  Tensor out = *this;
  out.AddInPlace(other, alpha);
  return out;
}

Tensor Tensor::Scaled(float alpha) const {
  Tensor out = *this;
  out.Scale(alpha);
  return out;
}

double Tensor::L2Norm() const {
  double s = 0;
  for (float v : data_) s += static_cast<double>(v) * v;
  return std::sqrt(s);
}

double Tensor::AbsMax() const {
  double m = 0;
  for (float v : data_) m = std::max(m, static_cast<double>(std::fabs(v)));
  return m;
}

double Tensor::Sum() const {
  double s = 0;
  for (float v : data_) s += v;
  return s;
}

namespace {
// Cache-block sizes for the reference matmul loops: a kDepthBlock x
// kColBlock panel of B (64 x 128 floats = 32 KiB) stays L1-resident while a
// full sweep of A's rows streams against it. Each output element still
// accumulates its inner-product terms in strictly ascending index order, so
// blocked results are bit-identical to the straightforward loops (pinned by
// tensor_test).
constexpr std::size_t kDepthBlock = 64;
constexpr std::size_t kColBlock = 128;

void MatMulReference(const float* __restrict__ a, const float* __restrict__ b,
                     float* __restrict__ c, std::size_t m, std::size_t k,
                     std::size_t n) {
  for (std::size_t p0 = 0; p0 < k; p0 += kDepthBlock) {
    const std::size_t p1 = std::min(p0 + kDepthBlock, k);
    for (std::size_t j0 = 0; j0 < n; j0 += kColBlock) {
      const std::size_t j1 = std::min(j0 + kColBlock, n);
      for (std::size_t i = 0; i < m; ++i) {
        const float* arow = a + i * k;
        float* crow = c + i * n;
        for (std::size_t p = p0; p < p1; ++p) {
          const float av = arow[p];
          if (av == 0.0f) continue;  // one-hot / embedding rows are sparse
          const float* brow = b + p * n;
          for (std::size_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
}

void MatMulTransAReference(const float* __restrict__ a,
                           const float* __restrict__ b, float* __restrict__ c,
                           std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t i0 = 0; i0 < m; i0 += kDepthBlock) {
    const std::size_t i1 = std::min(i0 + kDepthBlock, m);
    for (std::size_t j0 = 0; j0 < n; j0 += kColBlock) {
      const std::size_t j1 = std::min(j0 + kColBlock, n);
      for (std::size_t i = i0; i < i1; ++i) {
        const float* arow = a + i * k;
        const float* brow = b + i * n;
        for (std::size_t p = 0; p < k; ++p) {
          const float av = arow[p];
          if (av == 0.0f) continue;
          float* crow = c + p * n;
          for (std::size_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
}

// Rows of both operands are contiguous, so each output element is a dot
// product accumulated in double; blocking over j keeps the touched panel of
// B hot across A's rows while the per-row double accumulators preserve the
// exact summation order.
void MatMulTransBReference(const float* __restrict__ a,
                           const float* __restrict__ b, float* __restrict__ c,
                           std::size_t m, std::size_t n, std::size_t k) {
  std::vector<double> acc(k);
  for (std::size_t i = 0; i < m; ++i) {
    std::fill(acc.begin(), acc.end(), 0.0);
    const float* arow = a + i * n;
    for (std::size_t j0 = 0; j0 < n; j0 += kColBlock) {
      const std::size_t j1 = std::min(j0 + kColBlock, n);
      for (std::size_t p = 0; p < k; ++p) {
        const float* brow = b + p * n;
        double s = acc[p];
        for (std::size_t j = j0; j < j1; ++j) s += arow[j] * brow[j];
        acc[p] = s;
      }
    }
    for (std::size_t p = 0; p < k; ++p) {
      c[i * k + p] = static_cast<float>(acc[p]);
    }
  }
}

bool CpuHasAvx2() {
#if defined(FL_TENSOR_AVX2)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

// The AVX2 kernels fill 8 output columns per vector; outputs narrower than
// one vector (the 8->4 logistic regression) stay on the reference loops.
internal::MatMulKernel KernelFor(std::size_t out_cols) {
  static const bool avx2 = CpuHasAvx2();
  return avx2 && out_cols >= 8 ? internal::MatMulKernel::kAvx2
                               : internal::MatMulKernel::kReference;
}

}  // namespace

namespace internal {

bool Avx2MatMulAvailable() { return CpuHasAvx2(); }

Tensor MatMul(const Tensor& a, const Tensor& b, MatMulKernel kernel) {
  FL_CHECK(a.rank() == 2 && b.rank() == 2);
  FL_CHECK_MSG(a.shape()[1] == b.shape()[0], "MatMul inner dim mismatch");
  const std::size_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[1];
  Tensor c({m, n});
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* pc = c.mutable_data().data();
#if defined(FL_TENSOR_AVX2)
  if (kernel == MatMulKernel::kAvx2) {
    MatMulAvx2(pa, pb, pc, m, k, n);
    return c;
  }
#endif
  (void)kernel;
  MatMulReference(pa, pb, pc, m, k, n);
  return c;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b, MatMulKernel kernel) {
  // C(k,n) = A(m,k)^T * B(m,n); the reduction dimension is m.
  FL_CHECK(a.rank() == 2 && b.rank() == 2);
  FL_CHECK_MSG(a.shape()[0] == b.shape()[0], "MatMulTransA dim mismatch");
  const std::size_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[1];
  Tensor c({k, n});
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* pc = c.mutable_data().data();
#if defined(FL_TENSOR_AVX2)
  if (kernel == MatMulKernel::kAvx2) {
    MatMulTransAAvx2(pa, pb, pc, m, k, n);
    return c;
  }
#endif
  (void)kernel;
  MatMulTransAReference(pa, pb, pc, m, k, n);
  return c;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b, MatMulKernel kernel) {
  // C(m,k) = A(m,n) * B(k,n)^T.
  FL_CHECK(a.rank() == 2 && b.rank() == 2);
  FL_CHECK_MSG(a.shape()[1] == b.shape()[1], "MatMulTransB dim mismatch");
  const std::size_t m = a.shape()[0], n = a.shape()[1], k = b.shape()[0];
  Tensor c({m, k});
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* pc = c.mutable_data().data();
#if defined(FL_TENSOR_AVX2)
  if (kernel == MatMulKernel::kAvx2) {
    // Per-call scratch: training runs on several pool threads at once.
    const auto bt =
        std::make_unique_for_overwrite<float[]>(n * ((k + 7) / 8 * 8));
    MatMulTransBAvx2(pa, pb, pc, bt.get(), m, n, k);
    return c;
  }
#endif
  (void)kernel;
  MatMulTransBReference(pa, pb, pc, m, n, k);
  return c;
}

}  // namespace internal

Tensor Tensor::MatMul(const Tensor& a, const Tensor& b) {
  FL_CHECK(b.rank() == 2);
  return internal::MatMul(a, b, KernelFor(b.shape()[1]));
}

Tensor Tensor::MatMulTransA(const Tensor& a, const Tensor& b) {
  FL_CHECK(b.rank() == 2);
  return internal::MatMulTransA(a, b, KernelFor(b.shape()[1]));
}

Tensor Tensor::MatMulTransB(const Tensor& a, const Tensor& b) {
  FL_CHECK(b.rank() == 2);
  return internal::MatMulTransB(a, b, KernelFor(b.shape()[0]));
}

}  // namespace fl
