#include "src/tensor/tensor.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>

#include "src/tensor/tensor_internal.h"

namespace fl {
namespace {

TEST(TensorTest, ZerosShapeAndContents) {
  const Tensor t = Tensor::Zeros({2, 3});
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.size(), 6u);
  for (float v : t.data()) EXPECT_EQ(v, 0.0f);
}

TEST(TensorTest, FullFillsValue) {
  const Tensor t = Tensor::Full({4}, 2.5f);
  for (float v : t.data()) EXPECT_EQ(v, 2.5f);
}

TEST(TensorTest, FromVectorIsRankOne) {
  const Tensor t = Tensor::FromVector({1, 2, 3});
  EXPECT_EQ(t.rank(), 1u);
  EXPECT_EQ(t.at(1), 2.0f);
}

TEST(TensorTest, TwoDimAccessRowMajor) {
  Tensor t({2, 3});
  t.at(1, 2) = 7.0f;
  EXPECT_EQ(t.at(5), 7.0f);  // row-major flattening
}

TEST(TensorTest, ShapeMismatchConstructionThrows) {
  EXPECT_THROW(Tensor({2, 2}, {1.0f, 2.0f, 3.0f}), std::logic_error);
}

TEST(TensorTest, OutOfBoundsAccessThrows) {
  Tensor t({2, 2});
  EXPECT_THROW(t.at(4), std::logic_error);
  EXPECT_THROW(t.at(2, 0), std::logic_error);
}

TEST(TensorTest, AddInPlaceWithAlpha) {
  Tensor a = Tensor::Full({3}, 1.0f);
  const Tensor b = Tensor::Full({3}, 2.0f);
  a.AddInPlace(b, 0.5f);
  for (float v : a.data()) EXPECT_FLOAT_EQ(v, 2.0f);
}

TEST(TensorTest, AddShapeMismatchThrows) {
  Tensor a({2});
  const Tensor b({3});
  EXPECT_THROW(a.AddInPlace(b), std::logic_error);
}

TEST(TensorTest, ScaleAndNorms) {
  Tensor t = Tensor::FromVector({3.0f, -4.0f});
  EXPECT_DOUBLE_EQ(t.L2Norm(), 5.0);
  EXPECT_DOUBLE_EQ(t.AbsMax(), 4.0);
  EXPECT_DOUBLE_EQ(t.Sum(), -1.0);
  t.Scale(2.0f);
  EXPECT_DOUBLE_EQ(t.L2Norm(), 10.0);
}

TEST(TensorTest, MatMulKnownValues) {
  const Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  const Tensor c = Tensor::MatMul(a, b);
  ASSERT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(c.at(0, 0), 58);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154);
}

TEST(TensorTest, MatMulDimMismatchThrows) {
  const Tensor a({2, 3});
  const Tensor b({2, 2});
  EXPECT_THROW(Tensor::MatMul(a, b), std::logic_error);
}

TEST(TensorTest, TransposedMatMulsAgreeWithExplicit) {
  Rng rng(3);
  const Tensor a = Tensor::RandomNormal({4, 5}, rng);
  const Tensor b = Tensor::RandomNormal({4, 6}, rng);
  // A^T * B via MatMulTransA should equal transpose(A) * B done manually.
  const Tensor c = Tensor::MatMulTransA(a, b);
  ASSERT_EQ(c.shape(), (Shape{5, 6}));
  Tensor at({5, 4});
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 5; ++j) at.at(j, i) = a.at(i, j);
  }
  const Tensor expected = Tensor::MatMul(at, b);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.at(i), expected.at(i), 1e-4);
  }
}

TEST(TensorTest, MatMulTransBAgreesWithExplicit) {
  Rng rng(4);
  const Tensor a = Tensor::RandomNormal({3, 5}, rng);
  const Tensor b = Tensor::RandomNormal({4, 5}, rng);
  const Tensor c = Tensor::MatMulTransB(a, b);  // a * b^T -> [3,4]
  ASSERT_EQ(c.shape(), (Shape{3, 4}));
  Tensor bt({5, 4});
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 5; ++j) bt.at(j, i) = b.at(i, j);
  }
  const Tensor expected = Tensor::MatMul(a, bt);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.at(i), expected.at(i), 1e-4);
  }
}

// Straightforward reference kernels: the cache-blocked reference loops and
// the AVX2 kernels must reproduce these bit for bit (same per-element
// accumulation order; MatMul and MatMulTransA skip zero A entries).
Tensor NaiveMatMul(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[1];
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float s = 0;
      for (std::size_t p = 0; p < k; ++p) {
        if (a.at(i, p) != 0.0f) s += a.at(i, p) * b.at(p, j);
      }
      c.at(i, j) = s;
    }
  }
  return c;
}

Tensor NaiveMatMulTransA(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[1];
  Tensor c({k, n});
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < n; ++j) {
      float s = 0;
      for (std::size_t i = 0; i < m; ++i) {
        if (a.at(i, p) != 0.0f) s += a.at(i, p) * b.at(i, j);
      }
      c.at(p, j) = s;
    }
  }
  return c;
}

Tensor NaiveMatMulTransB(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.shape()[0], n = a.shape()[1], k = b.shape()[0];
  Tensor c({m, k});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      double s = 0;
      for (std::size_t j = 0; j < n; ++j) s += a.at(i, j) * b.at(p, j);
      c.at(i, p) = static_cast<float>(s);
    }
  }
  return c;
}

// Compares bit patterns, so -0 vs +0 and NaN payloads count as differences.
::testing::AssertionResult BitIdentical(const Tensor& got, const Tensor& want) {
  if (got.shape() != want.shape()) {
    return ::testing::AssertionFailure()
           << "shape " << ShapeToString(got.shape()) << " vs "
           << ShapeToString(want.shape());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(got.at(i)) !=
        std::bit_cast<std::uint32_t>(want.at(i))) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << got.at(i) << " vs " << want.at(i);
    }
  }
  return ::testing::AssertionSuccess();
}

// How a case fills its A operand beyond Gaussian noise.
enum class Fill {
  kDense,
  // Every third entry +0 and every fifth -0, like sparse embedding rows,
  // plus one all-zero output row or column whose result must be +0.
  kSignedZeros,
  // Two reduction indices where every A entry is +-0 while B holds inf,
  // -inf or NaN: MatMul/MatMulTransA skip those terms, MatMulTransB (no
  // skip) turns the outputs that meet an infinity into NaN the same way on
  // every kernel.
  kNonFiniteUnderZero,
};

float SignedZeroOr(std::size_t i, float v) {
  if (i % 5 == 0) return -0.0f;
  if (i % 3 == 0) return 0.0f;
  return v;
}

float NonFinite(std::size_t i, bool allow_nan) {
  const float kinds[] = {std::numeric_limits<float>::infinity(),
                         -std::numeric_limits<float>::infinity(),
                         std::numeric_limits<float>::quiet_NaN()};
  return kinds[i % (allow_nan ? 3 : 2)];
}

struct KernelCase {
  std::size_t d0, d1, d2;
  Fill fill = Fill::kDense;
};

std::string CaseName(const KernelCase& c) {
  static const char* kFills[] = {"dense", "signed zeros",
                                 "non-finite under zero"};
  return std::to_string(c.d0) + "x" + std::to_string(c.d1) + "x" +
         std::to_string(c.d2) + " " + kFills[static_cast<int>(c.fill)];
}

// Checks `op` under the dispatching Tensor API, the reference loops and
// (when the CPU has it) the AVX2 kernel against the naive loops.
template <typename Dispatch, typename Explicit>
void CheckKernels(const Tensor& a, const Tensor& b, const Tensor& want,
                  const std::string& name, Dispatch dispatch, Explicit op) {
  using internal::MatMulKernel;
  EXPECT_TRUE(BitIdentical(dispatch(a, b), want)) << name << " dispatched";
  EXPECT_TRUE(BitIdentical(op(a, b, MatMulKernel::kReference), want))
      << name << " reference";
  if (internal::Avx2MatMulAvailable()) {
    EXPECT_TRUE(BitIdentical(op(a, b, MatMulKernel::kAvx2), want))
        << name << " avx2";
  }
}

void SkipAvx2ArmIfUnavailable() {
  if (!internal::Avx2MatMulAvailable()) {
    GTEST_SKIP() << "reference arm passed; AVX2 arm skipped: CPU lacks AVX2 "
                    "(or -mavx2 unsupported)";
  }
}

// Ragged shapes straddle the reference loops' block boundaries (64-deep,
// 128-wide blocks) and the AVX2 tiles (4 rows by 8 or 16 columns): full
// blocks, remainder blocks and degenerate 1-wide edges. The 32-row shapes
// are the next-word LM's (batch 32, 3x16 embedding, 64 hidden, 64 vocab).
const KernelCase kMatMulCases[] = {
    {7, 13, 5}, {1, 130, 1}, {33, 65, 129}, {2, 64, 128}, {65, 1, 9},
    {32, 48, 64}, {32, 64, 64}, {32, 64, 48},
    {3, 5, 7}, {4, 3, 8}, {5, 9, 15}, {9, 2, 16}, {6, 7, 17}, {4, 11, 23},
    {7, 4, 24}, {3, 8, 25}, {1, 1, 16},
    {32, 48, 64, Fill::kSignedZeros}, {5, 9, 17, Fill::kSignedZeros},
    {32, 48, 64, Fill::kNonFiniteUnderZero},
    {6, 7, 23, Fill::kNonFiniteUnderZero},
};

TEST(TensorTest, BlockedMatMulMatchesNaiveOnRaggedShapes) {
  Rng rng(11);
  for (const KernelCase& c : kMatMulCases) {
    const auto [m, k, n] = std::tuple(c.d0, c.d1, c.d2);
    Tensor a = Tensor::RandomNormal({m, k}, rng);
    Tensor b = Tensor::RandomNormal({k, n}, rng);
    if (c.fill == Fill::kSignedZeros) {
      for (std::size_t i = 0; i < a.size(); ++i) {
        a.at(i) = SignedZeroOr(i, a.at(i));
      }
      for (std::size_t j = 0; j < a.dim(1); ++j) {
        a.at(0, j) = j % 2 ? -0.0f : 0.0f;
      }
    } else if (c.fill == Fill::kNonFiniteUnderZero) {
      for (const std::size_t p : {std::size_t{0}, k / 2}) {
        for (std::size_t i = 0; i < m; ++i) a.at(i, p) = i % 2 ? -0.0f : 0.0f;
        for (std::size_t j = 0; j < n; ++j) b.at(p, j) = NonFinite(j, true);
      }
    }
    CheckKernels(a, b, NaiveMatMul(a, b), CaseName(c),
                 &Tensor::MatMul,
                 [](const Tensor& x, const Tensor& y, auto kernel) {
                   return internal::MatMul(x, y, kernel);
                 });
  }
  SkipAvx2ArmIfUnavailable();
}

const KernelCase kMatMulTransACases[] = {
    {13, 7, 5}, {130, 1, 3}, {65, 33, 129}, {64, 2, 128},
    {32, 48, 64}, {32, 64, 64}, {32, 64, 48},
    {5, 3, 7}, {3, 4, 8}, {9, 5, 15}, {2, 9, 16}, {7, 6, 17}, {11, 4, 23},
    {4, 7, 24}, {8, 3, 25}, {1, 1, 16},
    {32, 48, 64, Fill::kSignedZeros}, {9, 5, 17, Fill::kSignedZeros},
    {32, 48, 64, Fill::kNonFiniteUnderZero},
    {7, 6, 23, Fill::kNonFiniteUnderZero},
};

TEST(TensorTest, BlockedMatMulTransAMatchesNaiveOnRaggedShapes) {
  Rng rng(12);
  for (const KernelCase& c : kMatMulTransACases) {
    const auto [m, k, n] = std::tuple(c.d0, c.d1, c.d2);
    Tensor a = Tensor::RandomNormal({m, k}, rng);
    Tensor b = Tensor::RandomNormal({m, n}, rng);
    if (c.fill == Fill::kSignedZeros) {
      for (std::size_t i = 0; i < a.size(); ++i) {
        a.at(i) = SignedZeroOr(i, a.at(i));
      }
      for (std::size_t i = 0; i < m; ++i) a.at(i, 0) = i % 2 ? -0.0f : 0.0f;
    } else if (c.fill == Fill::kNonFiniteUnderZero) {
      for (const std::size_t i : {std::size_t{0}, m / 2}) {
        for (std::size_t p = 0; p < k; ++p) a.at(i, p) = p % 2 ? -0.0f : 0.0f;
        for (std::size_t j = 0; j < n; ++j) b.at(i, j) = NonFinite(j, true);
      }
    }
    CheckKernels(a, b, NaiveMatMulTransA(a, b), CaseName(c),
                 &Tensor::MatMulTransA,
                 [](const Tensor& x, const Tensor& y, auto kernel) {
                   return internal::MatMulTransA(x, y, kernel);
                 });
  }
  SkipAvx2ArmIfUnavailable();
}

const KernelCase kMatMulTransBCases[] = {
    {7, 13, 5}, {1, 130, 3}, {33, 129, 65}, {2, 128, 64},
    {32, 64, 48}, {32, 64, 64}, {32, 48, 64},
    {3, 5, 7}, {4, 3, 8}, {5, 9, 15}, {9, 2, 16}, {6, 7, 17}, {4, 11, 23},
    {7, 4, 24}, {3, 8, 25}, {1, 1, 16}, {5, 0, 9},
    {32, 64, 48, Fill::kSignedZeros}, {5, 17, 9, Fill::kSignedZeros},
    {32, 64, 48, Fill::kNonFiniteUnderZero},
    {6, 23, 7, Fill::kNonFiniteUnderZero},
};

TEST(TensorTest, BlockedMatMulTransBMatchesNaiveOnRaggedShapes) {
  Rng rng(13);
  for (const KernelCase& c : kMatMulTransBCases) {
    const auto [m, n, k] = std::tuple(c.d0, c.d1, c.d2);
    Tensor a = Tensor::RandomNormal({m, n}, rng);
    Tensor b = Tensor::RandomNormal({k, n}, rng);
    if (c.fill == Fill::kSignedZeros) {
      for (std::size_t i = 0; i < a.size(); ++i) {
        a.at(i) = SignedZeroOr(i, a.at(i));
      }
      for (std::size_t j = 0; j < a.dim(1); ++j) {
        a.at(0, j) = j % 2 ? -0.0f : 0.0f;
      }
    } else if (c.fill == Fill::kNonFiniteUnderZero) {
      // Infinities only: with two NaN operands x86 propagates the first,
      // and operand order is the compiler's choice in the scalar loops.
      for (const std::size_t j : {std::size_t{0}, n / 2}) {
        for (std::size_t i = 0; i < m; ++i) a.at(i, j) = i % 2 ? -0.0f : 0.0f;
        for (std::size_t p = 0; p < k; p += 2) {
          b.at(p, j) = NonFinite(p / 2, false);
        }
      }
    }
    CheckKernels(a, b, NaiveMatMulTransB(a, b), CaseName(c),
                 &Tensor::MatMulTransB,
                 [](const Tensor& x, const Tensor& y, auto kernel) {
                   return internal::MatMulTransB(x, y, kernel);
                 });
  }
  SkipAvx2ArmIfUnavailable();
}

TEST(TensorTest, GlorotUniformWithinLimit) {
  Rng rng(5);
  const Tensor t = Tensor::GlorotUniform({64, 32}, rng);
  const double limit = std::sqrt(6.0 / (64 + 32));
  EXPECT_LE(t.AbsMax(), limit + 1e-6);
  EXPECT_GT(t.L2Norm(), 0.0);
}

TEST(TensorTest, EqualityIsValueBased) {
  const Tensor a({2}, {1, 2});
  const Tensor b({2}, {1, 2});
  const Tensor c({2}, {1, 3});
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

}  // namespace
}  // namespace fl
