// Round-trip, property, and accounting tests for the pluggable update
// codec (src/fedavg/codec.h): every stage alone, the full
// delta -> top-k -> int4 composition, unbiasedness of stochastic
// quantization, index-encoding selection, and the SecAgg input-vector
// format (sparsification helpers, encode -> masked sum -> decode).
#include "src/fedavg/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "src/common/crc32.h"
#include "src/common/fixed_point.h"
#include "src/common/rng.h"

namespace fl::fedavg {
namespace {

std::vector<float> RandomUpdate(std::size_t n, Rng& rng, float span = 1.0f) {
  std::vector<float> v(n);
  for (auto& x : v) {
    x = span * (2.0f * static_cast<float>(rng.NextDouble()) - 1.0f);
  }
  return v;
}

protocol::WireCodecConfig Config(bool delta, double topk,
                                 std::uint8_t bits) {
  protocol::WireCodecConfig c;
  c.delta = delta;
  c.topk_fraction = topk;
  c.quant_bits = bits;
  return c;
}

TEST(CodecTest, DenseFloatRoundTripIsExact) {
  Rng rng(11);
  const std::vector<float> update = RandomUpdate(257, rng);
  const EncodedUpdate enc = EncodeUpdate(update, Config(false, 1.0, 32), 1);
  auto dec = DecodeUpdate(enc.payload);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  ASSERT_EQ(dec->size(), update.size());
  for (std::size_t i = 0; i < update.size(); ++i) {
    EXPECT_EQ((*dec)[i], update[i]) << i;
  }
}

TEST(CodecTest, DeltaStageRoundTripIsExact) {
  Rng rng(12);
  const std::vector<float> reference = RandomUpdate(100, rng);
  std::vector<float> update = reference;
  for (auto& x : update) x += 0.01f * static_cast<float>(rng.NextDouble());
  const EncodedUpdate enc =
      EncodeUpdate(update, Config(true, 1.0, 32), 1, reference);
  auto dec = DecodeUpdate(enc.payload, reference);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  for (std::size_t i = 0; i < update.size(); ++i) {
    EXPECT_FLOAT_EQ((*dec)[i], update[i]) << i;
  }
}

TEST(CodecTest, DeltaDecodeWithoutReferenceFails) {
  Rng rng(13);
  const std::vector<float> reference = RandomUpdate(16, rng);
  const EncodedUpdate enc =
      EncodeUpdate(reference, Config(true, 1.0, 32), 1, reference);
  EXPECT_FALSE(DecodeUpdate(enc.payload).ok());
}

TEST(CodecTest, TopKKeepsLargestMagnitudesAndZeroFills) {
  std::vector<float> update(64, 0.01f);
  update[3] = 5.0f;
  update[17] = -4.0f;
  update[40] = 3.0f;
  const EncodedUpdate enc =
      EncodeUpdate(update, Config(false, 3.0 / 64.0, 32), 1);
  auto dec = DecodeUpdate(enc.payload);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  for (std::size_t i = 0; i < update.size(); ++i) {
    if (i == 3 || i == 17 || i == 40) {
      EXPECT_EQ((*dec)[i], update[i]) << i;
    } else {
      EXPECT_EQ((*dec)[i], 0.0f) << i;
    }
  }
}

// Top-k over vectors drawn from five magnitudes, so most of the k-th
// magnitude's coordinates tie: the kept set is the k largest magnitudes,
// ties broken toward the lower index, and the encoded bytes of every case
// (dense and int8) are pinned by one CRC.
TEST(CodecTest, TopKOverTiedMagnitudesKeepsLowestIndicesAndIsPinned) {
  Rng rng(2025);
  const float levels[] = {0.0f, 0.25f, 0.5f, 1.0f, 2.0f};
  std::vector<std::uint8_t> all_bytes;
  for (std::size_t n : {1u, 2u, 3u, 7u, 8u, 64u, 255u, 1000u, 4097u}) {
    for (double topk : {0.01, 0.1, 0.25, 0.5, 0.9}) {
      std::vector<float> update(n);
      for (float& x : update) {
        x = levels[rng.UniformInt(5)];
        if (rng.UniformInt(2) == 1) x = -x;
      }
      std::vector<std::uint32_t> order(n);
      std::iota(order.begin(), order.end(), 0u);
      std::stable_sort(order.begin(), order.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return std::abs(update[a]) > std::abs(update[b]);
                       });
      std::vector<float> expected(n, 0.0f);
      for (std::size_t i = 0; i < KeepCount(n, topk); ++i) {
        expected[order[i]] = update[order[i]];
      }
      for (std::uint8_t bits : {32, 8}) {
        const EncodedUpdate enc =
            EncodeUpdate(update, Config(false, topk, bits), n);
        all_bytes.insert(all_bytes.end(), enc.payload.begin(),
                         enc.payload.end());
        if (bits != 32) continue;
        auto dec = DecodeUpdate(enc.payload);
        ASSERT_TRUE(dec.ok()) << dec.status().ToString();
        EXPECT_EQ(*dec, expected) << "n=" << n << " topk=" << topk;
      }
    }
  }
  EXPECT_EQ(all_bytes.size(), 54247u);
  EXPECT_EQ(Crc32(all_bytes), 0x858823cdu);
}

TEST(CodecTest, QuantizationErrorBoundedByOneLevel) {
  Rng rng(14);
  const std::vector<float> update = RandomUpdate(512, rng, 2.0f);
  for (std::uint8_t bits : {4, 8}) {
    const EncodedUpdate enc =
        EncodeUpdate(update, Config(false, 1.0, bits), 99);
    auto dec = DecodeUpdate(enc.payload);
    ASSERT_TRUE(dec.ok()) << dec.status().ToString();
    float max_abs = 0.0f;
    for (float v : update) max_abs = std::max(max_abs, std::abs(v));
    // Stochastic rounding moves at most one level either way.
    const float level = max_abs / static_cast<float>((1 << (bits - 1)) - 1);
    for (std::size_t i = 0; i < update.size(); ++i) {
      EXPECT_LE(std::abs((*dec)[i] - update[i]), level * 1.001f)
          << "bits=" << int(bits) << " i=" << i;
    }
  }
}

TEST(CodecTest, StochasticQuantizationIsUnbiased) {
  // E[decode] == value: average many independently-seeded encodings of a
  // value that sits strictly between two int4 levels.
  const std::vector<float> update = {0.3f, -0.77f, 0.123f, 1.0f};
  const protocol::WireCodecConfig config = Config(false, 1.0, 4);
  std::vector<double> mean(update.size(), 0.0);
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    const EncodedUpdate enc =
        EncodeUpdate(update, config, static_cast<std::uint64_t>(t) + 1);
    auto dec = DecodeUpdate(enc.payload);
    ASSERT_TRUE(dec.ok());
    for (std::size_t i = 0; i < update.size(); ++i) mean[i] += (*dec)[i];
  }
  // One int4 level here is 1/7; the empirical mean over 4000 trials should
  // sit within a few percent of one level from the true value.
  for (std::size_t i = 0; i < update.size(); ++i) {
    mean[i] /= trials;
    EXPECT_NEAR(mean[i], update[i], (1.0 / 7.0) * 0.05) << i;
  }
}

TEST(CodecTest, ComposedDeltaTopKInt4RoundTrips) {
  Rng rng(15);
  const std::size_t n = 300;
  const std::vector<float> reference = RandomUpdate(n, rng);
  std::vector<float> update = reference;
  // A sparse set of meaningful residuals over a noise floor.
  for (auto& x : update) x += 1e-4f * static_cast<float>(rng.NextDouble());
  std::set<std::size_t> hot;
  while (hot.size() < 30) hot.insert(rng.UniformInt(n));
  for (std::size_t i : hot) {
    update[i] += (rng.NextDouble() < 0.5 ? 1.0f : -1.0f) *
                 (0.5f + static_cast<float>(rng.NextDouble()));
  }
  const protocol::WireCodecConfig config = Config(true, 0.1, 4);
  const EncodedUpdate enc = EncodeUpdate(update, config, 5, reference);
  auto dec = DecodeUpdate(enc.payload, reference);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  ASSERT_EQ(dec->size(), n);
  float max_residual = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    max_residual = std::max(max_residual, std::abs(update[i] - reference[i]));
  }
  const float level = max_residual / 7.0f;
  for (std::size_t i : hot) {
    // Every hot coordinate is in the kept top 10% (30 of 300), so it must
    // round-trip to within one quantization level of the true value.
    EXPECT_LE(std::abs((*dec)[i] - update[i]), level * 1.001f) << i;
  }
  // Dropped coordinates decode to the reference exactly.
  std::size_t at_reference = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if ((*dec)[i] == reference[i]) ++at_reference;
  }
  EXPECT_EQ(at_reference, n - 30);
  // And the wire shrinks hard: 300 floats -> ~30 int4 values + indices.
  EXPECT_GT(enc.CompressionRatio(), 8.0);
}

TEST(CodecTest, IndexEncodingAdaptsToDensity) {
  Rng rng(16);
  // Very sparse: delta varints beat a 4096-bit bitmap.
  const std::vector<float> sparse = RandomUpdate(4096, rng);
  const EncodedUpdate enc_sparse =
      EncodeUpdate(sparse, Config(false, 0.001, 32), 1);
  // Dense keep: the bitmap wins.
  const EncodedUpdate enc_dense =
      EncodeUpdate(sparse, Config(false, 0.5, 32), 1);
  // Both must decode regardless of which representation was chosen.
  ASSERT_TRUE(DecodeUpdate(enc_sparse.payload).ok());
  ASSERT_TRUE(DecodeUpdate(enc_dense.payload).ok());
  // 5 kept indices as varints use far fewer than 512 bitmap bytes; the
  // payload difference proves the encoder adapted.
  EXPECT_LT(enc_sparse.payload.size(), 4 + 1 + 3 + 2 + 5 * 3 + 5 * 4 + 16);
  EXPECT_GT(enc_dense.payload.size(), 512);
}

TEST(CodecTest, DecodeRejectsCorruption) {
  Rng rng(17);
  const std::vector<float> update = RandomUpdate(50, rng);
  EncodedUpdate enc = EncodeUpdate(update, Config(false, 0.2, 8), 1);
  // Bad magic.
  Bytes bad = enc.payload;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(DecodeUpdate(bad).ok());
  // Truncation.
  Bytes cut(enc.payload.begin(), enc.payload.end() - 3);
  EXPECT_FALSE(DecodeUpdate(cut).ok());
  // Trailing garbage.
  Bytes extra = enc.payload;
  extra.push_back(0);
  EXPECT_FALSE(DecodeUpdate(extra).ok());
}

TEST(CodecTest, KeepCountClampsAndCeils) {
  EXPECT_EQ(KeepCount(0, 0.5), 0u);
  EXPECT_EQ(KeepCount(100, 1.0), 100u);
  EXPECT_EQ(KeepCount(100, 0.25), 25u);
  EXPECT_EQ(KeepCount(100, 0.101), 11u);  // ceil
  EXPECT_EQ(KeepCount(100, 1e-9), 1u);    // at least one
}

TEST(CodecTest, AgreedIndexSetIsDeterministicSortedDistinct) {
  const auto a = AgreedIndexSet(42, 1000, 100);
  const auto b = AgreedIndexSet(42, 1000, 100);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 100u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_EQ(std::set<std::uint32_t>(a.begin(), a.end()).size(), a.size());
  EXPECT_LT(a.back(), 1000u);
  const auto c = AgreedIndexSet(43, 1000, 100);
  EXPECT_NE(a, c);
  // keep == total degenerates to the identity.
  const auto all = AgreedIndexSet(7, 10, 10);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(all[i], i);
}

// Encodes every client with the spec, sums the words the way unmasking
// leaves them (u32 wrap-around, reduced to the ring) and decodes the sum.
// Returns the partial next to the independently quantized reference sum.
std::pair<PartialAggregate, std::vector<float>> SecAggRoundTrip(
    const SecAggVectorSpec& spec) {
  Rng rng(spec.index_seed);
  Checkpoint schema;
  schema.Put("w", Tensor::FromVector(std::vector<float>(spec.total - 8)));
  schema.Put("b", Tensor::FromVector(std::vector<float>(8)));
  const FixedPointCodec codec(spec.clip, spec.max_summands, spec.ring_bits);
  const std::vector<std::uint32_t> agreed =
      AgreedIndexSet(spec.index_seed, spec.total, spec.keep);
  std::vector<std::uint32_t> sum(spec.vector_length(), 0);
  std::vector<std::int64_t> quantized(spec.keep, 0);
  for (const float weight : {3.0f, 5.0f, 7.0f}) {
    const std::vector<float> update = RandomUpdate(spec.total, rng, 1.5f);
    const auto words = EncodeSecAggInput(spec, update, weight);
    EXPECT_TRUE(words.ok()) << words.status();
    for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += (*words)[i];
    for (std::size_t i = 0; i < spec.keep; ++i) {
      quantized[i] += std::llround(
          static_cast<double>(update[agreed[i]]) * codec.scale());
    }
  }
  for (auto& w : sum) w &= codec.ring_mask();
  auto partial = DecodeSecAggSum(spec, sum, 3, schema);
  EXPECT_TRUE(partial.ok()) << partial.status();
  const float rescale =
      static_cast<float>(spec.total) / static_cast<float>(spec.keep);
  std::vector<float> expected(spec.total, 0.0f);
  for (std::size_t i = 0; i < spec.keep; ++i) {
    const auto q = static_cast<float>(static_cast<double>(quantized[i]) /
                                      codec.scale());
    expected[agreed[i]] = spec.keep == spec.total ? q : q * rescale;
  }
  return {std::move(partial).value(), expected};
}

TEST(CodecTest, SecAggDenseVectorRoundTripsToTheQuantizedSum) {
  const SecAggVectorSpec spec{.total = 40,
                              .keep = 40,
                              .clip = 2.0,
                              .max_summands = 4,
                              .ring_bits = 16,
                              .index_seed = 5};
  const auto [partial, expected] = SecAggRoundTrip(spec);
  EXPECT_EQ(partial.delta_sum.Flatten(), expected);
  EXPECT_EQ(partial.weight_sum, 15.0f);
  EXPECT_EQ(partial.contributors, 3u);
}

TEST(CodecTest, SecAggSparseVectorRoundTripsRescaled) {
  const SecAggVectorSpec spec{.total = 40,
                              .keep = KeepCount(40, 0.25),
                              .clip = 2.0,
                              .max_summands = 4,
                              .ring_bits = 32,
                              .index_seed = 11};
  ASSERT_EQ(spec.vector_length(), 11u);
  const auto [partial, expected] = SecAggRoundTrip(spec);
  const std::vector<float> flat = partial.delta_sum.Flatten();
  EXPECT_EQ(flat, expected);
  EXPECT_EQ(std::count(flat.begin(), flat.end(), 0.0f), 30);
  EXPECT_EQ(partial.weight_sum, 15.0f);
  // A vector of the wrong length is refused at both ends.
  EXPECT_FALSE(EncodeSecAggInput(spec, std::vector<float>(39), 1.0f).ok());
  EXPECT_FALSE(
      DecodeSecAggSum(spec, std::vector<std::uint32_t>(40), 1, {}).ok());
}

TEST(CodecTest, WireAccountingMatchesCompressedUpdateFraming) {
  // Every configuration is charged the same per-update framing constant, so
  // ratios are directly comparable in BENCH_wire.json.
  Rng rng(18);
  const std::vector<float> update = RandomUpdate(1000, rng);
  const EncodedUpdate enc = EncodeUpdate(update, Config(false, 1.0, 32), 1);
  EXPECT_EQ(enc.WireBytes(), enc.payload.size() + kUpdateWireOverheadBytes);
  // Dense float32 payload ~= raw size, so the ratio sits just under 1.
  EXPECT_GT(enc.CompressionRatio(), 0.95);
  EXPECT_LE(enc.CompressionRatio(), 1.0);
  // int8 + top-k 25% reaches the headline >= 4x upload reduction.
  const EncodedUpdate squeezed =
      EncodeUpdate(update, Config(false, 0.25, 8), 1);
  EXPECT_GE(squeezed.CompressionRatio(), 4.0);
}

}  // namespace
}  // namespace fl::fedavg
