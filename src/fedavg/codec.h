// Pluggable update codec layer (paper Sec. 9/11: per-device upload bytes
// dominate fleet cost). Composable stages — delta-vs-reference encoding,
// top-k sparsification with index bitmaps, and b-bit linear quantization
// with stochastic rounding — selected per-plan via
// protocol::WireCodecConfig. The device encodes on upload, the Aggregator
// decodes and accumulates; the payload is self-describing except for the
// optional delta reference, which both ends must already hold.
//
// The SecAgg section at the bottom owns the Secure Aggregation input-vector
// format: which coordinates are masked, their fixed-point scale, the
// trailing weight word and the rescale. Sparsification under Secure
// Aggregation cannot be per-device (masked sums only cancel when every
// participant masks the same coordinates), so the cohort agrees on a
// pseudorandom index subset derived from a seed the server ships with the
// task assignment.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/fedavg/server_aggregate.h"
#include "src/protocol/round_config.h"

namespace fl::fedavg {

// Transport framing charged to every encoded update on the wire (report
// headers: ids, lengths, checksum), so byte accounting and compression
// ratios compare like for like across codec configurations.
inline constexpr std::size_t kUpdateWireOverheadBytes = 32;

struct EncodedUpdate {
  Bytes payload;  // complete codec output: header + indices + values
  std::size_t original_floats = 0;

  // Total on-wire bytes: payload plus the shared transport framing.
  std::size_t WireBytes() const {
    return payload.size() + kUpdateWireOverheadBytes;
  }
  double CompressionRatio() const {
    const double raw =
        static_cast<double>(original_floats) * sizeof(float);
    return payload.empty() ? 1.0 : raw / static_cast<double>(WireBytes());
  }
};

// Encodes `update` through the configured stages in order
// delta -> top-k -> quantization. `seed` drives stochastic rounding only;
// decoding does not need it. `reference` is required iff config.delta and
// must match `update` in length.
EncodedUpdate EncodeUpdate(std::span<const float> update,
                           const protocol::WireCodecConfig& config,
                           std::uint64_t seed,
                           std::span<const float> reference = {});

// Inverts EncodeUpdate. Coordinates dropped by top-k decode to the
// reference value (delta on) or zero. Pass the same `reference` the
// encoder used. Every declared count is checked against the bytes left
// before anything is allocated, so hostile payloads fail with DataLoss.
// `expected_count`, when given, is the only bound on the length a top-k
// payload with varint indices may declare: callers decoding untrusted bytes
// pass the model size they will unflatten into.
Result<std::vector<float>> DecodeUpdate(
    std::span<const std::uint8_t> payload,
    std::span<const float> reference = {},
    std::optional<std::size_t> expected_count = std::nullopt);

// ---------------------------------------------------------------------------
// SecAgg input-vector format (cohort-agreed sparsification).
// ---------------------------------------------------------------------------

// Number of coordinates kept from `total` under `keep_fraction`: at least
// one, at most all, ceil otherwise.
std::size_t KeepCount(std::size_t total, double keep_fraction);

// The cohort-agreed coordinate subset: `keep` distinct indices into
// [0, total), sorted ascending, a pure function of the seed. Every cohort
// member (and the Aggregator) derives the same set, so masked sums line up
// coordinate-for-coordinate and the Bonawitz algebra is untouched.
std::vector<std::uint32_t> AgreedIndexSet(std::uint64_t seed,
                                          std::size_t total,
                                          std::size_t keep);

// Everything device and Aggregator must agree on for masked sums to decode:
// the Aggregator fixes one spec per round and ships it with every task
// assignment. The masked vector is `keep` fixed-point coordinates (all of
// them when keep == total, else the AgreedIndexSet(index_seed, total, keep)
// subset) followed by one integer weight word.
struct SecAggVectorSpec {
  std::size_t total = 0;  // flat update length
  std::size_t keep = 0;   // masked coordinates, <= total
  double clip = 4.0;      // fixed-point clip (FixedPointCodec)
  // Cohort cap the fixed-point scale is sized for (no overflow up to this
  // many summands).
  std::uint32_t max_summands = 2;
  std::uint8_t ring_bits = 32;  // masked words are r-bit ring elements
  std::uint64_t index_seed = 0;

  std::size_t vector_length() const { return keep + 1; }
};

// Device side: quantizes the flat weighted delta (length spec.total) and
// its weight into the spec.vector_length() words SecAgg masks.
Result<std::vector<std::uint32_t>> EncodeSecAggInput(
    const SecAggVectorSpec& spec, std::span<const float> weighted_delta,
    float weight);

// Aggregator side: turns the unmasked sum of `contributors` encodings into
// a partial aggregate shaped like `schema`. A sparse sum is rescaled by
// total/keep so it is an unbiased estimate of the dense one. The weight
// word decodes as a raw reduced value (weights are non-negative), which
// bounds legal weight sums to the ring width.
Result<PartialAggregate> DecodeSecAggSum(const SecAggVectorSpec& spec,
                                         std::span<const std::uint32_t> sum,
                                         std::size_t contributors,
                                         const Checkpoint& schema);

}  // namespace fl::fedavg
