#include "src/fedavg/codec.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <string>

#include "src/common/fixed_point.h"
#include "src/common/rng.h"

namespace fl::fedavg {
namespace {

constexpr char kMagic[4] = {'F', 'L', 'W', '1'};

// Header flag bits.
constexpr std::uint8_t kFlagDelta = 0x01;
constexpr std::uint8_t kFlagTopK = 0x02;
constexpr std::uint8_t kFlagQuant = 0x04;

// Index encodings for the top-k stage.
constexpr std::uint8_t kIndexBitmap = 0;
constexpr std::uint8_t kIndexVarint = 1;

// Little-endian bit packing: `bits` bits per level.
void PackBits(BytesWriter& w, std::span<const std::uint32_t> levels,
              std::uint8_t bits) {
  std::uint64_t acc = 0;
  int filled = 0;
  for (std::uint32_t level : levels) {
    acc |= static_cast<std::uint64_t>(level) << filled;
    filled += bits;
    while (filled >= 8) {
      w.WriteU8(static_cast<std::uint8_t>(acc));
      acc >>= 8;
      filled -= 8;
    }
  }
  if (filled > 0) w.WriteU8(static_cast<std::uint8_t>(acc));
}

Result<std::vector<std::uint32_t>> UnpackBits(BytesReader& r,
                                              std::uint64_t count,
                                              std::uint8_t bits) {
  // count * bits <= 8 * remaining, written so that neither side overflows.
  if (count > r.remaining() * 8 / bits) {
    return DataLossError("truncated bit-packed values");
  }
  std::vector<std::uint32_t> levels(count);
  std::uint64_t acc = 0;
  int filled = 0;
  const std::uint32_t mask = (1u << bits) - 1;
  for (auto& level : levels) {
    while (filled < bits) {
      FL_ASSIGN_OR_RETURN(std::uint8_t b, r.ReadU8());
      acc |= static_cast<std::uint64_t>(b) << filled;
      filled += 8;
    }
    level = static_cast<std::uint32_t>(acc) & mask;
    acc >>= bits;
    filled -= bits;
  }
  return levels;
}

std::size_t VarintDeltaBytes(std::span<const std::uint32_t> indices) {
  std::size_t bytes = 0;
  std::uint32_t prev = 0;
  for (std::uint32_t idx : indices) {
    bytes += VarintSize(idx - prev);
    prev = idx;
  }
  return bytes;
}

// Symmetric b-bit quantization with stochastic rounding: q in
// [-qmax, qmax] stored as level q + qmax. E[decode] == value given the
// deterministic scale, which is what the unbiasedness test asserts.
void WriteQuantized(BytesWriter& w, std::span<const float> values,
                    std::uint8_t bits, Rng& rng) {
  const auto qmax =
      static_cast<std::int32_t>((1u << (bits - 1)) - 1u);
  float max_abs = 0.0f;
  for (float v : values) max_abs = std::max(max_abs, std::abs(v));
  w.WriteF32(max_abs);
  if (values.empty()) return;
  const double scale =
      max_abs > 0.0f ? static_cast<double>(qmax) / max_abs : 0.0;
  std::vector<std::uint32_t> levels(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double x = static_cast<double>(values[i]) * scale;
    const double floor_x = std::floor(x);
    const double frac = x - floor_x;
    auto q = static_cast<std::int32_t>(floor_x) +
             (rng.NextDouble() < frac ? 1 : 0);
    q = std::clamp(q, -qmax, qmax);
    levels[i] = static_cast<std::uint32_t>(q + qmax);
  }
  PackBits(w, levels, bits);
}

Result<std::vector<float>> ReadQuantized(BytesReader& r, std::uint64_t count,
                                         std::uint8_t bits) {
  const auto qmax =
      static_cast<std::int32_t>((1u << (bits - 1)) - 1u);
  FL_ASSIGN_OR_RETURN(float max_abs, r.ReadF32());
  if (!(max_abs >= 0.0f) || !std::isfinite(max_abs)) {
    return DataLossError("bad quantization scale");
  }
  FL_ASSIGN_OR_RETURN(std::vector<std::uint32_t> levels,
                      UnpackBits(r, count, bits));
  std::vector<float> values(count);
  const double inv_scale =
      max_abs > 0.0f ? static_cast<double>(max_abs) / qmax : 0.0;
  const auto max_level = static_cast<std::uint32_t>(2 * qmax);
  for (std::size_t i = 0; i < count; ++i) {
    if (levels[i] > max_level) return DataLossError("quantized level range");
    const std::int32_t q = static_cast<std::int32_t>(levels[i]) - qmax;
    values[i] = static_cast<float>(q * inv_scale);
  }
  return values;
}

}  // namespace

EncodedUpdate EncodeUpdate(std::span<const float> update,
                           const protocol::WireCodecConfig& config,
                           std::uint64_t seed,
                           std::span<const float> reference) {
  FL_CHECK(config.quant_bits == 32 ||
           (config.quant_bits >= 2 && config.quant_bits <= 8));
  FL_CHECK(config.topk_fraction > 0.0 && config.topk_fraction <= 1.0);
  FL_CHECK_MSG(!config.delta || reference.size() == update.size(),
               "delta stage needs a reference of matching length");
  Rng rng(seed ^ 0xF1DC0DECull);

  // Stage 1: delta vs reference.
  std::vector<float> residual;
  std::span<const float> values = update;
  if (config.delta) {
    residual.resize(update.size());
    for (std::size_t i = 0; i < update.size(); ++i) {
      residual[i] = update[i] - reference[i];
    }
    values = residual;
  }

  // Stage 2: top-k selection over |value|.
  const bool topk = config.topk_fraction < 1.0 && !values.empty();
  std::vector<std::uint32_t> indices;
  std::vector<float> kept;
  if (topk) {
    // The k largest magnitudes, ties broken toward the lower index: select
    // the k-th largest magnitude on a copy, count the magnitudes strictly
    // above it, then keep every coordinate above it plus the first ties in
    // one ascending pass, so the indices come out sorted.
    const std::size_t k = KeepCount(values.size(), config.topk_fraction);
    std::vector<float> magnitude(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      magnitude[i] = std::abs(values[i]);
    }
    const auto kth = magnitude.begin() + static_cast<std::ptrdiff_t>(k - 1);
    std::nth_element(magnitude.begin(), kth, magnitude.end(),
                     std::greater<float>());
    const float threshold = *kth;
    std::size_t ties = k - static_cast<std::size_t>(std::count_if(
                               magnitude.begin(), kth,
                               [threshold](float m) { return m > threshold; }));
    indices.reserve(k);
    kept.reserve(k);
    for (std::size_t i = 0; i < values.size() && kept.size() < k; ++i) {
      const float m = std::abs(values[i]);
      if (m < threshold || (m == threshold && ties == 0)) continue;
      if (m == threshold) --ties;
      indices.push_back(static_cast<std::uint32_t>(i));
      kept.push_back(values[i]);
    }
    values = kept;
  }

  BytesWriter w;
  w.WriteRaw(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kMagic), 4));
  std::uint8_t flags = 0;
  if (config.delta) flags |= kFlagDelta;
  if (topk) flags |= kFlagTopK;
  if (config.quant_bits != 32) flags |= kFlagQuant;
  w.WriteU8(flags);
  w.WriteVarint(update.size());
  if ((flags & kFlagQuant) != 0) w.WriteU8(config.quant_bits);

  if (topk) {
    w.WriteVarint(values.size());
    // Index set: bitmap vs delta varints, whichever is smaller on the wire.
    const std::size_t bitmap_bytes = (update.size() + 7) / 8;
    if (bitmap_bytes <= VarintDeltaBytes(indices)) {
      w.WriteU8(kIndexBitmap);
      std::vector<std::uint8_t> bitmap(bitmap_bytes, 0);
      for (std::uint32_t idx : indices) {
        bitmap[idx >> 3] |= static_cast<std::uint8_t>(1u << (idx & 7));
      }
      w.WriteRaw(bitmap);
    } else {
      w.WriteU8(kIndexVarint);
      std::uint32_t prev = 0;
      for (std::uint32_t idx : indices) {
        w.WriteVarint(idx - prev);
        prev = idx;
      }
    }
  }

  if ((flags & kFlagQuant) != 0) {
    WriteQuantized(w, values, config.quant_bits, rng);
  } else {
    for (float v : values) w.WriteF32(v);
  }

  EncodedUpdate out;
  out.payload = std::move(w).Take();
  out.original_floats = update.size();
  return out;
}

Result<std::vector<float>> DecodeUpdate(
    std::span<const std::uint8_t> payload, std::span<const float> reference,
    std::optional<std::size_t> expected_count) {
  BytesReader r(payload);
  for (char expected : kMagic) {
    FL_ASSIGN_OR_RETURN(std::uint8_t b, r.ReadU8());
    if (static_cast<char>(b) != expected) {
      return DataLossError("bad encoded update magic");
    }
  }
  FL_ASSIGN_OR_RETURN(std::uint8_t flags, r.ReadU8());
  FL_ASSIGN_OR_RETURN(std::uint64_t total, r.ReadVarint());
  const bool delta = (flags & kFlagDelta) != 0;
  const bool topk = (flags & kFlagTopK) != 0;
  std::uint8_t bits = 32;
  if ((flags & kFlagQuant) != 0) {
    FL_ASSIGN_OR_RETURN(bits, r.ReadU8());
    if (bits < 2 || bits > 8) return DataLossError("bad quantization bits");
  }
  if (expected_count.has_value() && total != *expected_count) {
    return DataLossError("encoded update has " + std::to_string(total) +
                         " coordinates, expected " +
                         std::to_string(*expected_count));
  }
  // Indices are 32-bit on the wire.
  if (total > (std::uint64_t{1} << 32)) {
    return DataLossError("encoded update length out of range");
  }
  if (delta && reference.size() != total) {
    return InvalidArgumentError("delta-coded update needs its reference");
  }

  std::uint64_t kept = total;
  std::vector<std::uint32_t> indices;
  if (topk) {
    FL_ASSIGN_OR_RETURN(kept, r.ReadVarint());
    if (kept > total) return DataLossError("kept count exceeds total");
    FL_ASSIGN_OR_RETURN(std::uint8_t index_mode, r.ReadU8());
    if (index_mode == kIndexBitmap) {
      const std::uint64_t bitmap_bytes = (total + 7) / 8;
      if (bitmap_bytes > r.remaining()) {
        return DataLossError("truncated index bitmap");
      }
      indices.reserve(kept);
      for (std::uint64_t byte = 0; byte < bitmap_bytes; ++byte) {
        FL_ASSIGN_OR_RETURN(std::uint8_t b, r.ReadU8());
        for (int bit = 0; bit < 8 && byte * 8 + bit < total; ++bit) {
          if ((b >> bit) & 1) {
            indices.push_back(static_cast<std::uint32_t>(byte * 8 + bit));
          }
        }
      }
      if (indices.size() != kept) {
        return DataLossError("bitmap population mismatch");
      }
    } else if (index_mode == kIndexVarint) {
      // Every varint takes at least one byte.
      if (kept > r.remaining()) return DataLossError("truncated indices");
      indices.reserve(kept);
      std::uint32_t prev = 0;
      for (std::uint64_t i = 0; i < kept; ++i) {
        FL_ASSIGN_OR_RETURN(std::uint64_t d, r.ReadVarint());
        prev += static_cast<std::uint32_t>(d);
        if (prev >= total) return DataLossError("index out of range");
        indices.push_back(prev);
      }
    } else {
      return DataLossError("unknown index encoding");
    }
  }

  std::vector<float> values;
  if (bits != 32) {
    FL_ASSIGN_OR_RETURN(values, ReadQuantized(r, kept, bits));
  } else {
    if (kept > r.remaining() / sizeof(float)) {
      return DataLossError("truncated float values");
    }
    values.resize(kept);
    for (auto& v : values) {
      FL_ASSIGN_OR_RETURN(v, r.ReadF32());
    }
  }
  if (!r.AtEnd()) return DataLossError("trailing bytes in encoded update");

  std::vector<float> out(total, 0.0f);
  if (topk) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      out[indices[i]] = values[i];
    }
  } else {
    out = std::move(values);
  }
  if (delta) {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += reference[i];
  }
  return out;
}

std::size_t KeepCount(std::size_t total, double keep_fraction) {
  if (total == 0) return 0;
  if (keep_fraction >= 1.0) return total;
  const auto k = static_cast<std::size_t>(
      std::ceil(keep_fraction * static_cast<double>(total)));
  return std::clamp<std::size_t>(k, 1, total);
}

std::vector<std::uint32_t> AgreedIndexSet(std::uint64_t seed,
                                          std::size_t total,
                                          std::size_t keep) {
  FL_CHECK(keep <= total);
  std::vector<std::uint32_t> all(total);
  std::iota(all.begin(), all.end(), 0u);
  if (keep == total) return all;
  // Partial Fisher-Yates: the first `keep` slots end up a uniform sample
  // without replacement, deterministically in the seed.
  Rng rng(seed ^ 0xC0480127ull);
  for (std::size_t i = 0; i < keep; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.UniformInt(
                                  static_cast<std::uint64_t>(total - i)));
    std::swap(all[i], all[j]);
  }
  all.resize(keep);
  std::sort(all.begin(), all.end());
  return all;
}

Result<std::vector<std::uint32_t>> EncodeSecAggInput(
    const SecAggVectorSpec& spec, std::span<const float> weighted_delta,
    float weight) {
  if (weighted_delta.size() != spec.total) {
    return InvalidArgumentError("update does not match the secagg vector");
  }
  const FixedPointCodec codec(spec.clip, spec.max_summands, spec.ring_bits);
  const std::vector<std::uint32_t> agreed =
      AgreedIndexSet(spec.index_seed, spec.total, spec.keep);
  std::vector<std::uint32_t> words(spec.vector_length());
  for (std::size_t i = 0; i < spec.keep; ++i) {
    words[i] = codec.Encode(weighted_delta[agreed[i]]);
  }
  words[spec.keep] =
      static_cast<std::uint32_t>(std::lround(weight)) & codec.ring_mask();
  return words;
}

Result<PartialAggregate> DecodeSecAggSum(const SecAggVectorSpec& spec,
                                         std::span<const std::uint32_t> sum,
                                         std::size_t contributors,
                                         const Checkpoint& schema) {
  if (sum.size() != spec.vector_length()) {
    return InvalidArgumentError("sum does not match the secagg vector");
  }
  const FixedPointCodec codec(spec.clip, spec.max_summands, spec.ring_bits);
  // Dense (keep == total) is the identity subset with a rescale of exactly 1.
  const std::vector<std::uint32_t> agreed =
      AgreedIndexSet(spec.index_seed, spec.total, spec.keep);
  const float rescale =
      static_cast<float>(spec.total) / static_cast<float>(spec.keep);
  std::vector<float> flat(spec.total, 0.0f);
  for (std::size_t i = 0; i < spec.keep; ++i) {
    flat[agreed[i]] = codec.DecodeSum(sum[i]) * rescale;
  }
  PartialAggregate out;
  FL_ASSIGN_OR_RETURN(out.delta_sum, schema.Unflatten(flat));
  out.weight_sum = static_cast<float>(sum[spec.keep]);
  out.contributors = contributors;
  return out;
}

}  // namespace fl::fedavg
