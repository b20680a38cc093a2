// Seeded mutational fuzzing of the two formats an Aggregator parses out of
// device uploads: FLW1 codec payloads (fedavg::DecodeUpdate) and raw
// checkpoints (Checkpoint::Deserialize). The corpora come from the encoders
// themselves; mutations are bit flips, truncation, splicing two inputs, and
// overwriting a varint field with a huge value. Checkpoint mutants get their
// trailing CRC recomputed so the body parser is reached. Invariant: a parser
// never throws or aborts — it returns a value or a Status error — and
// unmutated inputs round-trip exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/fedavg/codec.h"
#include "src/graph/model_zoo.h"
#include "src/tensor/checkpoint.h"

namespace fl::fedavg {
namespace {

constexpr std::uint64_t kHugeValues[] = {
    std::uint64_t{1} << 32, (std::uint64_t{1} << 32) + 1,
    std::uint64_t{1} << 40, std::uint64_t{1} << 62, ~std::uint64_t{0}};

Bytes Varint(std::uint64_t v) {
  BytesWriter w;
  w.WriteVarint(v);
  return std::move(w).Take();
}

// Replaces the varint at `at` (or the rest of the input, if none parses
// there) with `value`.
Bytes OverwriteVarint(const Bytes& input, std::size_t at, std::uint64_t value) {
  BytesReader r(std::span<const std::uint8_t>(input).subspan(at));
  const std::size_t old_len =
      r.ReadVarint().ok() ? r.position() : input.size() - at;
  Bytes out(input.begin(), input.begin() + static_cast<std::ptrdiff_t>(at));
  const Bytes v = Varint(value);
  out.insert(out.end(), v.begin(), v.end());
  out.insert(out.end(),
             input.begin() + static_cast<std::ptrdiff_t>(at + old_len),
             input.end());
  return out;
}

// Applies one random mutation. `varint_offsets` are the positions of the
// input's varint fields; the huge-value mutation targets one of them.
Bytes Mutate(const Bytes& input, const Bytes& other,
             const std::vector<std::size_t>& varint_offsets, Rng& rng) {
  Bytes out = input;
  switch (rng.UniformInt(4)) {
    case 0: {  // bit flips
      const int flips = 1 + static_cast<int>(rng.UniformInt(4));
      for (int f = 0; f < flips && !out.empty(); ++f) {
        out[rng.UniformInt(out.size())] ^=
            static_cast<std::uint8_t>(1u << rng.UniformInt(8));
      }
      break;
    }
    case 1:  // truncation
      out.resize(rng.UniformInt(out.size() + 1));
      break;
    case 2: {  // splice: a prefix of this input, a suffix of another
      out.resize(rng.UniformInt(out.size() + 1));
      const std::size_t from = rng.UniformInt(other.size() + 1);
      out.insert(out.end(), other.begin() + static_cast<std::ptrdiff_t>(from),
                 other.end());
      break;
    }
    default:  // a varint field overwritten with a huge value
      out = OverwriteVarint(
          out, varint_offsets[rng.UniformInt(varint_offsets.size())],
          kHugeValues[rng.UniformInt(std::size(kHugeValues))]);
      break;
  }
  return out;
}

// Varint positions in an FLW1 header: the coordinate count and, for top-k
// payloads, the kept count.
std::vector<std::size_t> CodecVarintOffsets(const Bytes& payload) {
  std::vector<std::size_t> offsets = {5};
  BytesReader r(std::span<const std::uint8_t>(payload).subspan(5));
  const std::uint8_t flags = payload[4];
  (void)r.ReadVarint();
  if ((flags & 0x04) != 0) (void)r.ReadU8();
  if ((flags & 0x02) != 0) offsets.push_back(5 + r.position());
  return offsets;
}

// Varint positions in a serialized checkpoint: tensor count, then per
// tensor the name length, rank, every dim and the float count.
std::vector<std::size_t> CheckpointVarintOffsets(const Bytes& bytes) {
  std::vector<std::size_t> offsets;
  BytesReader r(std::span<const std::uint8_t>(bytes).first(bytes.size() - 4));
  for (int i = 0; i < 6; ++i) (void)r.ReadU8();  // magic + version
  offsets.push_back(r.position());
  const std::uint64_t count = *r.ReadVarint();
  for (std::uint64_t t = 0; t < count; ++t) {
    offsets.push_back(r.position());
    (void)r.ReadString();
    offsets.push_back(r.position());
    const std::uint64_t rank = *r.ReadVarint();
    for (std::uint64_t d = 0; d < rank; ++d) {
      offsets.push_back(r.position());
      (void)r.ReadVarint();
    }
    offsets.push_back(r.position());
    (void)r.ReadF32Vector();
  }
  return offsets;
}

// Rewrites the trailing CRC32 so a mutated body passes the integrity check.
void FixCrc(Bytes& bytes) {
  if (bytes.size() < 4) return;
  const std::size_t body = bytes.size() - 4;
  const std::uint32_t crc =
      Crc32(std::span<const std::uint8_t>(bytes).first(body));
  for (int i = 0; i < 4; ++i) {
    bytes[body + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

std::vector<Checkpoint> ModelZooCheckpoints() {
  Rng rng(7);
  return {graph::BuildLogisticRegression(8, 4, rng).init_params,
          graph::BuildMlp(6, 8, 3, rng).init_params,
          graph::BuildNextWordModel(40, 3, 8, 16, rng).init_params,
          graph::BuildRankingModel(10, 12, rng).init_params};
}

struct CodecCase {
  Bytes payload;
  std::vector<float> reference;  // non-empty iff delta-coded
  std::size_t count = 0;
};

std::vector<CodecCase> CodecCorpus() {
  std::vector<CodecCase> corpus;
  std::uint64_t seed = 1;
  for (const Checkpoint& ckpt : ModelZooCheckpoints()) {
    const std::vector<float> update = ckpt.Flatten();
    std::vector<float> reference(update.size());
    for (std::size_t i = 0; i < update.size(); ++i) {
      reference[i] = 0.5f * update[(i * 7) % update.size()];
    }
    for (bool delta : {false, true}) {
      for (double topk : {1.0, 0.25, 0.01}) {
        for (std::uint8_t bits : {32, 8, 4, 2}) {
          protocol::WireCodecConfig config;
          config.delta = delta;
          config.topk_fraction = topk;
          config.quant_bits = bits;
          CodecCase c;
          if (delta) c.reference = reference;
          c.payload = EncodeUpdate(update, config, seed++, c.reference).payload;
          c.count = update.size();
          corpus.push_back(std::move(c));
        }
      }
    }
  }
  return corpus;
}

TEST(UploadFuzzTest, CodecPayloadsRoundTripAndSurviveMutation) {
  // Lossless configurations reproduce the input bit for bit.
  const std::vector<float> update = ModelZooCheckpoints()[1].Flatten();
  const auto dense = DecodeUpdate(EncodeUpdate(update, {}, 1).payload);
  ASSERT_TRUE(dense.ok());
  EXPECT_EQ(*dense, update);

  const std::vector<CodecCase> corpus = CodecCorpus();
  Rng rng(0xF1A7);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const CodecCase& c = corpus[i];
    const auto clean = DecodeUpdate(c.payload, c.reference, c.count);
    ASSERT_TRUE(clean.ok()) << clean.status();
    EXPECT_EQ(clean->size(), c.count);
    const std::vector<std::size_t> offsets = CodecVarintOffsets(c.payload);
    for (int trial = 0; trial < 60; ++trial) {
      const Bytes& other = corpus[rng.UniformInt(corpus.size())].payload;
      const Bytes mutant = Mutate(c.payload, other, offsets, rng);
      EXPECT_NO_THROW({
        const auto decoded = DecodeUpdate(mutant, c.reference, c.count);
        if (decoded.ok()) {
          EXPECT_EQ(decoded->size(), c.count);
        }
      }) << "corpus " << i << " trial " << trial;
    }
  }
}

TEST(UploadFuzzTest, CheckpointsRoundTripAndSurviveMutation) {
  std::vector<Bytes> corpus;
  for (const Checkpoint& ckpt : ModelZooCheckpoints()) {
    corpus.push_back(ckpt.Serialize());
    const auto back = Checkpoint::Deserialize(corpus.back());
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(*back, ckpt);
  }
  Rng rng(0xC4EC);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const std::vector<std::size_t> offsets =
        CheckpointVarintOffsets(corpus[i]);
    for (int trial = 0; trial < 300; ++trial) {
      Bytes mutant = Mutate(corpus[i], corpus[rng.UniformInt(corpus.size())],
                            offsets, rng);
      FixCrc(mutant);
      EXPECT_NO_THROW({
        const auto parsed = Checkpoint::Deserialize(mutant);
        if (!parsed.ok()) {
          EXPECT_EQ(parsed.status().code(), ErrorCode::kDataLoss);
        }
      }) << "corpus " << i << " trial " << trial;
    }
  }
}

// "FLW1", dense float32, declared length 2^40: used to allocate 4 TiB
// before reading a single value.
TEST(UploadFuzzTest, HostileCodecLengthIsDataLoss) {
  Bytes payload = {'F', 'L', 'W', '1', 0x00};
  const Bytes total = Varint(std::uint64_t{1} << 40);
  payload.insert(payload.end(), total.begin(), total.end());
  ASSERT_EQ(payload.size(), 11u);
  const auto unbounded = DecodeUpdate(payload);
  ASSERT_FALSE(unbounded.ok());
  EXPECT_EQ(unbounded.status().code(), ErrorCode::kDataLoss);
  const auto bounded = DecodeUpdate(payload, {}, 100);
  ASSERT_FALSE(bounded.ok());
  EXPECT_EQ(bounded.status().code(), ErrorCode::kDataLoss);

  // The largest length indices can address, dense and int8: the declared
  // values must be checked against the bytes left, not allocated.
  for (const std::uint8_t flags : {0x00, 0x04}) {
    Bytes at_cap = {'F', 'L', 'W', '1', flags};
    const Bytes cap = Varint(std::uint64_t{1} << 32);
    at_cap.insert(at_cap.end(), cap.begin(), cap.end());
    if (flags != 0) at_cap.insert(at_cap.end(), {8, 0, 0, 0x80, 0x3f});
    const auto decoded = DecodeUpdate(at_cap);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), ErrorCode::kDataLoss);
  }
}

// A float count of 2^62 makes count * sizeof(float) wrap to 0, which used to
// pass the bounds check and throw from std::vector.
TEST(UploadFuzzTest, WrappingFloatCountIsDataLoss) {
  Bytes raw = Varint(std::uint64_t{1} << 62);
  raw.insert(raw.end(), {0, 0, 0, 0});
  BytesReader r(raw);
  const auto floats = r.ReadF32Vector();
  ASSERT_FALSE(floats.ok());
  EXPECT_EQ(floats.status().code(), ErrorCode::kDataLoss);

  // The same field reached through the raw upload path: the float count of
  // a checkpoint's last tensor, with the CRC made to match.
  const Bytes clean = ModelZooCheckpoints()[0].Serialize();
  Bytes ckpt = OverwriteVarint(clean, CheckpointVarintOffsets(clean).back(),
                               std::uint64_t{1} << 62);
  FixCrc(ckpt);
  const auto parsed = Checkpoint::Deserialize(ckpt);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), ErrorCode::kDataLoss);
}

}  // namespace
}  // namespace fl::fedavg
