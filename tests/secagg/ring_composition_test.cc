// SecAgg x wire-codec composition (ISSUE 6 tentpole): quantize to the
// fixed-point ring Z_{2^r} before masking, mask only the cohort-agreed
// coordinate subset, and check that the unmasked quantized sum is
// bit-exact against the same quantized sum computed without any masking —
// the Bonawitz masked-sum algebra must be untouched by ring shrinking and
// sparsification.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/common/fixed_point.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/fedavg/codec.h"
#include "src/secagg/client.h"
#include "src/secagg/server.h"
#include "src/secagg/types.h"

namespace fl::secagg {
namespace {

crypto::Key256 ClientRandomness(Rng& rng) {
  crypto::Key256 k;
  for (auto& b : k) b = static_cast<std::uint8_t>(rng.Next());
  return k;
}

// Full four-round protocol, ring-aware. drop_after[i] in 0..4 as in
// secagg_test.cc; also captures the masked words each client shipped so
// tests can assert they fit the ring.
struct RingRun {
  std::vector<std::vector<std::uint32_t>> inputs;
  std::vector<int> drop_after;
  std::size_t threshold = 2;
  std::uint8_t ring_bits = 32;
  common::ThreadPool* pool = nullptr;  // optional fast-path compute pool
  std::vector<std::vector<std::uint32_t>> shipped_words;

  Result<std::vector<std::uint32_t>> Execute(std::uint64_t seed = 7) {
    const std::size_t n = inputs.size();
    const std::size_t veclen = inputs[0].size();
    Rng rng(seed);
    std::vector<SecAggClient> clients;
    clients.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      clients.emplace_back(static_cast<ParticipantIndex>(i + 1), threshold,
                           veclen, ClientRandomness(rng), ring_bits);
      clients.back().SetThreadPool(pool);
    }
    SecAggServer server(threshold, veclen, ring_bits);
    server.SetThreadPool(pool);

    for (std::size_t i = 0; i < n; ++i) {
      if (drop_after[i] < 1) continue;
      FL_RETURN_IF_ERROR(
          server.CollectAdvertisement(clients[i].AdvertiseKeys()));
    }
    FL_ASSIGN_OR_RETURN(KeyDirectory directory, server.FinishAdvertising());

    for (std::size_t i = 0; i < n; ++i) {
      if (drop_after[i] < 2) continue;
      if (directory.count(static_cast<ParticipantIndex>(i + 1)) == 0) continue;
      FL_ASSIGN_OR_RETURN(ShareKeysMessage msg,
                          clients[i].ShareKeys(directory));
      FL_RETURN_IF_ERROR(server.CollectShares(msg));
    }
    FL_ASSIGN_OR_RETURN(std::vector<ParticipantIndex> u1,
                        server.FinishSharing());
    for (std::size_t i = 0; i < n; ++i) {
      if (drop_after[i] < 3) continue;
      for (const EncryptedShare& s :
           server.SharesFor(static_cast<ParticipantIndex>(i + 1))) {
        clients[i].ReceiveShare(s);
      }
    }

    shipped_words.assign(n, {});
    for (std::size_t i = 0; i < n; ++i) {
      if (drop_after[i] < 3) continue;
      const bool in_u1 =
          std::find(u1.begin(), u1.end(),
                    static_cast<ParticipantIndex>(i + 1)) != u1.end();
      if (!in_u1) continue;
      FL_ASSIGN_OR_RETURN(MaskedInput masked,
                          clients[i].MaskInput(inputs[i], u1));
      shipped_words[i] = masked.masked;
      FL_RETURN_IF_ERROR(server.CollectMaskedInput(masked));
    }
    FL_ASSIGN_OR_RETURN(UnmaskingRequest request, server.FinishCommit());

    for (std::size_t i = 0; i < n; ++i) {
      if (drop_after[i] < 4) continue;
      const bool survivor =
          std::find(request.survivors.begin(), request.survivors.end(),
                    static_cast<ParticipantIndex>(i + 1)) !=
          request.survivors.end();
      if (!survivor) continue;
      FL_ASSIGN_OR_RETURN(UnmaskingResponse resp, clients[i].Unmask(request));
      FL_RETURN_IF_ERROR(server.CollectUnmaskingResponse(resp));
    }
    return server.Finalize();
  }
};

TEST(RingCompositionTest, FixedPointRingRoundTripsSignedValues) {
  for (std::uint8_t r : {8, 12, 16, 24, 32}) {
    FixedPointCodec codec(2.0, 4, r);
    for (float v : {-1.9f, -0.5f, 0.0f, 0.25f, 1.9f}) {
      const std::uint32_t q = codec.Encode(v);
      EXPECT_LE(q, codec.ring_mask()) << "r=" << int(r);
      EXPECT_NEAR(codec.Decode(q), v, codec.resolution() * 1.001)
          << "r=" << int(r) << " v=" << v;
    }
  }
}

TEST(RingCompositionTest, UnmaskedRingSumBitExactVsPlainQuantizedSum) {
  const std::uint8_t ring_bits = 16;
  const std::size_t n = 5;
  const std::size_t veclen = 33;
  FixedPointCodec codec(4.0, static_cast<std::uint32_t>(n), ring_bits);
  Rng rng(21);

  RingRun run;
  run.ring_bits = ring_bits;
  run.threshold = 3;
  run.drop_after.assign(n, 4);
  std::vector<std::uint32_t> plain_sum(veclen, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<float> update(veclen);
    for (auto& x : update) {
      x = 4.0f * (2.0f * static_cast<float>(rng.NextDouble()) - 1.0f);
    }
    std::vector<std::uint32_t> q = codec.EncodeVector(update);
    for (std::size_t j = 0; j < veclen; ++j) {
      plain_sum[j] = (plain_sum[j] + q[j]) & codec.ring_mask();
    }
    run.inputs.push_back(std::move(q));
  }

  auto sum = run.Execute();
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  ASSERT_EQ(sum->size(), veclen);
  for (std::size_t j = 0; j < veclen; ++j) {
    EXPECT_EQ((*sum)[j], plain_sum[j]) << j;  // bit-exact, same cohort/seeds
  }
  // Every masked word a client shipped fits the ring, so the wire carries
  // ceil(r/8) bytes per word instead of 4.
  for (const auto& words : run.shipped_words) {
    for (std::uint32_t w : words) EXPECT_LE(w, 0xFFFFu);
  }
  EXPECT_EQ(MaskedVectorWireBytes(veclen, ring_bits), veclen * 2u);
  EXPECT_EQ(MaskedVectorWireBytes(veclen, 32), veclen * 4u);
}

TEST(RingCompositionTest, RingSumSurvivesDropouts) {
  const std::uint8_t ring_bits = 20;
  const std::size_t n = 6;
  const std::size_t veclen = 17;
  FixedPointCodec codec(1.0, static_cast<std::uint32_t>(n), ring_bits);
  Rng rng(22);

  RingRun run;
  run.ring_bits = ring_bits;
  run.threshold = 4;
  run.drop_after = {4, 4, 2, 4, 3, 4};  // one drops pre-commit, one after
  std::vector<std::uint32_t> expected(veclen, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<float> update(veclen);
    for (auto& x : update) {
      x = static_cast<float>(rng.NextDouble()) - 0.5f;
    }
    std::vector<std::uint32_t> q = codec.EncodeVector(update);
    if (run.drop_after[i] >= 3) {  // committed a masked input
      for (std::size_t j = 0; j < veclen; ++j) {
        expected[j] = (expected[j] + q[j]) & codec.ring_mask();
      }
    }
    run.inputs.push_back(std::move(q));
  }

  auto sum = run.Execute(9);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  for (std::size_t j = 0; j < veclen; ++j) {
    EXPECT_EQ((*sum)[j], expected[j]) << j;
  }
}

TEST(RingCompositionTest, SparseCompositionDecodesAgreedSubset) {
  // The device-agent composition in miniature, through the shared format:
  // dense float updates are encoded with one spec (only AgreedIndexSet
  // coordinates plus a weight word get masked), and the unmasked sum decodes
  // into a dense partial aggregate with the total/keep rescale.
  const std::size_t n = 4;
  const fedavg::SecAggVectorSpec spec{
      .total = 40,
      .keep = fedavg::KeepCount(40, 0.25),
      .clip = 4.0,
      .max_summands = static_cast<std::uint32_t>(n),
      .ring_bits = 16,
      .index_seed = 77};
  ASSERT_EQ(spec.keep, 10u);
  const std::uint32_t ring_mask = (1u << spec.ring_bits) - 1u;
  Rng rng(23);

  RingRun run;
  run.ring_bits = spec.ring_bits;
  run.threshold = 3;
  run.drop_after.assign(n, 4);
  std::vector<std::uint32_t> expected(spec.vector_length(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<float> dense(spec.total);
    for (auto& x : dense) {
      x = 2.0f * static_cast<float>(rng.NextDouble()) - 1.0f;
    }
    auto words = fedavg::EncodeSecAggInput(spec, dense,
                                           static_cast<float>(i + 1));
    ASSERT_TRUE(words.ok()) << words.status();
    for (std::size_t j = 0; j < words->size(); ++j) {
      expected[j] = (expected[j] + (*words)[j]) & ring_mask;
    }
    run.inputs.push_back(std::move(words).value());
  }

  auto sum = run.Execute(31);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  ASSERT_EQ(sum->size(), spec.vector_length());
  for (std::size_t j = 0; j < sum->size(); ++j) {
    EXPECT_EQ((*sum)[j], expected[j]) << j;
  }
  // Aggregator-side decode: kept coordinates rescaled, the rest zero; the
  // weight word is a plain unsigned ring value.
  Checkpoint schema;
  schema.Put("w", Tensor::FromVector(std::vector<float>(spec.total)));
  const auto partial = fedavg::DecodeSecAggSum(spec, *sum, n, schema);
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_EQ(partial->weight_sum, 1.0f + 2.0f + 3.0f + 4.0f);
  std::size_t nonzero = 0;
  for (float v : partial->delta_sum.Flatten()) nonzero += (v != 0.0f) ? 1 : 0;
  EXPECT_LE(nonzero, spec.keep);
}

TEST(RingCompositionTest, RingAlgebraIdenticalAcrossThreadCounts) {
  // The parallel fast path must not perturb the ring algebra: the same
  // (seed, cohort, dropout, ring) scenario recovers a bit-identical sum
  // whether masks are expanded serially or sharded over any pool size.
  const std::uint8_t ring_bits = 20;
  const std::size_t n = 6;
  const std::size_t veclen = 129;  // crosses a multi-block stride boundary
  Rng rng(31337);

  RingRun run;
  run.ring_bits = ring_bits;
  run.threshold = 4;
  run.drop_after = {4, 2, 4, 4, 3, 4};  // pre-commit and post-commit drops
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::uint32_t> q(veclen);
    for (auto& w : q) {
      w = static_cast<std::uint32_t>(rng.Next()) & ((1u << ring_bits) - 1u);
    }
    run.inputs.push_back(std::move(q));
  }

  auto serial = run.Execute(5);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (std::size_t threads : {1u, 2u, 8u}) {
    common::ThreadPool pool(threads);
    run.pool = &pool;
    auto parallel = run.Execute(5);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(*parallel, *serial) << "threads=" << threads;
    run.pool = nullptr;
  }
}

}  // namespace
}  // namespace fl::secagg
