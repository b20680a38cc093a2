#include "perfbench/src/probes.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "perfbench/src/perfbench.h"
#include "src/common/rng.h"
#include "src/device/attestation.h"
#include "src/fedavg/client_update.h"
#include "src/fedavg/codec.h"
#include "src/fedavg/server_aggregate.h"
#include "src/secagg/client.h"
#include "src/secagg/server.h"

namespace perfbench {

using fl::Rng;

AttestationProbe ProbeAttestation(std::uint64_t seed) {
  const fl::device::AttestationAuthority authority(seed ^ 0xa77e57ull);
  Rng rng(seed);
  constexpr int kBatches = 7;
  constexpr std::uint64_t kPairs = 20'000;
  std::vector<double> per_pair;
  bool ok = true;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kPairs; ++i) {
      const auto token = authority.Issue(fl::DeviceId{i}, rng.Next());
      ok = authority.Verify(token) && ok;
    }
    per_pair.push_back(NanosSince(t0) / static_cast<double>(kPairs));
  }
  const auto forged = authority.Forge(fl::DeviceId{1}, 7, seed);
  AttestationProbe probe;
  probe.pair_ns = Median(per_pair);
  probe.ok = ok && !authority.Verify(forged);
  return probe;
}

ClientUpdateProbe ProbeClientUpdate(
    const fl::plan::FLPlan& plan, const fl::Checkpoint& global,
    const std::vector<std::vector<fl::data::Example>>& device_data,
    std::uint64_t seed) {
  ClientUpdateProbe probe;
  probe.ok = !device_data.empty();
  Rng rng(seed);
  for (const auto& examples : device_data) {
    Rng shuffle = rng.Fork();
    const auto t0 = Clock::now();
    auto update = fl::fedavg::RunClientUpdate(
        plan.device, global, examples, plan.min_runtime_version, shuffle);
    probe.ms.push_back(NanosSince(t0) / 1e6);
    if (!update.ok()) {
      probe.ok = false;
      continue;
    }
    std::vector<float> flat = update->weighted_delta.Flatten();
    for (float v : flat) probe.ok = probe.ok && std::isfinite(v);
    probe.deltas.push_back(std::move(flat));
    probe.weights.push_back(update->weight);
  }
  return probe;
}

CodecProbe ProbeCodec(const std::vector<std::vector<float>>& deltas,
                      const fl::protocol::WireCodecConfig& codec,
                      std::uint64_t seed) {
  CodecProbe probe;
  probe.ok = !deltas.empty();
  std::vector<double> encode_us, decode_us, ratio;
  constexpr int kRepeats = 5;
  for (std::size_t d = 0; d < deltas.size(); ++d) {
    const std::vector<float>& flat = deltas[d];
    fl::fedavg::EncodedUpdate encoded;
    auto t0 = Clock::now();
    for (int r = 0; r < kRepeats; ++r) {
      encoded = fl::fedavg::EncodeUpdate(flat, codec, seed + d);
    }
    encode_us.push_back(NanosSince(t0) / 1e3 / kRepeats);
    fl::Result<std::vector<float>> decoded = std::vector<float>{};
    t0 = Clock::now();
    for (int r = 0; r < kRepeats; ++r) {
      decoded = fl::fedavg::DecodeUpdate(encoded.payload);
    }
    decode_us.push_back(NanosSince(t0) / 1e3 / kRepeats);
    ratio.push_back(encoded.CompressionRatio());
    if (!decoded.ok() || decoded->size() != flat.size()) {
      probe.ok = false;
      continue;
    }
    // Bound: the k-th largest magnitude (top-k may drop anything no larger)
    // and one quantisation step of the kept values.
    std::vector<float> mags(flat.size());
    for (std::size_t i = 0; i < flat.size(); ++i) mags[i] = std::abs(flat[i]);
    const std::size_t k =
        fl::fedavg::KeepCount(flat.size(), codec.topk_fraction);
    std::nth_element(mags.begin(), mags.begin() + static_cast<long>(k - 1),
                     mags.end(), std::greater<float>());
    const float kth = mags[k - 1];
    const float max_abs =
        *std::max_element(mags.begin(), mags.begin() + static_cast<long>(k));
    const double step =
        codec.quant_bits == 32
            ? 0.0
            : max_abs / static_cast<double>((1u << (codec.quant_bits - 1)) - 1);
    const double slack = 1e-5 * max_abs + 1e-7;
    for (std::size_t i = 0; i < flat.size(); ++i) {
      const double err = std::abs(static_cast<double>((*decoded)[i]) - flat[i]);
      const bool dropped = (*decoded)[i] == 0.0f && std::abs(flat[i]) <= kth;
      if (err > step + slack && !dropped) probe.ok = false;
    }
  }
  probe.encode_us = Median(encode_us);
  probe.decode_us = Median(decode_us);
  probe.ratio = Median(ratio);
  return probe;
}

double ProbeAccumulateMs(const fl::Checkpoint& schema,
                         const std::vector<std::vector<float>>& deltas,
                         const std::vector<float>& weights) {
  fl::fedavg::FedAvgAccumulator acc(fl::plan::AggregationOp::kWeightedFedAvg,
                                    schema);
  std::vector<double> ms;
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    auto delta = schema.Unflatten(deltas[i]);
    if (!delta.ok()) continue;
    const auto t0 = Clock::now();
    if (acc.Accumulate(std::move(delta).value(), weights[i], {}).ok()) {
      ms.push_back(NanosSince(t0) / 1e6);
    }
  }
  return Median(ms);
}

namespace {

fl::crypto::Key256 KeyFrom(Rng& rng) {
  fl::crypto::Key256 key;
  for (std::size_t i = 0; i < key.size(); i += 8) {
    const std::uint64_t v = rng.Next();
    std::memcpy(key.data() + i, &v, 8);
  }
  return key;
}

}  // namespace

SecAggProbe ProbeSecAgg(std::size_t cohort, std::size_t dropped,
                        std::size_t vector_length, double threshold_fraction,
                        std::uint8_t ring_bits, std::uint64_t seed) {
  using fl::secagg::ParticipantIndex;
  SecAggProbe probe;
  Rng rng(seed);
  const std::size_t threshold = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::ceil(threshold_fraction *
                                            static_cast<double>(cohort))));
  dropped = std::min(dropped, cohort - threshold);
  const std::uint32_t ring_mask =
      ring_bits == 32 ? 0xFFFFFFFFu : ((1u << ring_bits) - 1u);

  std::vector<fl::secagg::SecAggClient> clients;
  clients.reserve(cohort);
  for (std::size_t i = 0; i < cohort; ++i) {
    clients.emplace_back(static_cast<ParticipantIndex>(i + 1), threshold,
                         vector_length, KeyFrom(rng), ring_bits);
  }
  fl::secagg::SecAggServer server(threshold, vector_length, ring_bits);
  bool ok = true;

  auto t0 = Clock::now();
  for (auto& c : clients) {
    ok = server.CollectAdvertisement(c.AdvertiseKeys()).ok() && ok;
  }
  auto directory = server.FinishAdvertising();
  if (!directory.ok()) return probe;
  for (auto& c : clients) {
    auto msg = c.ShareKeys(*directory);
    ok = msg.ok() && server.CollectShares(*msg).ok() && ok;
  }
  probe.share_keys_ms = NanosSince(t0) / 1e6 / static_cast<double>(cohort);
  auto u1 = server.FinishSharing();
  if (!u1.ok()) return probe;
  for (std::size_t i = 0; i < cohort; ++i) {
    const auto index = static_cast<ParticipantIndex>(i + 1);
    for (const auto& s : server.SharesFor(index)) clients[i].ReceiveShare(s);
  }

  // The last `dropped` members never commit: their pairwise masks must be
  // recovered at Finalize.
  const std::size_t survivors = cohort - dropped;
  std::vector<std::uint32_t> plain_sum(vector_length, 0);
  double mask_ns = 0;
  for (std::size_t i = 0; i < survivors; ++i) {
    std::vector<std::uint32_t> input(vector_length);
    for (auto& w : input) {
      w = static_cast<std::uint32_t>(rng.Next()) & ring_mask;
    }
    for (std::size_t j = 0; j < vector_length; ++j) plain_sum[j] += input[j];
    const auto m0 = Clock::now();
    auto masked = clients[i].MaskInput(input, *u1);
    mask_ns += NanosSince(m0);
    ok = masked.ok() && server.CollectMaskedInput(*masked).ok() && ok;
  }
  probe.mask_input_ms = mask_ns / 1e6 / static_cast<double>(survivors);
  auto request = server.FinishCommit();
  if (!request.ok()) return probe;
  double unmask_ns = 0;
  for (std::size_t i = 0; i < survivors; ++i) {
    const auto m0 = Clock::now();
    auto response = clients[i].Unmask(*request);
    unmask_ns += NanosSince(m0);
    ok = response.ok() && server.CollectUnmaskingResponse(*response).ok() && ok;
  }
  probe.unmask_ms = unmask_ns / 1e6 / static_cast<double>(survivors);
  t0 = Clock::now();
  auto sum = server.Finalize();
  probe.finalize_ms = NanosSince(t0) / 1e6;
  probe.prg_words = server.cost_stats().prg_words_expanded;
  probe.modexps = server.cost_stats().modexp_operations;
  if (!sum.ok() || sum->size() != vector_length) return probe;
  for (std::size_t j = 0; j < vector_length; ++j) {
    ok = ok && ((*sum)[j] & ring_mask) == (plain_sum[j] & ring_mask);
  }
  probe.ok = ok;
  return probe;
}

}  // namespace perfbench
