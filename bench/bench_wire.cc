// Wire-efficiency bench (ISSUE 6): end-to-end traffic accounting for the
// pluggable update codecs on the Sec. 8 next-word workload, plus the
// SecAgg composition costs — masked-vector length and mask time under
// cohort-agreed sparsification with a shrunken fixed-point ring — the
// aggregate decode throughput, and the codecs-off overhead gate.
// Results go to stdout and BENCH_wire.json.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/analytics/dashboard.h"
#include "src/common/fixed_point.h"
#include "src/data/text.h"
#include "src/fedavg/client_update.h"
#include "src/fedavg/codec.h"
#include "src/fedavg/server_aggregate.h"
#include "src/secagg/client.h"
#include "src/secagg/server.h"
#include "src/secagg/types.h"

using namespace fl;

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct CodecRunResult {
  double bytes_per_round_per_device = 0;
  double final_recall = 0;
  double decode_bytes = 0;    // total encoded bytes decoded
  double decode_seconds = 0;  // time spent in DecodeUpdate
};

// FedAvg with every accepted update passing device-encode -> wire ->
// aggregator-decode, identical cohort/seed schedule across configs so the
// quality deltas isolate the codec.
CodecRunResult RunNextWord(const protocol::WireCodecConfig& codec,
                           const plan::FLPlan& plan, const Checkpoint& init,
                           const std::vector<std::vector<data::Example>>& users,
                           std::span<const data::Example> eval,
                           std::size_t rounds, std::size_t clients_per_round) {
  Rng rng(404);
  Checkpoint global = init;
  CodecRunResult result;
  std::uint64_t total_wire_bytes = 0;
  std::uint64_t total_updates = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    fedavg::FedAvgAccumulator acc(plan.server.aggregation, global);
    for (std::size_t k = 0; k < clients_per_round; ++k) {
      const std::size_t u = rng.UniformInt(users.size());
      Rng shuffle = rng.Fork();
      const std::uint64_t encode_seed = rng.Next();
      auto update = fedavg::RunClientUpdate(plan.device, global, users[u], 3,
                                            shuffle);
      if (!update.ok()) {
        std::fprintf(stderr, "client update failed: %s\n",
                     update.status().ToString().c_str());
        continue;
      }
      Checkpoint delta = std::move(update->weighted_delta);
      // Device side: encode the flat weighted delta for the wire.
      const std::vector<float> flat = delta.Flatten();
      const fedavg::EncodedUpdate wire =
          fedavg::EncodeUpdate(flat, codec, encode_seed);
      total_wire_bytes += wire.WireBytes();
      ++total_updates;
      // Aggregator side: decode and accumulate.
      const double t0 = NowSeconds();
      auto back = fedavg::DecodeUpdate(wire.payload);
      result.decode_seconds += NowSeconds() - t0;
      result.decode_bytes += static_cast<double>(wire.payload.size());
      FL_CHECK(back.ok());
      auto restored = delta.Unflatten(*back);
      FL_CHECK(restored.ok());
      FL_CHECK(acc.Accumulate(std::move(restored).value(), update->weight,
                              update->metrics)
                   .ok());
    }
    FL_CHECK(acc.FinalizeInPlace(global).ok());
  }
  auto metrics = fedavg::RunClientEvaluation(plan.device, global, eval, 3);
  FL_CHECK(metrics.ok());
  result.final_recall = metrics->mean_accuracy;
  result.bytes_per_round_per_device =
      total_updates == 0 ? 0
                         : static_cast<double>(total_wire_bytes) /
                               static_cast<double>(total_updates);
  return result;
}

crypto::Key256 KeyFrom(Rng& rng) {
  crypto::Key256 k;
  for (auto& b : k) b = static_cast<std::uint8_t>(rng.Next());
  return k;
}

struct MaskCost {
  double mask_seconds = 0;  // total MaskInput time across the cohort
  std::uint64_t wire_bytes = 0;
};

// Runs one SecAgg cohort through advertise/share and times MaskInput —
// the PRG expansion there is the per-device cost that must shrink with the
// masked-vector length.
MaskCost MeasureMaskCost(std::size_t veclen, std::uint8_t ring_bits,
                         std::size_t cohort, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t threshold = cohort / 2 + 1;
  std::vector<secagg::SecAggClient> clients;
  clients.reserve(cohort);
  for (std::size_t i = 0; i < cohort; ++i) {
    clients.emplace_back(static_cast<secagg::ParticipantIndex>(i + 1),
                         threshold, veclen, KeyFrom(rng), ring_bits);
  }
  secagg::SecAggServer server(threshold, veclen, ring_bits);
  for (auto& c : clients) {
    FL_CHECK(server.CollectAdvertisement(c.AdvertiseKeys()).ok());
  }
  auto directory = server.FinishAdvertising();
  FL_CHECK(directory.ok());
  for (auto& c : clients) {
    auto msg = c.ShareKeys(*directory);
    FL_CHECK(msg.ok());
    FL_CHECK(server.CollectShares(*msg).ok());
  }
  auto u1 = server.FinishSharing();
  FL_CHECK(u1.ok());
  for (std::size_t i = 0; i < cohort; ++i) {
    for (const auto& s :
         server.SharesFor(static_cast<secagg::ParticipantIndex>(i + 1))) {
      clients[i].ReceiveShare(s);
    }
  }
  std::vector<std::uint32_t> input(veclen, 3);
  MaskCost cost;
  for (auto& c : clients) {
    const double t0 = NowSeconds();
    auto masked = c.MaskInput(input, *u1);
    cost.mask_seconds += NowSeconds() - t0;
    FL_CHECK(masked.ok());
    cost.wire_bytes +=
        16 + secagg::MaskedVectorWireBytes(masked->masked.size(), ring_bits);
  }
  return cost;
}

}  // namespace

int main() {
  std::printf(
      "\n==============================================================\n"
      "Wire-efficiency: pluggable update codecs + SecAgg composition\n"
      "==============================================================\n");

  // ---- Next-word workload (Sec. 8 scale: vocab 64, context 3). ----
  data::TextWorkloadParams text_params;
  text_params.vocab_size = 64;
  text_params.context = 3;
  data::TextWorkload corpus(text_params, 4242);
  const std::size_t users_n = 60;
  std::vector<std::vector<data::Example>> users;
  for (std::uint64_t u = 0; u < users_n; ++u) {
    users.push_back(corpus.UserExamples(u, 25, SimTime{0}));
  }
  const auto eval = corpus.UserExamples(10'000'019, 500, SimTime{0});

  Rng model_rng(9);
  const graph::Model model = graph::BuildNextWordModel(
      text_params.vocab_size, text_params.context, 16, 64, model_rng);
  plan::TrainingHyperparams hyper;
  hyper.batch_size = 32;
  hyper.epochs = 2;
  hyper.learning_rate = 0.4f;
  const plan::FLPlan plan = plan::MakeTrainingPlan(model, "lm", hyper, {});
  const std::size_t params = model.init_params.TotalParameters();
  const std::size_t rounds = 60;
  const std::size_t clients_per_round = 10;

  struct Config {
    std::string name;
    protocol::WireCodecConfig codec;
  };
  std::vector<Config> configs;
  configs.push_back({"dense float32", {}});
  {
    protocol::WireCodecConfig c;
    c.quant_bits = 8;
    configs.push_back({"int8", c});
  }
  {
    protocol::WireCodecConfig c;
    c.quant_bits = 8;
    c.topk_fraction = 0.5;
    configs.push_back({"int8+topk50", c});  // the headline gate config
  }
  {
    protocol::WireCodecConfig c;
    c.quant_bits = 4;
    c.topk_fraction = 0.1;
    configs.push_back({"int4+topk10", c});  // aggressive frontier point
  }

  std::vector<CodecRunResult> results;
  for (const Config& config : configs) {
    std::printf("running %-14s (%zu params, %zu rounds)...\n",
                config.name.c_str(), params, rounds);
    results.push_back(RunNextWord(config.codec, plan, model.init_params,
                                  users, eval, rounds, clients_per_round));
  }
  const double dense_bytes = results[0].bytes_per_round_per_device;
  const double dense_recall = results[0].final_recall;

  analytics::TextTable table({"codec", "B/round/device", "ratio vs dense",
                              "top-1 recall", "rel. quality delta"});
  for (std::size_t i = 0; i < configs.size(); ++i) {
    char ratio[24], recall[24], delta[24], bytes[24];
    std::snprintf(bytes, sizeof(bytes), "%.0f",
                  results[i].bytes_per_round_per_device);
    std::snprintf(ratio, sizeof(ratio), "%.2fx",
                  dense_bytes / results[i].bytes_per_round_per_device);
    std::snprintf(recall, sizeof(recall), "%.1f%%",
                  100.0 * results[i].final_recall);
    std::snprintf(delta, sizeof(delta), "%.2f%%",
                  100.0 * (dense_recall - results[i].final_recall) /
                      dense_recall);
    table.AddRow({configs[i].name, bytes, ratio, recall, delta});
  }
  std::printf("\n%s", table.Render().c_str());

  // ---- Aggregate decode throughput (all configs pooled). ----
  double decode_bytes = 0, decode_seconds = 0;
  for (const auto& r : results) {
    decode_bytes += r.decode_bytes;
    decode_seconds += r.decode_seconds;
  }
  const double decode_mb_per_sec =
      decode_seconds > 0 ? decode_bytes / 1e6 / decode_seconds : 0;
  std::printf("\naggregate decode throughput: %.1f MB/s over %.1f MB\n",
              decode_mb_per_sec, decode_bytes / 1e6);

  // ---- SecAgg composition: masked length and mask time vs sparsity. ----
  const std::size_t dense_words = params + 1;
  const std::size_t keep = fedavg::KeepCount(params, 0.1);
  const std::size_t sparse_words = keep + 1;
  const std::size_t cohort = 8;
  const MaskCost dense_cost = MeasureMaskCost(dense_words, 32, cohort, 51);
  const MaskCost sparse_cost = MeasureMaskCost(sparse_words, 16, cohort, 52);
  const double mask_time_ratio =
      dense_cost.mask_seconds > 0
          ? sparse_cost.mask_seconds / dense_cost.mask_seconds
          : 1.0;
  const double wire_ratio = static_cast<double>(sparse_cost.wire_bytes) /
                            static_cast<double>(dense_cost.wire_bytes);
  std::printf(
      "\nsecagg masked vector: dense %zu words (u32) -> sparse %zu words "
      "(u16): wire %.1f%%, mask time %.1f%% of dense\n",
      dense_words, sparse_words, 100.0 * wire_ratio, 100.0 * mask_time_ratio);

  // ---- Off-path overhead: codecs disabled must stay ~free. ----
  // The device's upload hot path with codecs off is Serialize + one
  // enabled() branch; time both forms over the same checkpoint.
  const protocol::WireCodecConfig off;
  Checkpoint sample = model.init_params;
  const int reps = 300;
  volatile std::size_t sink = 0;
  double base_s = 1e30, gated_s = 1e30;
  for (int attempt = 0; attempt < 3; ++attempt) {  // best-of-3 vs noise
    double t0 = NowSeconds();
    for (int i = 0; i < reps; ++i) sink += sample.Serialize().size();
    base_s = std::min(base_s, NowSeconds() - t0);
    t0 = NowSeconds();
    for (int i = 0; i < reps; ++i) {
      if (off.enabled()) {
        sink += fedavg::EncodeUpdate(sample.Flatten(), off, 1).WireBytes();
      } else {
        sink += sample.Serialize().size();
      }
    }
    gated_s = std::min(gated_s, NowSeconds() - t0);
  }
  const double off_path_overhead = gated_s / base_s - 1.0;
  std::printf("off-path overhead (codecs disabled): %.2f%%\n",
              100.0 * off_path_overhead);

  // ---- Gates. ----
  const double gate_ratio = dense_bytes / results[2].bytes_per_round_per_device;
  const double gate_quality_delta =
      (dense_recall - results[2].final_recall) / dense_recall;
  const bool bytes_ok = gate_ratio >= 4.0;
  const bool quality_ok = gate_quality_delta <= 0.01;
  const bool secagg_ok = wire_ratio <= 0.2 && mask_time_ratio <= 0.5;
  const bool offpath_ok = off_path_overhead <= 0.02;
  std::printf(
      "\ngates: bytes %.2fx>=4x %s | quality delta %.2f%%<=1%% %s | secagg "
      "shrink %s | off-path %s\n",
      gate_ratio, bytes_ok ? "OK" : "FAIL", 100.0 * gate_quality_delta,
      quality_ok ? "OK" : "FAIL", secagg_ok ? "OK" : "FAIL",
      offpath_ok ? "OK" : "FAIL");

  JsonWriter json;
  json.BeginObject();
  json.BeginObject("build").EnvironmentFields().EndObject();
  json.BeginObject("workload")
      .Field("model_params", params)
      .Field("rounds", rounds)
      .Field("clients_per_round", clients_per_round)
      .EndObject();
  json.BeginArray("configs");
  for (std::size_t i = 0; i < configs.size(); ++i) {
    json.BeginObject()
        .Field("name", configs[i].name)
        .Field("bytes_per_round_per_device",
               results[i].bytes_per_round_per_device)
        .Field("ratio_vs_dense",
               dense_bytes / results[i].bytes_per_round_per_device)
        .Field("final_recall", results[i].final_recall)
        .Field("rel_quality_delta",
               (dense_recall - results[i].final_recall) / dense_recall)
        .EndObject();
  }
  json.EndArray();
  json.BeginObject("decode")
      .Field("mb_per_sec", decode_mb_per_sec)
      .Field("total_mb", decode_bytes / 1e6)
      .EndObject();
  json.BeginObject("secagg")
      .Field("dense_words", dense_words)
      .Field("sparse_words", sparse_words)
      .Field("dense_ring_bits", std::size_t{32})
      .Field("sparse_ring_bits", std::size_t{16})
      .Field("dense_wire_bytes_per_device",
             dense_cost.wire_bytes / cohort)
      .Field("sparse_wire_bytes_per_device",
             sparse_cost.wire_bytes / cohort)
      .Field("wire_ratio", wire_ratio)
      .Field("mask_time_ratio", mask_time_ratio)
      .EndObject();
  json.BeginObject("off_path").Field("overhead", off_path_overhead).EndObject();
  json.BeginObject("gates")
      .Field("bytes_reduction_vs_dense", gate_ratio)
      .Field("bytes_ok", bytes_ok)
      .Field("rel_quality_delta", gate_quality_delta)
      .Field("quality_ok", quality_ok)
      .Field("secagg_ok", secagg_ok)
      .Field("offpath_ok", offpath_ok)
      .EndObject();
  json.EndObject();

  const char* out = "BENCH_wire.json";
  if (json.WriteFile(out)) {
    std::printf("wrote %s\n", out);
  } else {
    std::printf("FAILED to write %s\n", out);
    return 1;
  }
  // Gate verdicts live in the JSON; CI asserts on them (same posture as the
  // other benches).
  return 0;
}
