// Reproduces the Sec. 11 "Bandwidth" direction: update compression
// (Konecny et al. 2016b-style quantization + sparsification) through the
// update codec (src/fedavg/codec.h). Sweeps bit width and sparsity,
// reporting wire size, reconstruction error, and the effect on downstream
// FedAvg model quality.
#include <cmath>
#include <cstdio>

#include "src/analytics/dashboard.h"
#include "src/data/blobs.h"
#include "src/fedavg/codec.h"
#include "src/graph/model_zoo.h"
#include "src/tools/simulation_runner.h"

using namespace fl;

namespace {

// FedAvg where every client update passes through encode->decode.
double AccuracyWithCodec(
    const protocol::WireCodecConfig& codec,
    const plan::FLPlan& plan, const Checkpoint& init,
    const std::vector<std::vector<data::Example>>& clients,
    std::span<const data::Example> eval) {
  Rng rng(55);
  Checkpoint global = init;
  for (std::size_t round = 0; round < 30; ++round) {
    fedavg::FedAvgAccumulator acc(plan.server.aggregation, global);
    for (std::size_t k = 0; k < 10; ++k) {
      const std::size_t c = rng.UniformInt(clients.size());
      Rng shuffle = rng.Fork();
      auto update = fedavg::RunClientUpdate(plan.device, global, clients[c],
                                            1, shuffle);
      if (!update.ok()) continue;
      Checkpoint delta = std::move(update->weighted_delta);
      if (codec.enabled()) {
        const std::vector<float> flat = delta.Flatten();
        const auto wire = fedavg::EncodeUpdate(flat, codec, rng.Next());
        auto restored = fedavg::DecodeUpdate(wire.payload);
        FL_CHECK(restored.ok());
        auto restored_ckpt = delta.Unflatten(*restored);
        FL_CHECK(restored_ckpt.ok());
        delta = std::move(restored_ckpt).value();
      }
      FL_CHECK(acc.Accumulate(std::move(delta), update->weight,
                              update->metrics)
                   .ok());
    }
    FL_CHECK(acc.FinalizeInPlace(global).ok());
  }
  const auto metrics =
      fedavg::RunClientEvaluation(plan.device, global, eval, 1);
  FL_CHECK(metrics.ok());
  return metrics->mean_accuracy;
}

}  // namespace

int main() {
  std::printf(
      "\n==============================================================\n"
      "Sec. 11 (Bandwidth) — update compression ablation\n"
      "Paper: \"To reduce the bandwidth necessary, we implement compression "
      "techniques such as those of Konecny et al. (2016b)\".\n"
      "==============================================================\n");

  Rng model_rng(1);
  const graph::Model model = graph::BuildLogisticRegression(8, 4, model_rng);
  plan::TrainingHyperparams hyper;
  hyper.learning_rate = 0.25f;
  hyper.epochs = 2;
  const plan::FLPlan plan = plan::MakeTrainingPlan(model, "c", hyper, {});

  data::BlobsWorkload blobs({.classes = 4, .feature_dim = 8}, 5);
  std::vector<std::vector<data::Example>> clients;
  for (std::uint64_t u = 0; u < 40; ++u) {
    clients.push_back(blobs.UserExamples(u, 40, SimTime{0}));
  }
  const auto eval = blobs.GlobalExamples(99, 400, SimTime{0});

  // Wire-size + reconstruction-error sweep on a representative update.
  Rng rng(2);
  Rng shuffle = rng.Fork();
  auto sample_update = fedavg::RunClientUpdate(
      plan.device, model.init_params, clients[0], 1, shuffle);
  FL_CHECK(sample_update.ok());
  const std::vector<float> flat = sample_update->weighted_delta.Flatten();

  analytics::TextTable table({"config", "compression ratio", "rel. L2 error",
                              "final FedAvg accuracy"});
  struct Config {
    std::string name;
    protocol::WireCodecConfig codec;
  };
  std::vector<Config> configs;
  configs.push_back({"raw float32", {}});
  for (std::uint8_t bits : {8, 4, 2}) {
    protocol::WireCodecConfig c;
    c.quant_bits = bits;
    configs.push_back({std::to_string(bits) + "-bit quantized", c});
  }
  {
    protocol::WireCodecConfig c;
    c.quant_bits = 8;
    c.topk_fraction = 0.25;
    configs.push_back({"8-bit + top-25%", c});
  }

  double base_norm = 0;
  for (float v : flat) base_norm += static_cast<double>(v) * v;
  base_norm = std::sqrt(base_norm);

  for (const auto& config : configs) {
    const auto wire = fedavg::EncodeUpdate(flat, config.codec, 77);
    const auto back = fedavg::DecodeUpdate(wire.payload);
    FL_CHECK(back.ok());
    double err = 0;
    for (std::size_t i = 0; i < flat.size(); ++i) {
      const double d = flat[i] - (*back)[i];
      err += d * d;
    }
    const double rel_err = std::sqrt(err) / std::max(1e-12, base_norm);
    const double acc = AccuracyWithCodec(config.codec, plan,
                                         model.init_params, clients, eval);
    char pct[16];
    std::snprintf(pct, sizeof(pct), "%.1f%%", 100.0 * acc);
    table.AddRow({config.name,
                  analytics::TextTable::Num(wire.CompressionRatio()),
                  analytics::TextTable::Num(rel_err, 4), pct});
  }
  std::printf("%s", table.Render().c_str());
  std::printf("\nShape check: 8-bit compression gives ~4x bandwidth savings "
              "with negligible accuracy loss; aggressive (2-bit) settings "
              "start to cost quality.\n");
  return 0;
}
