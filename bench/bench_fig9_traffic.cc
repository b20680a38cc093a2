// Reproduces Fig. 9: server network traffic — download dominates upload,
// because each device fetches plan + global model but uploads only a
// (compressible) update, and over-selected devices download without a
// surviving upload.
#include "bench/bench_common.h"
#include "src/analytics/dashboard.h"

using namespace fl;

namespace {

struct TrafficResult {
  std::uint64_t down = 0, up = 0;
  std::size_t rounds = 0;
};

TrafficResult Run(bool compressed) {
  core::FLSystem system(bench::FleetConfig(1000, 23));
  plan::TrainingHyperparams hyper;
  hyper.learning_rate = 0.2f;
  protocol::RoundConfig round = bench::StandardRound(25);
  if (compressed) round.codec.quant_bits = 8;
  system.AddTrainingTask("train", bench::BenchModel(), hyper, {}, round,
                         Seconds(30));
  system.ProvisionData(bench::BlobsProvisioner());
  system.Start();
  system.RunFor(Hours(24));
  return {system.stats().total_download_bytes(),
          system.stats().total_upload_bytes(),
          system.stats().rounds_committed()};
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Fig. 9 — server network traffic (download vs upload)",
      "\"download from server dominates upload ... each device downloads "
      "both an FL task plan and current global model ... whereas it uploads "
      "only updates to the global model; the model updates are inherently "
      "more compressible\"");

  const TrafficResult raw = Run(false);
  const TrafficResult comp = Run(true);

  analytics::TextTable table({"configuration", "download", "upload",
                              "down/up ratio", "rounds"});
  auto row = [&](const char* name, const TrafficResult& r) {
    table.AddRow({name, HumanBytes(r.down), HumanBytes(r.up),
                  analytics::TextTable::Num(
                      static_cast<double>(r.down) /
                      std::max<std::uint64_t>(1, r.up)),
                  std::to_string(r.rounds)});
  };
  row("raw updates", raw);
  row("8-bit compressed updates (Sec. 11)", comp);
  std::printf("%s", table.Render().c_str());

  std::printf("\nShape check: download > upload in both configurations; "
              "compression widens the gap because only updates compress.\n");
  return 0;
}
