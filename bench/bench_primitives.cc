// Microbenchmarks of the heavy inner loops: checkpoint serialization
// (device downloads/uploads), ChaCha20 mask expansion (Secure Aggregation's
// dominant server cost), Shamir reconstruction, and update compression.
#include <benchmark/benchmark.h>

#include "src/common/rng.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/shamir.h"
#include "src/fedavg/codec.h"
#include "src/tensor/checkpoint.h"

namespace fl {
namespace {

Checkpoint BigCheckpoint(std::size_t params) {
  Rng rng(1);
  Checkpoint c;
  c.Put("w", Tensor::RandomNormal({params / 64, 64}, rng));
  return c;
}

void BM_CheckpointSerialize(benchmark::State& state) {
  const Checkpoint c = BigCheckpoint(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.Serialize());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(c.SerializedSize()));
}
BENCHMARK(BM_CheckpointSerialize)->Arg(1 << 14)->Arg(1 << 18);

void BM_CheckpointDeserialize(benchmark::State& state) {
  const Bytes bytes =
      BigCheckpoint(static_cast<std::size_t>(state.range(0))).Serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Checkpoint::Deserialize(bytes));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_CheckpointDeserialize)->Arg(1 << 14)->Arg(1 << 18);

void BM_PrgMaskExpansion(benchmark::State& state) {
  crypto::Key256 seed{};
  seed[0] = 7;
  const std::size_t words = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::PrgWords(seed, words));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(words * 4));
}
BENCHMARK(BM_PrgMaskExpansion)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_ShamirReconstruct(benchmark::State& state) {
  Rng rng(3);
  const std::size_t t = static_cast<std::size_t>(state.range(0));
  const auto shares = crypto::ShamirSplit(123456789, t + 2, t, rng);
  const std::vector<crypto::Share> subset(shares->begin(),
                                          shares->begin() +
                                              static_cast<std::ptrdiff_t>(t));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ShamirReconstruct(subset, t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShamirReconstruct)->Arg(8)->Arg(32)->Arg(128);

void BM_EncodeUpdate(benchmark::State& state) {
  Rng rng(5);
  std::vector<float> update(1 << 16);
  for (auto& v : update) v = static_cast<float>(rng.Normal(0, 0.5));
  protocol::WireCodecConfig codec;
  codec.quant_bits = static_cast<std::uint8_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fedavg::EncodeUpdate(update, codec, 7));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(update.size() * 4));
}
BENCHMARK(BM_EncodeUpdate)->Arg(8)->Arg(4)->Arg(2);

}  // namespace
}  // namespace fl

BENCHMARK_MAIN();
