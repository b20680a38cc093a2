// Reproduces the Sec. 6 scaling claims: "Several costs for Secure
// Aggregation grow quadratically with the number of users, most notably the
// computational cost for the server. In practice, this limits the maximum
// size of a Secure Aggregation to hundreds of users" — and the fix: run one
// SecAgg instance per Aggregator over groups of size >= k, then sum group
// results in the clear.
//
// This bench also gates the SecAgg fast path: the fused multi-block
// PRG-accumulate kernel must deliver >= 3x the single-thread server
// mask-expansion throughput (prg_words/s) of the scalar reference at
// vector_length >= 100k, while the recovered sum for a pinned
// (seed, cohort, dropout) scenario stays bit-identical across kernels and
// thread counts. Results land in BENCH_secagg_scaling.json.
//
// The cutoff sweep times one cohort's MaskInput calls and Finalize, serial
// vs on a hardware_concurrency - 1 pool, over vector length x cohort: the
// measured crossover behind core::kSecAggPoolMinWords, the mask work below
// which FLSystem starts no SecAgg compute pool.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "src/analytics/dashboard.h"
#include "src/common/crc32.h"
#include "src/common/json_writer.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/crypto/chacha20.h"
#include "src/secagg/client.h"
#include "src/secagg/server.h"

using namespace fl;

namespace {

crypto::Key256 KeyFrom(Rng& rng) {
  crypto::Key256 k;
  for (auto& b : k) b = static_cast<std::uint8_t>(rng.Next());
  return k;
}

// CRC-32 fingerprint of the recovered sum (native word byte order) — a
// compact value the CI smoke can compare across kernels and thread counts.
std::uint32_t SumCrc(std::span<const std::uint32_t> words) {
  return Crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(words.data()),
      words.size() * sizeof(std::uint32_t)));
}

struct RunCost {
  double server_ms = 0;       // wall time of server-side work
  double finalize_ms = 0;     // Finalize() alone (mask recovery)
  double mask_ms = 0;         // every surviving client's MaskInput()
  std::uint64_t prg_words = 0;
  std::uint64_t modexps = 0;
  std::vector<std::uint32_t> sum;
};

// Runs one full SecAgg instance with `n` users, `dropouts` of which vanish
// between ShareKeys and Commit (the expensive recovery case). A non-null
// `pool` is handed to the server (and clients) for the parallel fast path.
RunCost RunInstance(std::size_t n, std::size_t dropouts, std::size_t veclen,
                    std::uint64_t seed, common::ThreadPool* pool = nullptr) {
  Rng rng(seed);
  const std::size_t threshold = std::max<std::size_t>(2, (2 * n) / 3);
  std::vector<secagg::SecAggClient> clients;
  std::vector<std::vector<std::uint32_t>> inputs(n);
  for (std::size_t i = 0; i < n; ++i) {
    clients.emplace_back(static_cast<secagg::ParticipantIndex>(i + 1),
                         threshold, veclen, KeyFrom(rng));
    clients.back().SetThreadPool(pool);
    inputs[i].assign(veclen, static_cast<std::uint32_t>(i));
  }
  secagg::SecAggServer server(threshold, veclen);
  server.SetThreadPool(pool);

  using Clock = std::chrono::steady_clock;
  double server_ms = 0;
  auto timed = [&server_ms](auto&& fn) {
    const auto t0 = Clock::now();
    auto result = fn();
    server_ms += std::chrono::duration<double, std::milli>(Clock::now() - t0)
                     .count();
    return result;
  };

  for (auto& c : clients) {
    FL_CHECK(timed([&] { return server.CollectAdvertisement(c.AdvertiseKeys()); }).ok());
  }
  auto directory = timed([&] { return server.FinishAdvertising(); });
  FL_CHECK(directory.ok());
  for (auto& c : clients) {
    auto msg = c.ShareKeys(*directory);
    FL_CHECK(msg.ok());
    FL_CHECK(timed([&] { return server.CollectShares(*msg); }).ok());
  }
  auto u1 = timed([&] { return server.FinishSharing(); });
  FL_CHECK(u1.ok());
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& s :
         server.SharesFor(static_cast<secagg::ParticipantIndex>(i + 1))) {
      clients[i].ReceiveShare(s);
    }
  }
  // `dropouts` clients vanish after sharing keys.
  double mask_ms = 0;
  for (std::size_t i = dropouts; i < n; ++i) {
    const auto m0 = Clock::now();
    auto masked = clients[i].MaskInput(inputs[i], *u1);
    mask_ms +=
        std::chrono::duration<double, std::milli>(Clock::now() - m0).count();
    FL_CHECK(masked.ok());
    FL_CHECK(timed([&] { return server.CollectMaskedInput(*masked); }).ok());
  }
  auto request = timed([&] { return server.FinishCommit(); });
  FL_CHECK(request.ok());
  for (std::size_t i = dropouts; i < n; ++i) {
    auto resp = clients[i].Unmask(*request);
    FL_CHECK(resp.ok());
    FL_CHECK(timed([&] { return server.CollectUnmaskingResponse(*resp); }).ok());
  }
  const auto f0 = Clock::now();
  auto sum = timed([&] { return server.Finalize(); });
  const double finalize_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - f0).count();
  FL_CHECK(sum.ok());

  return RunCost{server_ms, finalize_ms, mask_ms,
                 server.cost_stats().prg_words_expanded,
                 server.cost_stats().modexp_operations, std::move(*sum)};
}

// The sum the protocol must recover: committed inputs added mod 2^32 — what
// the pre-fast-path implementation provably returned (pinned by the test
// suite), so matching it means the fast path is bit-identical.
std::vector<std::uint32_t> PlainSum(std::size_t n, std::size_t dropouts,
                                    std::size_t veclen) {
  std::vector<std::uint32_t> expect(veclen, 0);
  for (std::size_t i = dropouts; i < n; ++i) {
    for (auto& w : expect) w += static_cast<std::uint32_t>(i);
  }
  return expect;
}

struct KernelResult {
  double scalar_words_per_sec = 0;
  double fused_words_per_sec = 0;
  double speedup = 0;
  bool bit_exact = false;
};

// Single-thread server mask-expansion throughput, scalar reference (the
// pre-change shape: one block per call, zero-init vector, byte-XOR, then a
// separate subtract loop) vs the fused multi-block PrgAccumulate path.
// Best-of-reps timing keeps the gate robust against scheduler noise.
KernelResult KernelMicrobench(std::size_t veclen, std::size_t seeds,
                              std::size_t reps) {
  Rng rng(0xFA57);
  std::vector<crypto::Key256> keys;
  for (std::size_t s = 0; s < seeds; ++s) keys.push_back(KeyFrom(rng));

  using Clock = std::chrono::steady_clock;
  std::vector<std::uint32_t> scalar_acc(veclen, 0), fused_acc(veclen, 0);
  double scalar_best_s = 1e99, fused_best_s = 1e99;
  for (std::size_t r = 0; r < reps; ++r) {
    auto t0 = Clock::now();
    for (const auto& key : keys) {
      const std::vector<std::uint32_t> mask =
          crypto::PrgWordsRef(key, veclen);
      for (std::size_t i = 0; i < veclen; ++i) scalar_acc[i] -= mask[i];
    }
    scalar_best_s = std::min(
        scalar_best_s,
        std::chrono::duration<double>(Clock::now() - t0).count());

    t0 = Clock::now();
    for (const auto& key : keys) {
      crypto::PrgAccumulate(key, 0, -1,
                            std::span<std::uint32_t>(fused_acc));
    }
    fused_best_s = std::min(
        fused_best_s,
        std::chrono::duration<double>(Clock::now() - t0).count());
  }

  KernelResult out;
  const double words = static_cast<double>(veclen) * seeds;
  out.scalar_words_per_sec = words / scalar_best_s;
  out.fused_words_per_sec = words / fused_best_s;
  out.speedup = out.fused_words_per_sec / out.scalar_words_per_sec;
  out.bit_exact = scalar_acc == fused_acc;
  return out;
}

struct CutoffPoint {
  std::size_t users = 0;
  std::size_t vector_length = 0;
  // Medians over paired instances of one cohort's MaskInput calls plus its
  // Finalize, the SecAgg work one Aggregator's round puts on the fleet's
  // event-loop thread.
  double serial_ms = 0;
  double pooled_ms = 0;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Serial vs pooled cost of one cohort's masking and unmasking, alternating
// the two arms over `reps` seeds so drift on a shared host hits both.
CutoffPoint CutoffCost(std::size_t users, std::size_t veclen,
                       common::ThreadPool& pool, std::size_t reps) {
  const std::size_t drops = users / 10;
  std::vector<double> serial, pooled;
  for (std::size_t r = 0; r < reps; ++r) {
    const std::uint64_t seed = 31 * users + veclen + r;
    const RunCost s = RunInstance(users, drops, veclen, seed);
    const RunCost p = RunInstance(users, drops, veclen, seed, &pool);
    FL_CHECK(s.sum == p.sum);
    serial.push_back(s.mask_ms + s.finalize_ms);
    pooled.push_back(p.mask_ms + p.finalize_ms);
  }
  return CutoffPoint{users, veclen, Median(serial), Median(pooled)};
}

}  // namespace

int main() {
  std::printf(
      "\n==============================================================\n"
      "Sec. 6 — Secure Aggregation server cost scaling + fast path\n"
      "Paper: costs \"grow quadratically with the number of users\"; the fix "
      "is per-Aggregator groups of size >= k.\n"
      "==============================================================\n");

  // --- Fast-path kernel gate: fused vs scalar at veclen >= 100k. ---
  const std::size_t kKernelVeclen = 131072;
  const KernelResult kernel = KernelMicrobench(kKernelVeclen, 8, 7);
  const bool kernel_gate = kernel.speedup >= 3.0;
  std::printf(
      "\nMask-expansion kernel (veclen %zu, single thread, "
      "stride %zu blocks):\n"
      "  scalar reference  %8.1f Mwords/s\n"
      "  fused accumulate  %8.1f Mwords/s\n"
      "  speedup x%.2f (gate >= x3): %s   bit-exact: %s\n",
      kKernelVeclen, crypto::internal::ActiveStrideBlocks(),
      kernel.scalar_words_per_sec / 1e6, kernel.fused_words_per_sec / 1e6,
      kernel.speedup, kernel_gate ? "PASS" : "FAIL",
      kernel.bit_exact ? "yes" : "NO");

  // --- Pinned scenario: recovered sum must be bit-identical. ---
  const std::size_t kPinN = 64, kPinDrops = 6, kPinVeclen = 4096;
  const std::uint64_t kPinSeed = 777;
  const RunCost pinned = RunInstance(kPinN, kPinDrops, kPinVeclen, kPinSeed);
  const std::vector<std::uint32_t> expect =
      PlainSum(kPinN, kPinDrops, kPinVeclen);
  const bool sum_ok = pinned.sum == expect;
  const std::uint32_t pinned_crc = SumCrc(pinned.sum);
  std::printf(
      "\nPinned scenario (n=%zu, drops=%zu, veclen=%zu, seed=%llu):\n"
      "  recovered sum crc32 %08x, matches plain mod-2^32 sum: %s\n",
      kPinN, kPinDrops, kPinVeclen,
      static_cast<unsigned long long>(kPinSeed), pinned_crc,
      sum_ok ? "yes" : "NO");

  // --- Threads sweep: same scenario, larger vector, pool sizes. ---
  const std::size_t kSweepVeclen = 65536;
  struct SweepPoint {
    std::size_t threads;
    double server_ms;
    double finalize_ms;
    std::uint32_t crc;
  };
  std::vector<SweepPoint> sweep;
  bool threads_deterministic = true;
  std::vector<std::uint32_t> sweep_ref;
  for (std::size_t threads : {0u, 1u, 2u, 4u}) {
    common::ThreadPool pool(threads);
    const RunCost c = RunInstance(kPinN, kPinDrops, kSweepVeclen, kPinSeed,
                                  threads == 0 ? nullptr : &pool);
    if (sweep_ref.empty()) {
      sweep_ref = c.sum;
    } else if (c.sum != sweep_ref) {
      threads_deterministic = false;
    }
    sweep.push_back({threads, c.server_ms, c.finalize_ms, SumCrc(c.sum)});
  }
  analytics::TextTable sweep_table(
      {"pool threads", "server ms", "finalize ms", "sum crc32"});
  for (const SweepPoint& p : sweep) {
    char crc[16];
    std::snprintf(crc, sizeof(crc), "%08x", p.crc);
    sweep_table.AddRow({p.threads == 0 ? "serial" : std::to_string(p.threads),
                        analytics::TextTable::Num(p.server_ms),
                        analytics::TextTable::Num(p.finalize_ms), crc});
  }
  std::printf("\nThreads sweep (n=%zu, drops=%zu, veclen=%zu):\n%s"
              "  identical sums across thread counts: %s\n",
              kPinN, kPinDrops, kSweepVeclen, sweep_table.Render().c_str(),
              threads_deterministic ? "yes" : "NO");

  // --- Cutoff sweep: where a pool starts paying for its wake-ups. ---
  const std::size_t hw =
      std::max(1u, std::thread::hardware_concurrency());
  common::ThreadPool fleet_pool(hw - 1);
  std::vector<CutoffPoint> cutoff;
  analytics::TextTable cutoff_table({"users", "veclen", "users x veclen",
                                     "serial ms", "pooled ms",
                                     "pooled / serial"});
  for (std::size_t users : {8u, 32u}) {
    for (std::size_t veclen : {16u, 64u, 256u, 1024u, 2048u, 4096u, 8192u}) {
      const CutoffPoint p = CutoffCost(users, veclen, fleet_pool, 9);
      cutoff.push_back(p);
      cutoff_table.AddRow(
          {std::to_string(users), std::to_string(veclen),
           std::to_string(users * veclen),
           analytics::TextTable::Num(p.serial_ms),
           analytics::TextTable::Num(p.pooled_ms),
           analytics::TextTable::Num(p.pooled_ms / p.serial_ms)});
    }
  }
  std::printf("\nPool cutoff sweep (cohort MaskInput + Finalize, median of "
              "9 paired runs, pool of %zu workers):\n%s",
              fleet_pool.size(), cutoff_table.Render().c_str());

  // --- Quadratic scaling table (the paper's Sec. 6 shape). ---
  const std::size_t veclen = 512;  // update coordinates per client
  analytics::TextTable table({"users n", "dropouts (10%)", "server ms",
                              "PRG words", "modexps", "ms / n^2 x 1e6"});
  struct ScalePoint {
    std::size_t n, drops;
    double server_ms;
    std::uint64_t prg_words, modexps;
  };
  std::vector<ScalePoint> scale;
  double prev_ms = 0;
  std::size_t prev_n = 0;
  for (std::size_t n : {16u, 32u, 64u, 128u, 256u}) {
    const std::size_t drops = n / 10;
    const RunCost cost = RunInstance(n, drops, veclen, 1234 + n);
    scale.push_back({n, drops, cost.server_ms, cost.prg_words, cost.modexps});
    table.AddRow({std::to_string(n), std::to_string(drops),
                  analytics::TextTable::Num(cost.server_ms),
                  std::to_string(cost.prg_words),
                  std::to_string(cost.modexps),
                  analytics::TextTable::Num(
                      1e6 * cost.server_ms / (static_cast<double>(n) * n))});
    if (prev_n != 0) {
      // Quadratic shape check: doubling n should ~4x the dominant cost.
      std::printf("  n %zu -> %zu: server time x%.1f (quadratic ~ x4)\n",
                  prev_n, n, cost.server_ms / std::max(1e-9, prev_ms));
    }
    prev_ms = cost.server_ms;
    prev_n = n;
  }
  std::printf("%s", table.Render().c_str());

  // The paper's mitigation: aggregate 256 users as 8 groups of 32 (one per
  // Aggregator actor), then sum group outputs in the clear.
  std::printf("\nGrouped aggregation (Sec. 6 mitigation):\n");
  const RunCost flat = RunInstance(256, 25, veclen, 999);
  double grouped_ms = 0;
  for (int g = 0; g < 8; ++g) {
    grouped_ms += RunInstance(32, 3, veclen, 2000 + g).server_ms;
  }
  analytics::TextTable mitigation(
      {"configuration", "server ms", "speedup"});
  mitigation.AddRow({"1 group x 256 users",
                     analytics::TextTable::Num(flat.server_ms), "1.0x"});
  mitigation.AddRow(
      {"8 groups x 32 users (per-Aggregator)",
       analytics::TextTable::Num(grouped_ms),
       analytics::TextTable::Num(flat.server_ms /
                                 std::max(1e-9, grouped_ms)) + "x"});
  std::printf("%s", mitigation.Render().c_str());

  char pinned_crc_hex[16];
  std::snprintf(pinned_crc_hex, sizeof(pinned_crc_hex), "%08x", pinned_crc);
  JsonWriter json;
  json.BeginObject()
      .Field("bench", "secagg_scaling")
      .EnvironmentFields()
      .BeginObject("kernel")
      .Field("vector_length", kKernelVeclen)
      .Field("stride_blocks", crypto::internal::ActiveStrideBlocks())
      .Field("scalar_prg_words_per_sec", kernel.scalar_words_per_sec)
      .Field("fused_prg_words_per_sec", kernel.fused_words_per_sec)
      .Field("speedup", kernel.speedup)
      .Field("bit_exact", kernel.bit_exact)
      .Field("speedup_gate_3x", kernel_gate)
      .EndObject()
      .BeginObject("pinned_scenario")
      .Field("users", kPinN)
      .Field("dropouts", kPinDrops)
      .Field("vector_length", kPinVeclen)
      .Field("seed", static_cast<std::size_t>(kPinSeed))
      .Field("sum_crc32", pinned_crc_hex)
      .Field("sum_matches_plain_sum", sum_ok)
      .EndObject()
      .BeginArray("threads_sweep");
  for (const SweepPoint& p : sweep) {
    char crc[16];
    std::snprintf(crc, sizeof(crc), "%08x", p.crc);
    json.BeginObject()
        .Field("threads", p.threads)
        .Field("server_ms", p.server_ms)
        .Field("finalize_ms", p.finalize_ms)
        .Field("sum_crc32", crc)
        .EndObject();
  }
  json.EndArray()
      .Field("threads_deterministic", threads_deterministic)
      .Field("cutoff_pool_workers", fleet_pool.size())
      .BeginArray("cutoff_sweep");
  for (const CutoffPoint& p : cutoff) {
    json.BeginObject()
        .Field("users", p.users)
        .Field("vector_length", p.vector_length)
        .Field("serial_ms", p.serial_ms)
        .Field("pooled_ms", p.pooled_ms)
        .EndObject();
  }
  json.EndArray()
      .BeginArray("scaling");
  for (const ScalePoint& p : scale) {
    json.BeginObject()
        .Field("users", p.n)
        .Field("dropouts", p.drops)
        .Field("server_ms", p.server_ms)
        .Field("prg_words", static_cast<std::size_t>(p.prg_words))
        .Field("modexps", static_cast<std::size_t>(p.modexps))
        .EndObject();
  }
  json.EndArray()
      .BeginObject("grouped_mitigation")
      .Field("flat_256_ms", flat.server_ms)
      .Field("grouped_8x32_ms", grouped_ms)
      .Field("speedup", flat.server_ms / std::max(1e-9, grouped_ms))
      .EndObject()
      .EndObject();

  const char* out = "BENCH_secagg_scaling.json";
  if (json.WriteFile(out)) {
    std::printf("wrote %s\n", out);
  } else {
    std::printf("FAILED to write %s\n", out);
    return 1;
  }
  // Correctness gates (bit-exactness, determinism) must hold everywhere;
  // the timing gate is recorded in the JSON for the CI smoke to judge, so
  // a loaded machine cannot turn a jitter blip into a hard bench failure.
  return sum_ok && kernel.bit_exact && threads_deterministic ? 0 : 1;
}
