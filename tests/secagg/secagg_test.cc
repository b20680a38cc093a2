#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/secagg/client.h"
#include "src/secagg/server.h"

namespace fl::secagg {
namespace {

crypto::Key256 ClientRandomness(Rng& rng) {
  crypto::Key256 k;
  for (auto& b : k) b = static_cast<std::uint8_t>(rng.Next());
  return k;
}

// Drives the full four-round protocol with scripted drop-outs.
// drop_after[i] = round index (0..3) before which client i disappears;
// 4 means it survives everything.
struct ProtocolRun {
  std::vector<std::vector<std::uint32_t>> inputs;
  std::vector<int> drop_after;
  std::size_t threshold;

  Result<std::vector<std::uint32_t>> Execute(std::uint64_t seed = 7) {
    const std::size_t n = inputs.size();
    const std::size_t veclen = inputs[0].size();
    Rng rng(seed);

    std::vector<SecAggClient> clients;
    clients.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      clients.emplace_back(static_cast<ParticipantIndex>(i + 1), threshold,
                           veclen, ClientRandomness(rng));
    }
    SecAggServer server(threshold, veclen);

    // Round 0: AdvertiseKeys.
    for (std::size_t i = 0; i < n; ++i) {
      if (drop_after[i] < 1) continue;
      FL_RETURN_IF_ERROR(
          server.CollectAdvertisement(clients[i].AdvertiseKeys()));
    }
    FL_ASSIGN_OR_RETURN(KeyDirectory directory, server.FinishAdvertising());

    // Round 1: ShareKeys.
    for (std::size_t i = 0; i < n; ++i) {
      if (drop_after[i] < 2) continue;
      if (directory.count(static_cast<ParticipantIndex>(i + 1)) == 0) continue;
      FL_ASSIGN_OR_RETURN(ShareKeysMessage msg,
                          clients[i].ShareKeys(directory));
      FL_RETURN_IF_ERROR(server.CollectShares(msg));
    }
    FL_ASSIGN_OR_RETURN(std::vector<ParticipantIndex> u1,
                        server.FinishSharing());
    // Server relays shares.
    for (std::size_t i = 0; i < n; ++i) {
      if (drop_after[i] < 3) continue;
      for (const EncryptedShare& s :
           server.SharesFor(static_cast<ParticipantIndex>(i + 1))) {
        clients[i].ReceiveShare(s);
      }
    }

    // Round 2: MaskedInputCollection.
    for (std::size_t i = 0; i < n; ++i) {
      if (drop_after[i] < 3) continue;
      const bool in_u1 =
          std::find(u1.begin(), u1.end(),
                    static_cast<ParticipantIndex>(i + 1)) != u1.end();
      if (!in_u1) continue;
      FL_ASSIGN_OR_RETURN(MaskedInput masked,
                          clients[i].MaskInput(inputs[i], u1));
      FL_RETURN_IF_ERROR(server.CollectMaskedInput(masked));
    }
    FL_ASSIGN_OR_RETURN(UnmaskingRequest request, server.FinishCommit());

    // Round 3: Unmasking.
    for (std::size_t i = 0; i < n; ++i) {
      if (drop_after[i] < 4) continue;
      const bool survivor =
          std::find(request.survivors.begin(), request.survivors.end(),
                    static_cast<ParticipantIndex>(i + 1)) !=
          request.survivors.end();
      if (!survivor) continue;
      FL_ASSIGN_OR_RETURN(UnmaskingResponse resp,
                          clients[i].Unmask(request));
      FL_RETURN_IF_ERROR(server.CollectUnmaskingResponse(resp));
    }
    return server.Finalize();
  }
};

std::vector<std::vector<std::uint32_t>> RandomInputs(std::size_t n,
                                                     std::size_t veclen,
                                                     Rng& rng) {
  std::vector<std::vector<std::uint32_t>> inputs(n);
  for (auto& v : inputs) {
    v.resize(veclen);
    for (auto& x : v) x = static_cast<std::uint32_t>(rng.UniformInt(1000));
  }
  return inputs;
}

std::vector<std::uint32_t> ExpectedSum(
    const std::vector<std::vector<std::uint32_t>>& inputs,
    const std::vector<int>& drop_after) {
  std::vector<std::uint32_t> sum(inputs[0].size(), 0);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (drop_after[i] < 3) continue;  // never committed
    for (std::size_t j = 0; j < sum.size(); ++j) sum[j] += inputs[i][j];
  }
  return sum;
}

TEST(SecAggTest, AllSurviveYieldsExactSum) {
  Rng rng(1);
  ProtocolRun run;
  run.inputs = RandomInputs(5, 16, rng);
  run.drop_after = std::vector<int>(5, 4);
  run.threshold = 3;
  const auto sum = run.Execute();
  ASSERT_TRUE(sum.ok()) << sum.status();
  EXPECT_EQ(*sum, ExpectedSum(run.inputs, run.drop_after));
}

TEST(SecAggTest, DropoutBeforeCommitRecovered) {
  // One client shares keys, then vanishes before committing: its pairwise
  // masks must be reconstructed from shares (the protocol's core trick).
  Rng rng(2);
  ProtocolRun run;
  run.inputs = RandomInputs(5, 8, rng);
  run.drop_after = {4, 4, 2, 4, 4};  // client 2 drops after ShareKeys
  run.threshold = 3;
  const auto sum = run.Execute();
  ASSERT_TRUE(sum.ok()) << sum.status();
  EXPECT_EQ(*sum, ExpectedSum(run.inputs, run.drop_after));
}

TEST(SecAggTest, DropoutAfterCommitStillIncluded) {
  // "All devices who complete this round will have their model update
  // included in the protocol's final aggregate update" — a client that
  // commits then vanishes before Finalization still counts.
  Rng rng(3);
  ProtocolRun run;
  run.inputs = RandomInputs(5, 8, rng);
  run.drop_after = {4, 4, 3, 4, 4};  // client 2 drops after commit
  run.threshold = 3;
  const auto sum = run.Execute();
  ASSERT_TRUE(sum.ok()) << sum.status();
  EXPECT_EQ(*sum, ExpectedSum(run.inputs, run.drop_after));
}

TEST(SecAggTest, MultipleMixedDropouts) {
  Rng rng(4);
  ProtocolRun run;
  run.inputs = RandomInputs(8, 12, rng);
  run.drop_after = {4, 1, 2, 4, 3, 4, 2, 4};
  run.threshold = 4;
  const auto sum = run.Execute();
  ASSERT_TRUE(sum.ok()) << sum.status();
  EXPECT_EQ(*sum, ExpectedSum(run.inputs, run.drop_after));
}

TEST(SecAggTest, TooFewCommittersAbortsEntireAggregation) {
  // "or else the entire aggregation will fail."
  Rng rng(5);
  ProtocolRun run;
  run.inputs = RandomInputs(5, 8, rng);
  run.drop_after = {4, 4, 2, 2, 2};  // only 2 commit, threshold 3
  run.threshold = 3;
  const auto sum = run.Execute();
  ASSERT_FALSE(sum.ok());
  EXPECT_EQ(sum.status().code(), ErrorCode::kAborted);
}

TEST(SecAggTest, TooFewAdvertisersAborts) {
  Rng rng(6);
  ProtocolRun run;
  run.inputs = RandomInputs(4, 4, rng);
  run.drop_after = {0, 0, 4, 4};
  run.threshold = 3;
  EXPECT_FALSE(run.Execute().ok());
}

TEST(SecAggTest, MaskedInputsLookRandomToServer) {
  // Honest-but-curious server: the masked vector of a single client should
  // not reveal the input. We check the masked value differs from the input
  // in (almost) every coordinate and decorrelates from it.
  Rng rng(7);
  const std::size_t veclen = 64;
  std::vector<SecAggClient> clients;
  for (int i = 1; i <= 3; ++i) {
    clients.emplace_back(static_cast<ParticipantIndex>(i), 2, veclen,
                         ClientRandomness(rng));
  }
  SecAggServer server(2, veclen);
  for (auto& c : clients) {
    ASSERT_TRUE(server.CollectAdvertisement(c.AdvertiseKeys()).ok());
  }
  const auto directory = server.FinishAdvertising();
  ASSERT_TRUE(directory.ok());
  for (auto& c : clients) {
    const auto msg = c.ShareKeys(*directory);
    ASSERT_TRUE(msg.ok());
    ASSERT_TRUE(server.CollectShares(*msg).ok());
  }
  const auto u1 = server.FinishSharing();
  ASSERT_TRUE(u1.ok());

  std::vector<std::uint32_t> input(veclen, 5);
  const auto masked = clients[0].MaskInput(input, *u1);
  ASSERT_TRUE(masked.ok());
  std::size_t unchanged = 0;
  for (std::size_t i = 0; i < veclen; ++i) {
    if (masked->masked[i] == input[i]) ++unchanged;
  }
  EXPECT_LE(unchanged, 2u);
}

TEST(SecAggTest, ClientRefusesToRevealBothSecrets) {
  Rng rng(8);
  SecAggClient client(1, 2, 4, ClientRandomness(rng));
  UnmaskingRequest bad;
  bad.dropped = {2};
  bad.survivors = {1, 2};  // 2 in both sets: would unmask an individual
  const auto resp = client.Unmask(bad);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), ErrorCode::kPermissionDenied);
}

TEST(SecAggTest, ServerRejectsMaskKeySharesOfCommittedClients) {
  Rng rng(9);
  const std::size_t veclen = 4;
  std::vector<SecAggClient> clients;
  for (int i = 1; i <= 3; ++i) {
    clients.emplace_back(static_cast<ParticipantIndex>(i), 2, veclen,
                         ClientRandomness(rng));
  }
  SecAggServer server(2, veclen);
  for (auto& c : clients) {
    ASSERT_TRUE(server.CollectAdvertisement(c.AdvertiseKeys()).ok());
  }
  auto directory = server.FinishAdvertising();
  ASSERT_TRUE(directory.ok());
  for (auto& c : clients) {
    auto msg = c.ShareKeys(*directory);
    ASSERT_TRUE(msg.ok());
    ASSERT_TRUE(server.CollectShares(*msg).ok());
  }
  auto u1 = server.FinishSharing();
  ASSERT_TRUE(u1.ok());
  std::vector<std::uint32_t> input(veclen, 1);
  for (auto& c : clients) {
    auto masked = c.MaskInput(input, *u1);
    ASSERT_TRUE(masked.ok());
    ASSERT_TRUE(server.CollectMaskedInput(*masked).ok());
  }
  ASSERT_TRUE(server.FinishCommit().ok());
  // A malicious/buggy response revealing a committed client's mask key must
  // be rejected (it would let the server unmask that client's input).
  UnmaskingResponse evil;
  evil.index = 1;
  evil.mask_key_shares[2] = {crypto::Share{1, 42}};
  const auto s = server.CollectUnmaskingResponse(evil);
  EXPECT_EQ(s.code(), ErrorCode::kPermissionDenied);
}

TEST(SecAggTest, DuplicateMessagesRejected) {
  Rng rng(10);
  SecAggClient client(1, 2, 4, ClientRandomness(rng));
  SecAggServer server(2, 4);
  ASSERT_TRUE(server.CollectAdvertisement(client.AdvertiseKeys()).ok());
  EXPECT_EQ(server.CollectAdvertisement(client.AdvertiseKeys()).code(),
            ErrorCode::kAlreadyExists);
}

TEST(SecAggTest, VectorLengthMismatchRejected) {
  Rng rng(11);
  ProtocolRun run;
  run.inputs = RandomInputs(3, 4, rng);
  run.drop_after = std::vector<int>(3, 4);
  run.threshold = 2;
  // Sanity: protocol works, then a direct bad-size injection fails.
  ASSERT_TRUE(run.Execute().ok());

  SecAggServer server(2, 4);
  MaskedInput bad;
  bad.index = 1;
  bad.masked = {1, 2, 3};  // wrong length
  // Not in commit phase yet, but phase error also surfaces as failure.
  EXPECT_FALSE(server.CollectMaskedInput(bad).ok());
}

TEST(SecAggTest, CostStatsCountQuadraticWork) {
  Rng rng(12);
  ProtocolRun run;
  run.inputs = RandomInputs(6, 8, rng);
  run.drop_after = {4, 4, 2, 2, 4, 4};  // two dropped after sharing
  run.threshold = 3;

  const std::size_t n = run.inputs.size();
  const std::size_t veclen = run.inputs[0].size();
  Rng crng(13);
  std::vector<SecAggClient> clients;
  for (std::size_t i = 0; i < n; ++i) {
    clients.emplace_back(static_cast<ParticipantIndex>(i + 1), run.threshold,
                         veclen, ClientRandomness(crng));
  }
  SecAggServer server(run.threshold, veclen);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(server.CollectAdvertisement(clients[i].AdvertiseKeys()).ok());
  }
  auto dir = server.FinishAdvertising();
  ASSERT_TRUE(dir.ok());
  for (std::size_t i = 0; i < n; ++i) {
    if (run.drop_after[i] < 2) continue;
    auto msg = clients[i].ShareKeys(*dir);
    ASSERT_TRUE(msg.ok());
    ASSERT_TRUE(server.CollectShares(*msg).ok());
  }
  auto u1 = server.FinishSharing();
  ASSERT_TRUE(u1.ok());
  for (std::size_t i = 0; i < n; ++i) {
    if (run.drop_after[i] < 3) continue;
    for (const auto& s :
         server.SharesFor(static_cast<ParticipantIndex>(i + 1))) {
      clients[i].ReceiveShare(s);
    }
    auto masked = clients[i].MaskInput(run.inputs[i], *u1);
    ASSERT_TRUE(masked.ok());
    ASSERT_TRUE(server.CollectMaskedInput(*masked).ok());
  }
  auto req = server.FinishCommit();
  ASSERT_TRUE(req.ok());
  for (std::size_t i = 0; i < n; ++i) {
    if (run.drop_after[i] < 4) continue;
    auto resp = clients[i].Unmask(*req);
    ASSERT_TRUE(resp.ok());
    ASSERT_TRUE(server.CollectUnmaskingResponse(*resp).ok());
  }
  ASSERT_TRUE(server.Finalize().ok());

  const ServerCostStats& stats = server.cost_stats();
  // 2 dropped x 4 survivors pairwise expansions + 4 survivor self-masks.
  EXPECT_EQ(stats.modexp_operations, 2u * 4u);
  EXPECT_EQ(stats.prg_words_expanded, (2u * 4u + 4u) * veclen);
  EXPECT_GT(stats.shamir_reconstructions, 0u);
}

class SecAggSweep : public ::testing::TestWithParam<
                        std::tuple<std::size_t, std::size_t, double>> {};

TEST_P(SecAggSweep, SumCorrectUnderRandomDropouts) {
  const auto [n, veclen, drop_prob] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 1000 + veclen));
  ProtocolRun run;
  run.inputs = RandomInputs(n, veclen, rng);
  run.threshold = std::max<std::size_t>(2, (2 * n) / 3);
  run.drop_after.resize(n);
  for (auto& d : run.drop_after) {
    // Drop-outs only at rounds >= 2 so U1 stays large enough; this models
    // mid-round failures (the common production case).
    d = rng.Bernoulli(drop_prob) ? static_cast<int>(rng.UniformInt(2, 3)) : 4;
  }
  // Guarantee threshold-many full survivors.
  std::size_t survivors = 0;
  for (int d : run.drop_after) {
    if (d == 4) ++survivors;
  }
  for (std::size_t i = 0; i < n && survivors < run.threshold + 1; ++i) {
    if (run.drop_after[i] != 4) {
      run.drop_after[i] = 4;
      ++survivors;
    }
  }
  const auto sum = run.Execute(n * 37 + veclen);
  ASSERT_TRUE(sum.ok()) << sum.status();
  EXPECT_EQ(*sum, ExpectedSum(run.inputs, run.drop_after));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SecAggSweep,
    ::testing::Values(std::make_tuple(4, 4, 0.0),
                      std::make_tuple(8, 16, 0.2),
                      std::make_tuple(12, 8, 0.3),
                      std::make_tuple(20, 32, 0.1),
                      std::make_tuple(32, 8, 0.15)));

// --- The split rounds: Prepare* on the caller, the crypto as pool jobs ---

// One cohort of six (threshold 4, 3 000 words in a 16-bit ring), where
// member 6 shares keys and then drops before committing. Transcript folds
// every client message in protocol order into one CRC, and checks the sum.
struct ClientTranscript {
  std::uint32_t crc = 0;
  bool sum_ok = false;
};

constexpr std::size_t kJobCohort = 6;
constexpr std::size_t kJobThreshold = 4;
constexpr std::size_t kJobWords = 3000;
constexpr std::uint8_t kJobRingBits = 16;

void FoldShares(const ShareKeysMessage& m, BytesWriter& w) {
  w.WriteVarint(m.index);
  for (const EncryptedShare& s : m.shares) {
    w.WriteVarint(s.from);
    w.WriteVarint(s.to);
    w.WriteBytes(s.ciphertext);
  }
}

void FoldMasked(const MaskedInput& m, BytesWriter& w) {
  w.WriteVarint(m.index);
  for (std::uint32_t x : m.masked) w.WriteU32(x);
}

void FoldResponse(const UnmaskingResponse& r, BytesWriter& w) {
  w.WriteVarint(r.index);
  for (const auto* shares : {&r.mask_key_shares, &r.self_seed_shares}) {
    w.WriteVarint(shares->size());
    for (const auto& [u, limbs] : *shares) {
      w.WriteVarint(u);
      for (const crypto::Share& s : limbs) {
        w.WriteU64(s.x);
        w.WriteU64(s.y);
      }
    }
  }
}

// `pool` null: the one-call rounds. Otherwise every client first runs its
// Prepare half here, then the second halves run as Submit()ted jobs (on a
// zero-worker pool, inside Wait), with the clients' mask fan-out on `pool`
// too.
ClientTranscript RunClientTranscript(common::ThreadPool* pool) {
  Rng rng(11);
  std::vector<SecAggClient> clients;
  std::vector<std::vector<std::uint32_t>> inputs(kJobCohort);
  for (std::size_t i = 0; i < kJobCohort; ++i) {
    clients.emplace_back(static_cast<ParticipantIndex>(i + 1), kJobThreshold,
                         kJobWords, ClientRandomness(rng), kJobRingBits);
    clients.back().SetThreadPool(pool);
    inputs[i].resize(kJobWords);
    for (auto& x : inputs[i]) x = static_cast<std::uint32_t>(rng.Next()) & 0xFFFF;
  }
  SecAggServer server(kJobThreshold, kJobWords, kJobRingBits);
  BytesWriter transcript;
  ClientTranscript out;
  for (auto& c : clients) {
    if (!server.CollectAdvertisement(c.AdvertiseKeys()).ok()) return out;
  }
  const auto directory = server.FinishAdvertising();
  if (!directory.ok()) return out;

  std::vector<ShareKeysMessage> shares(kJobCohort);
  if (pool == nullptr) {
    for (std::size_t i = 0; i < kJobCohort; ++i) {
      auto m = clients[i].ShareKeys(*directory);
      if (!m.ok()) return out;
      shares[i] = std::move(m).value();
    }
  } else {
    std::vector<common::ThreadPool::Handle> jobs;
    std::vector<std::size_t> predicted(kJobCohort);
    for (std::size_t i = 0; i < kJobCohort; ++i) {
      auto job = clients[i].PrepareShareKeys(*directory);
      if (!job.ok()) return out;
      predicted[i] = job->CiphertextBytes();
      jobs.push_back(pool->Submit([&, i, job = std::move(job).value()] {
        shares[i] = clients[i].SealShares(job);
      }));
    }
    for (auto& j : jobs) j.Wait();
    for (std::size_t i = 0; i < kJobCohort; ++i) {
      std::size_t sealed = 0;
      for (const EncryptedShare& s : shares[i].shares) {
        sealed += s.ciphertext.size();
      }
      EXPECT_EQ(sealed, predicted[i]) << "client " << i + 1;
    }
  }
  for (const auto& m : shares) {
    FoldShares(m, transcript);
    if (!server.CollectShares(m).ok()) return out;
  }
  const auto u1 = server.FinishSharing();
  if (!u1.ok()) return out;
  const std::size_t committers = kJobCohort - 1;  // member 6 drops here
  for (std::size_t i = 0; i < committers; ++i) {
    for (const auto& s : server.SharesFor(static_cast<ParticipantIndex>(i + 1))) {
      clients[i].ReceiveShare(s);
    }
  }

  std::vector<MaskedInput> masked(committers);
  if (pool == nullptr) {
    for (std::size_t i = 0; i < committers; ++i) {
      auto m = clients[i].MaskInput(inputs[i], *u1);
      if (!m.ok()) return out;
      masked[i] = std::move(m).value();
    }
  } else {
    std::vector<common::ThreadPool::Handle> jobs;
    for (std::size_t i = 0; i < committers; ++i) {
      auto job = clients[i].PrepareMaskInput(inputs[i], *u1);
      if (!job.ok()) return out;
      jobs.push_back(pool->Submit([&, i, job = std::move(job).value()] {
        masked[i] = clients[i].RunMaskInput(job);
      }));
    }
    for (auto& j : jobs) j.Wait();
  }
  for (const auto& m : masked) {
    FoldMasked(m, transcript);
    if (!server.CollectMaskedInput(m).ok()) return out;
  }
  const auto request = server.FinishCommit();
  if (!request.ok()) return out;

  std::vector<UnmaskingResponse> responses(committers);
  if (pool == nullptr) {
    for (std::size_t i = 0; i < committers; ++i) {
      auto r = clients[i].Unmask(*request);
      if (!r.ok()) return out;
      responses[i] = std::move(r).value();
    }
  } else {
    std::vector<common::ThreadPool::Handle> jobs;
    std::vector<Result<UnmaskingResponse>> opened(
        committers, InternalError("not run"));
    std::vector<UnmaskingResponse> prepared(committers);
    for (std::size_t i = 0; i < committers; ++i) {
      auto job = clients[i].PrepareUnmask(*request);
      if (!job.ok()) return out;
      prepared[i] = job->response;
      jobs.push_back(pool->Submit([&, i, job = std::move(job).value()] {
        opened[i] = clients[i].OpenShares(job);
      }));
    }
    for (auto& j : jobs) j.Wait();
    for (std::size_t i = 0; i < committers; ++i) {
      if (!opened[i].ok()) return out;
      responses[i] = std::move(opened[i]).value();
      // The wire size is fixed before the job runs: same members answered.
      const auto keys = [](const auto& m) {
        std::vector<ParticipantIndex> k;
        for (const auto& [u, limbs] : m) k.push_back(u);
        return k;
      };
      EXPECT_EQ(keys(prepared[i].mask_key_shares),
                keys(responses[i].mask_key_shares));
      EXPECT_EQ(keys(prepared[i].self_seed_shares),
                keys(responses[i].self_seed_shares));
    }
  }
  for (const auto& r : responses) {
    FoldResponse(r, transcript);
    if (!server.CollectUnmaskingResponse(r).ok()) return out;
  }
  const auto sum = server.Finalize();
  if (!sum.ok()) return out;
  out.sum_ok = true;
  for (std::size_t j = 0; j < kJobWords; ++j) {
    std::uint32_t want = 0;
    for (std::size_t i = 0; i < committers; ++i) want += inputs[i][j];
    out.sum_ok = out.sum_ok && ((*sum)[j] & 0xFFFF) == (want & 0xFFFF);
  }
  const Bytes bytes = std::move(transcript).Take();
  out.crc = Crc32(bytes);
  return out;
}

// Recorded with the one-call rounds before they were split, when Unmask
// still re-derived each transport key.
constexpr std::uint32_t kClientTranscriptCrc = 0xe1257fdcu;

TEST(SecAggClientJobsTest, OneCallRoundsMatchPinnedTranscript) {
  const ClientTranscript t = RunClientTranscript(nullptr);
  EXPECT_TRUE(t.sum_ok);
  EXPECT_EQ(t.crc, kClientTranscriptCrc);
}

TEST(SecAggClientJobsTest, SplitRoundsAsPoolJobsGiveTheSameBytes) {
  for (std::size_t workers : {0u, 1u, 3u}) {
    common::ThreadPool pool(workers);
    const ClientTranscript t = RunClientTranscript(&pool);
    EXPECT_TRUE(t.sum_ok) << workers << " workers";
    EXPECT_EQ(t.crc, kClientTranscriptCrc) << workers << " workers";
  }
}

TEST(SecAggClientJobsTest, UnmaskRefusesAShareClaimingToBeFromItself) {
  // Every transport key a client keeps is for a peer; a stored share that
  // claims this client as its sender cannot be opened.
  Rng rng(3);
  std::vector<SecAggClient> clients;
  SecAggServer server(2, 4);
  for (ParticipantIndex i = 1; i <= 3; ++i) {
    clients.emplace_back(i, 2, 4, ClientRandomness(rng));
    ASSERT_TRUE(server.CollectAdvertisement(clients.back().AdvertiseKeys()).ok());
  }
  const auto directory = server.FinishAdvertising();
  ASSERT_TRUE(directory.ok());
  const auto own = clients[0].ShareKeys(*directory);
  ASSERT_TRUE(own.ok());
  EncryptedShare self = own->shares.front();
  self.from = 1;
  self.to = 1;
  clients[0].ReceiveShare(self);
  UnmaskingRequest request;
  request.survivors = {1, 2, 3};
  const auto resp = clients[0].Unmask(request);
  EXPECT_FALSE(resp.ok());
}

}  // namespace
}  // namespace fl::secagg
