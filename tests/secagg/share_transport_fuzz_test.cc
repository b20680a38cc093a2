// Seeded mutational fuzzing of the Secure Aggregation share transport and of
// the server's collection rounds.
//
//   - Client side: relayed EncryptedShare ciphertexts are bit-flipped,
//     truncated, spliced with another share or emptied before ReceiveShare,
//     then Unmask runs. A second loop reaches the share-bundle decoder
//     (BytesReader) behind the AEAD: a test-held cohort member encrypts
//     mutated bundle plaintexts under the real transport key.
//   - Server side: every Collect* call is fed hostile participant indices,
//     duplicates, wrong lengths and wrong phases between honest messages.
//
// Invariant: nothing crashes; every call returns a Status error or its
// result round-trips exactly — the clean Unmask response, and the plain sum
// of the inputs from Finalize. A rejected message leaves no trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <set>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/crypto/aead.h"
#include "src/crypto/dh.h"
#include "src/secagg/client.h"
#include "src/secagg/server.h"

namespace fl::secagg {
namespace {

constexpr std::size_t kRealClients = 4;
constexpr ParticipantIndex kPeer = kRealClients + 1;  // test-held member
constexpr std::size_t kThreshold = 3;
constexpr std::size_t kVectorLength = 24;
constexpr std::size_t kSeedLimbs = 5;
// The share-transport key label (src/secagg/client.cc).
constexpr const char* kTransportLabel = "secagg-share-transport";

crypto::Key256 RandomKey(Rng& rng) {
  crypto::Key256 k;
  for (auto& b : k) b = static_cast<std::uint8_t>(rng.Next());
  return k;
}

// One random mutation of `input`: bit flips, truncation, a splice with
// `other`, or the empty string.
Bytes Mutate(const Bytes& input, const Bytes& other, Rng& rng) {
  Bytes out = input;
  switch (rng.UniformInt(4)) {
    case 0: {
      const int flips = 1 + static_cast<int>(rng.UniformInt(4));
      for (int f = 0; f < flips && !out.empty(); ++f) {
        out[rng.UniformInt(out.size())] ^=
            static_cast<std::uint8_t>(1u << rng.UniformInt(8));
      }
      break;
    }
    case 1:
      out.resize(rng.UniformInt(out.size() + 1));
      break;
    case 2: {
      out.resize(rng.UniformInt(out.size() + 1));
      const std::size_t from = rng.UniformInt(other.size() + 1);
      out.insert(out.end(), other.begin() + static_cast<std::ptrdiff_t>(from),
                 other.end());
      break;
    }
    default:
      out.clear();
      break;
  }
  return out;
}

// A share bundle as the client encodes it: sender, recipient, one share of
// the mask secret key, then the self-mask seed's limb shares.
Bytes EncodeBundle(ParticipantIndex from, ParticipantIndex to,
                   std::uint64_t limbs_field,
                   const std::vector<crypto::Share>& shares) {
  BytesWriter w;
  w.WriteVarint(from);
  w.WriteVarint(to);
  w.WriteU64(shares[0].x);
  w.WriteU64(shares[0].y);
  w.WriteVarint(limbs_field);
  for (std::size_t i = 1; i < shares.size(); ++i) {
    w.WriteU64(shares[i].x);
    w.WriteU64(shares[i].y);
  }
  return std::move(w).Take();
}

// Four real clients plus one member whose transport keys the test holds,
// after ShareKeys. Recipient of the fuzzed shares: client 1.
class ShareTransportFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(2027);
    SecAggServer server(kThreshold, kVectorLength);
    for (std::size_t i = 0; i < kRealClients; ++i) {
      clients_.emplace_back(static_cast<ParticipantIndex>(i + 1), kThreshold,
                            kVectorLength, RandomKey(rng));
      ASSERT_TRUE(
          server.CollectAdvertisement(clients_.back().AdvertiseKeys()).ok());
    }
    peer_enc_ = crypto::GenerateKeyPair(RandomKey(rng));
    ASSERT_TRUE(server
                    .CollectAdvertisement(KeyAdvertisement{
                        kPeer, peer_enc_.public_key,
                        crypto::GenerateKeyPair(RandomKey(rng)).public_key})
                    .ok());
    auto directory = server.FinishAdvertising();
    ASSERT_TRUE(directory.ok());
    directory_ = *directory;
    for (auto& c : clients_) {
      auto msg = c.ShareKeys(directory_);
      ASSERT_TRUE(msg.ok());
      ASSERT_TRUE(server.CollectShares(*msg).ok());
    }
    inbound_ = server.SharesFor(1);
    ASSERT_EQ(inbound_.size(), kRealClients - 1);
    for (std::size_t i = 0; i <= kSeedLimbs; ++i) {
      peer_shares_.push_back(crypto::Share{1, rng.Next() >> 4});
    }
    inbound_.push_back(PeerShare(
        EncodeBundle(kPeer, 1, kSeedLimbs, peer_shares_)));

    request_.dropped = {2};
    request_.survivors = {1, 3, 4, kPeer};
    auto clean = UnmaskWith(inbound_);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    clean_ = *clean;
    ASSERT_EQ(clean_.mask_key_shares.size(), 1u);
    ASSERT_EQ(clean_.self_seed_shares.size(), 4u);
  }

  // The test-held member's bundle, sealed under its transport key with
  // client 1.
  EncryptedShare PeerShare(const Bytes& plaintext) const {
    const crypto::Key256 key = crypto::Agree(
        peer_enc_, directory_.at(1).enc_public_key, kTransportLabel);
    return EncryptedShare{kPeer, 1,
                          crypto::AeadEncrypt(key, crypto::Nonce96{},
                                              plaintext)};
  }

  // Client 1 as it stood after ShareKeys, fed `shares`, asked to unmask.
  Result<UnmaskingResponse> UnmaskWith(
      const std::vector<EncryptedShare>& shares) const {
    SecAggClient client = clients_[0];
    for (const EncryptedShare& s : shares) client.ReceiveShare(s);
    return client.Unmask(request_);
  }

  static bool SameResponse(const UnmaskingResponse& a,
                           const UnmaskingResponse& b) {
    const auto same = [](const std::vector<crypto::Share>& x,
                         const std::vector<crypto::Share>& y) {
      return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                        [](const crypto::Share& p, const crypto::Share& q) {
                          return p.x == q.x && p.y == q.y;
                        });
    };
    const auto same_map = [&](const auto& x, const auto& y) {
      return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                        [&](const auto& p, const auto& q) {
                          return p.first == q.first && same(p.second, q.second);
                        });
    };
    return a.index == b.index && same_map(a.mask_key_shares, b.mask_key_shares) &&
           same_map(a.self_seed_shares, b.self_seed_shares);
  }

  std::vector<SecAggClient> clients_;
  crypto::DhKeyPair peer_enc_;
  KeyDirectory directory_;
  std::vector<EncryptedShare> inbound_;
  std::vector<crypto::Share> peer_shares_;
  UnmaskingRequest request_;
  UnmaskingResponse clean_;
};

TEST_F(ShareTransportFuzz, MutatedCiphertextsFailOrRoundTrip) {
  Rng rng(99);
  std::size_t rejected = 0;
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<EncryptedShare> shares = inbound_;
    const std::size_t k = rng.UniformInt(shares.size());
    const Bytes& other = inbound_[rng.UniformInt(inbound_.size())].ciphertext;
    shares[k].ciphertext = Mutate(shares[k].ciphertext, other, rng);
    const auto resp = UnmaskWith(shares);
    if (shares[k].ciphertext == inbound_[k].ciphertext) {
      ASSERT_TRUE(resp.ok()) << iter;
      EXPECT_TRUE(SameResponse(*resp, clean_)) << iter;
    } else {
      // The AEAD tag covers every ciphertext byte.
      EXPECT_FALSE(resp.ok()) << iter;
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 300u);
}

TEST_F(ShareTransportFuzz, MisaddressedSharesNeverLeakIntoTheResponse) {
  // Hostile routing headers: a share claiming another sender fails
  // authentication; one addressed elsewhere, or from outside the request,
  // is never decrypted. Whatever Unmask returns carries only clean shares.
  Rng rng(5);
  const ParticipantIndex hostile[] = {0, 1, 2, 3, kPeer, kPeer + 1,
                                      0xFFFFFFFFu};
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<EncryptedShare> shares = inbound_;
    EncryptedShare& s = shares[rng.UniformInt(shares.size())];
    (rng.UniformInt(2) == 0 ? s.from : s.to) =
        hostile[rng.UniformInt(std::size(hostile))];
    const auto resp = UnmaskWith(shares);
    if (!resp.ok()) continue;
    for (const auto& [u, limbs] : resp->self_seed_shares) {
      ASSERT_EQ(clean_.self_seed_shares.count(u), 1u) << iter;
      UnmaskingResponse one;
      one.self_seed_shares[u] = limbs;
      UnmaskingResponse want;
      want.self_seed_shares[u] = clean_.self_seed_shares.at(u);
      EXPECT_TRUE(SameResponse(one, want)) << iter;
    }
    for (const auto& [u, limbs] : resp->mask_key_shares) {
      ASSERT_EQ(clean_.mask_key_shares.count(u), 1u) << iter;
    }
  }
}

TEST_F(ShareTransportFuzz, MutatedBundlesReachTheDecoderAndFailOrRoundTrip) {
  Rng rng(31);
  const Bytes clean_bundle = EncodeBundle(kPeer, 1, kSeedLimbs, peer_shares_);
  const Bytes other_bundle = EncodeBundle(2, 1, kSeedLimbs, peer_shares_);
  // Limb counts the decoder must bound or reject, at the real field offset.
  const std::uint64_t limb_fields[] = {0, 4, 6, 16, 17, 1u << 20,
                                       ~std::uint64_t{0}};
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (int iter = 0; iter < 400; ++iter) {
    const Bytes bundle =
        iter % 4 == 3
            ? EncodeBundle(kPeer, 1,
                           limb_fields[rng.UniformInt(std::size(limb_fields))],
                           peer_shares_)
            : Mutate(clean_bundle, other_bundle, rng);
    std::vector<EncryptedShare> shares = inbound_;
    shares.back() = PeerShare(bundle);
    const auto resp = UnmaskWith(shares);
    if (bundle == clean_bundle) {
      ASSERT_TRUE(resp.ok()) << iter;
      EXPECT_TRUE(SameResponse(*resp, clean_)) << iter;
      continue;
    }
    if (!resp.ok()) {
      ++rejected;
      continue;
    }
    // A bundle that still decodes may only change the member's own limbs.
    ++decoded;
    ASSERT_EQ(resp->self_seed_shares.size(), clean_.self_seed_shares.size());
    EXPECT_LE(resp->self_seed_shares.at(kPeer).size(), 16u);
    UnmaskingResponse rest = *resp;
    UnmaskingResponse want = clean_;
    rest.self_seed_shares.erase(kPeer);
    want.self_seed_shares.erase(kPeer);
    EXPECT_TRUE(SameResponse(rest, want)) << iter;
  }
  EXPECT_GT(rejected, 100u);
  EXPECT_GT(decoded, 0u);
}

// --- Server side ------------------------------------------------------------

// Honest cohort of kN clients; client i's input is i in every word, and
// client kDropped drops after ShareKeys so the dropout path runs too.
class ServerCollectFuzz : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 6;
  static constexpr ParticipantIndex kDropped = 2;

  void SetUp() override {
    Rng rng(404);
    for (std::size_t i = 1; i <= kN; ++i) {
      clients_.emplace_back(static_cast<ParticipantIndex>(i), kThreshold,
                            kVectorLength, RandomKey(rng));
    }
    want_.assign(kVectorLength, 0);
    for (std::size_t i = 1; i <= kN; ++i) {
      if (i == kDropped) continue;
      for (auto& w : want_) w += static_cast<std::uint32_t>(i);
    }
  }

  // Runs the protocol, calling `hostile(server)` at the start of every
  // phase and after each honest message; it may make any calls it likes.
  // Returns Finalize's result.
  Result<std::vector<std::uint32_t>> Run(
      const std::function<void(SecAggServer&)>& hostile) {
    SecAggServer server(kThreshold, kVectorLength);
    hostile(server);
    for (auto& c : clients_) {
      EXPECT_TRUE(server.CollectAdvertisement(c.AdvertiseKeys()).ok());
      advertised_.insert(c.index());
      hostile(server);
    }
    auto directory = server.FinishAdvertising();
    if (!directory.ok()) return directory.status();
    phase_ = 1;
    hostile(server);
    for (auto& c : clients_) {
      auto msg = c.ShareKeys(*directory);
      EXPECT_TRUE(msg.ok());
      EXPECT_TRUE(server.CollectShares(*msg).ok());
      shared_.insert(c.index());
      last_shares_ = *msg;
      hostile(server);
    }
    auto u1 = server.FinishSharing();
    if (!u1.ok()) return u1.status();
    phase_ = 2;
    hostile(server);
    for (auto& c : clients_) {
      for (const EncryptedShare& s : server.SharesFor(c.index())) {
        c.ReceiveShare(s);
      }
    }
    for (auto& c : clients_) {
      if (c.index() == kDropped) continue;
      const std::vector<std::uint32_t> input(kVectorLength, c.index());
      auto masked = c.MaskInput(input, *u1);
      EXPECT_TRUE(masked.ok());
      EXPECT_TRUE(server.CollectMaskedInput(*masked).ok());
      last_masked_ = *masked;
      hostile(server);
    }
    auto request = server.FinishCommit();
    if (!request.ok()) return request.status();
    phase_ = 3;
    hostile(server);
    for (auto& c : clients_) {
      if (c.index() == kDropped) continue;
      auto resp = c.Unmask(*request);
      EXPECT_TRUE(resp.ok());
      EXPECT_TRUE(server.CollectUnmaskingResponse(*resp).ok());
      responded_.insert(c.index());
      last_response_ = *resp;
      hostile(server);
    }
    return server.Finalize();
  }

  std::vector<SecAggClient> clients_;
  std::vector<std::uint32_t> want_;
  // Honest progress, so the hostile side knows what counts as a replay.
  int phase_ = 0;
  std::set<ParticipantIndex> advertised_;
  std::set<ParticipantIndex> shared_;
  std::set<ParticipantIndex> responded_;
  ShareKeysMessage last_shares_;
  MaskedInput last_masked_;
  UnmaskingResponse last_response_;
};

TEST_F(ServerCollectFuzz, HostileCallsAreRejectedAndLeaveTheSumExact) {
  Rng rng(8);
  // Never a member: zero, past the cohort, far past it.
  const ParticipantIndex outsiders[] = {0, kN + 1, 1u << 20, 0xFFFFFFFFu};
  const auto outsider = [&] {
    return outsiders[rng.UniformInt(std::size(outsiders))];
  };
  const auto member = [&] {
    return static_cast<ParticipantIndex>(1 + rng.UniformInt(kN));
  };
  const auto pick = [&](const std::set<ParticipantIndex>& from) {
    auto it = from.begin();
    std::advance(it, rng.UniformInt(from.size()));
    return *it;
  };
  std::size_t rejected = 0;
  const auto reject = [&](const Status& s, const char* what) {
    ++rejected;
    EXPECT_FALSE(s.ok()) << "accepted hostile " << what << " in phase "
                         << phase_;
  };

  const auto hostile = [&](SecAggServer& server) {
    for (int k = 0; k < 4; ++k) {
      switch (rng.UniformInt(6)) {
        case 0: {  // advertisement: index 0, a duplicate, or out of phase
          ParticipantIndex i = 0;
          if (phase_ > 0) {
            i = member();
          } else if (!advertised_.empty() && rng.UniformInt(2) == 0) {
            i = pick(advertised_);
          }
          reject(server.CollectAdvertisement(KeyAdvertisement{i, 7, 7}),
                 "advertisement");
          break;
        }
        case 1: {  // shares: outsider, replay, or one misaddressed share
          ShareKeysMessage msg;
          msg.index = member();
          if (phase_ == 1) {
            if (rng.UniformInt(2) == 0) {
              msg.index = outsider();
            } else if (!shared_.empty() && rng.UniformInt(2) == 0) {
              msg.index = pick(shared_);
            }
          }
          for (ParticipantIndex to = 1; to <= kN; ++to) {
            if (to != msg.index) {
              msg.shares.push_back(EncryptedShare{msg.index, to, {1, 2, 3}});
            }
          }
          EncryptedShare& bad = msg.shares[rng.UniformInt(msg.shares.size())];
          if (rng.UniformInt(2) == 0) {
            bad.from = msg.index == 1 ? 2 : 1;
          } else {
            const ParticipantIndex tos[] = {0, msg.index, kN + 1,
                                            0xFFFFFFFFu};
            bad.to = tos[rng.UniformInt(std::size(tos))];
          }
          reject(server.CollectShares(msg), "shares");
          if (!last_shares_.shares.empty()) {
            reject(server.CollectShares(last_shares_), "share replay");
          }
          break;
        }
        case 2:  // a lookup for any index is never an error
          (void)server.SharesFor(rng.UniformInt(2) == 0 ? outsider()
                                                        : member());
          break;
        case 3: {  // masked input: wrong length, outsider, or replay
          MaskedInput in;
          const std::size_t lengths[] = {0, kVectorLength - 1,
                                         kVectorLength + 1};
          in.index = member();
          in.masked.assign(lengths[rng.UniformInt(std::size(lengths))], 5);
          if (rng.UniformInt(2) == 0) {
            in.index = outsider();
            in.masked.assign(kVectorLength, 5);
          } else if (phase_ == 2 && !last_masked_.masked.empty() &&
                     rng.UniformInt(2) == 0) {
            in = last_masked_;
          }
          reject(server.CollectMaskedInput(in), "masked input");
          break;
        }
        case 4: {  // unmasking: non-survivor, replay, or forbidden content
          UnmaskingResponse resp;
          resp.index = rng.UniformInt(2) == 0 ? outsider() : kDropped;
          if (phase_ == 3 && rng.UniformInt(2) == 0) {
            if (!responded_.empty() && rng.UniformInt(2) == 0) {
              resp = last_response_;  // replay
            } else {
              // A survivor yet to answer, asking for what it must not:
              // a plausible dropped-key share first, then a committed
              // participant's key or a seed with the wrong limb count.
              resp.index = member();
              while (resp.index == kDropped) resp.index = member();
              resp.mask_key_shares[kDropped] = {crypto::Share{9, 9}};
              if (rng.UniformInt(2) == 0) {
                resp.mask_key_shares[resp.index] = {crypto::Share{1, 1}};
              } else {
                resp.self_seed_shares[resp.index].resize(
                    rng.UniformInt(2) == 0 ? 1 : kSeedLimbs + 1);
              }
            }
          }
          reject(server.CollectUnmaskingResponse(resp), "unmask response");
          break;
        }
        default:  // Finalize before the unmasking round
          if (phase_ < 3) reject(server.Finalize().status(), "finalize");
          break;
      }
    }
  };
  const auto sum = Run(hostile);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(*sum, want_);
  EXPECT_GT(rejected, 50u);
}

TEST_F(ServerCollectFuzz, HonestRunRoundTrips) {
  const auto sum = Run([](SecAggServer&) {});
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(*sum, want_);
}

}  // namespace
}  // namespace fl::secagg
