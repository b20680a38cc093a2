#include "src/secagg/client.h"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "src/crypto/chacha20.h"
#include "src/profiler/profiler.h"

namespace fl::secagg {
namespace {

constexpr std::string_view kPairwiseLabel = "secagg-pairwise-mask";
constexpr std::string_view kTransportLabel = "secagg-share-transport";

crypto::Key256 SubSeed(const crypto::Key256& root, std::string_view label) {
  const crypto::Digest d = crypto::DeriveKey(
      std::span<const std::uint8_t>(root.data(), root.size()), label);
  crypto::Key256 k;
  std::memcpy(k.data(), d.data(), k.size());
  return k;
}

std::uint64_t SeedToU64(const crypto::Key256& k) {
  std::uint64_t v;
  std::memcpy(&v, k.data(), sizeof(v));
  return v;
}

crypto::Nonce96 PairNonce(ParticipantIndex from, ParticipantIndex to) {
  crypto::Nonce96 n{};
  for (int i = 0; i < 4; ++i) {
    n[i] = static_cast<std::uint8_t>(from >> (8 * i));
    n[4 + i] = static_cast<std::uint8_t>(to >> (8 * i));
  }
  return n;
}

// Plaintext bundle: one share of the sender's mask secret key and five limb
// shares of the self-mask seed, all evaluated at the recipient's index.
Bytes EncodeShareBundle(ParticipantIndex from, ParticipantIndex to,
                        const crypto::Share& mask_key_share,
                        std::span<const crypto::Share> seed_limb_shares) {
  BytesWriter w;
  w.WriteVarint(from);
  w.WriteVarint(to);
  w.WriteU64(mask_key_share.x);
  w.WriteU64(mask_key_share.y);
  w.WriteVarint(seed_limb_shares.size());
  for (const crypto::Share& s : seed_limb_shares) {
    w.WriteU64(s.x);
    w.WriteU64(s.y);
  }
  return std::move(w).Take();
}

struct DecodedBundle {
  ParticipantIndex from = 0;
  ParticipantIndex to = 0;
  crypto::Share mask_key_share;
  std::vector<crypto::Share> seed_limb_shares;
};

Result<DecodedBundle> DecodeShareBundle(std::span<const std::uint8_t> data) {
  BytesReader r(data);
  DecodedBundle b;
  FL_ASSIGN_OR_RETURN(std::uint64_t from, r.ReadVarint());
  FL_ASSIGN_OR_RETURN(std::uint64_t to, r.ReadVarint());
  b.from = static_cast<ParticipantIndex>(from);
  b.to = static_cast<ParticipantIndex>(to);
  FL_ASSIGN_OR_RETURN(b.mask_key_share.x, r.ReadU64());
  FL_ASSIGN_OR_RETURN(b.mask_key_share.y, r.ReadU64());
  FL_ASSIGN_OR_RETURN(std::uint64_t limbs, r.ReadVarint());
  if (limbs > 16) return DataLossError("implausible limb count");
  b.seed_limb_shares.resize(limbs);
  for (auto& s : b.seed_limb_shares) {
    FL_ASSIGN_OR_RETURN(s.x, r.ReadU64());
    FL_ASSIGN_OR_RETURN(s.y, r.ReadU64());
  }
  if (!r.AtEnd()) return DataLossError("trailing bytes in share bundle");
  return b;
}

}  // namespace

SecAggClient::SecAggClient(ParticipantIndex index, std::size_t threshold,
                           std::size_t vector_length,
                           const crypto::Key256& randomness,
                           std::uint8_t ring_bits)
    : index_(index),
      threshold_(threshold),
      vector_length_(vector_length),
      ring_mask_(ring_bits == 32 ? 0xFFFFFFFFu : ((1u << ring_bits) - 1u)),
      rng_(SeedToU64(SubSeed(randomness, "client-rng"))) {
  FL_CHECK(index >= 1);
  FL_CHECK(ring_bits >= 8 && ring_bits <= 32);
  enc_keys_ = crypto::GenerateKeyPair(SubSeed(randomness, "enc-keypair"));
  mask_keys_ = crypto::GenerateKeyPair(SubSeed(randomness, "mask-keypair"));
  self_seed_ = SubSeed(randomness, "self-mask-seed");
}

KeyAdvertisement SecAggClient::AdvertiseKeys() const {
  return KeyAdvertisement{index_, enc_keys_.public_key,
                          mask_keys_.public_key};
}

Result<ShareKeysMessage> SecAggClient::ShareKeys(
    const KeyDirectory& directory) {
  FL_ASSIGN_OR_RETURN(ShareKeysJob job, PrepareShareKeys(directory));
  return SealShares(job);
}

std::size_t SecAggClient::ShareKeysJob::CiphertextBytes() const {
  std::size_t bytes = 0;
  for (const Bundle& b : bundles) {
    bytes += crypto::AeadCiphertextBytes(b.plaintext.size());
  }
  return bytes;
}

Result<SecAggClient::ShareKeysJob> SecAggClient::PrepareShareKeys(
    const KeyDirectory& directory) {
  if (directory.size() < threshold_) {
    return FailedPreconditionError(
        "cohort of " + std::to_string(directory.size()) +
        " below threshold " + std::to_string(threshold_));
  }
  if (directory.count(index_) == 0) {
    return InvalidArgumentError("directory does not include this client");
  }
  directory_ = directory;

  // Shares are evaluated at participant indices; build them over the max
  // index so share.x == participant index for every member.
  const ParticipantIndex max_index = directory.rbegin()->first;
  FL_ASSIGN_OR_RETURN(
      std::vector<crypto::Share> key_shares,
      crypto::ShamirSplit(mask_keys_.secret, max_index, threshold_, rng_));
  FL_ASSIGN_OR_RETURN(
      std::vector<std::vector<crypto::Share>> seed_shares,
      crypto::ShamirSplitKey(self_seed_, max_index, threshold_, rng_));

  // Retain this client's own evaluation points so it can contribute them in
  // the unmasking round.
  own_key_share_ = key_shares[index_ - 1];
  own_seed_shares_.clear();
  for (const auto& limb : seed_shares) {
    own_seed_shares_.push_back(limb[index_ - 1]);
  }

  ShareKeysJob job;
  job.bundles.reserve(directory.size() - 1);
  std::vector<crypto::Share> limbs;
  for (const auto& [peer, adv] : directory) {
    if (peer == index_) continue;
    // Shares for `peer` are the ones evaluated at x == peer.
    limbs.clear();
    for (const auto& limb : seed_shares) limbs.push_back(limb[peer - 1]);
    job.bundles.push_back(ShareKeysJob::Bundle{
        peer, adv.enc_public_key,
        EncodeShareBundle(index_, peer, key_shares[peer - 1], limbs)});
  }
  return job;
}

ShareKeysMessage SecAggClient::SealShares(const ShareKeysJob& job) {
  ShareKeysMessage msg;
  msg.index = index_;
  msg.shares.reserve(job.bundles.size());
  for (const ShareKeysJob::Bundle& b : job.bundles) {
    const crypto::Key256 transport =
        crypto::Agree(enc_keys_, b.enc_public_key, kTransportLabel);
    transport_keys_[b.to] = transport;
    msg.shares.push_back(EncryptedShare{
        index_, b.to,
        crypto::AeadEncrypt(transport, PairNonce(index_, b.to), b.plaintext)});
  }
  return msg;
}

void SecAggClient::ReceiveShare(const EncryptedShare& share) {
  if (share.to != index_) return;
  incoming_.push_back(StoredShare{share.from, share.ciphertext});
}

Result<MaskedInput> SecAggClient::MaskInput(
    std::span<const std::uint32_t> input,
    const std::vector<ParticipantIndex>& u1) {
  FL_ASSIGN_OR_RETURN(
      MaskJob job,
      PrepareMaskInput(std::vector<std::uint32_t>(input.begin(), input.end()),
                       u1));
  return RunMaskInput(std::move(job));
}

Result<SecAggClient::MaskJob> SecAggClient::PrepareMaskInput(
    std::vector<std::uint32_t> input,
    const std::vector<ParticipantIndex>& u1) {
  if (!directory_.has_value()) {
    return FailedPreconditionError("MaskInput before ShareKeys");
  }
  if (input.size() != vector_length_) {
    return InvalidArgumentError("input length mismatch");
  }
  if (u1.size() < threshold_) {
    return FailedPreconditionError("too few round-1 survivors");
  }
  // Pairwise masks: +PRG(s_uv) for u < v, -PRG(s_uv) for u > v. The whole
  // peer set is validated here, so errors stay deterministic under any
  // thread count.
  MaskJob job;
  job.peers.reserve(u1.size());
  for (ParticipantIndex v : u1) {
    if (v == index_) continue;
    const auto it = directory_->find(v);
    if (it == directory_->end()) {
      return InvalidArgumentError("round-1 survivor not in key directory");
    }
    job.peers.push_back(
        MaskJob::Peer{it->second.mask_public_key, index_ < v ? +1 : -1});
  }
  job.input = std::move(input);
  return job;
}

MaskedInput SecAggClient::RunMaskInput(MaskJob job) const {
  const profiler::ScopedPhase profile_scope(profiler::Phase::kSecAgg);

  MaskedInput out;
  out.index = index_;
  out.masked = std::move(job.input);

  // Self mask: + PRG(b_u), streamed straight into the masked vector.
  crypto::PrgAccumulate(self_seed_, 0, +1,
                        std::span<std::uint32_t>(out.masked));

  // The key agreements + fused expansions fan out over the pool.
  const std::vector<MaskJob::Peer>& peers = job.peers;
  const auto expand_into = [this](const MaskJob::Peer& p,
                                  std::span<std::uint32_t> acc) {
    const crypto::Key256 seed =
        crypto::Agree(mask_keys_, p.mask_public_key, kPairwiseLabel);
    crypto::PrgAccumulate(seed, 0, p.sign, acc);
  };

  const std::size_t shards =
      pool_ == nullptr || pool_->size() == 0
          ? 1
          : std::min(peers.size(), pool_->size() + 1);
  if (shards <= 1) {
    for (const MaskJob::Peer& p : peers) {
      expand_into(p, std::span<std::uint32_t>(out.masked));
    }
  } else {
    // Shard s owns the fixed contiguous peer range [s*len/shards,
    // (s+1)*len/shards); shards merge below in index order. u32 addition
    // commutes mod 2^32, so the result is bit-identical to the serial walk
    // regardless of which worker runs which shard.
    std::vector<std::vector<std::uint32_t>> shard_acc(shards);
    pool_->ParallelFor(shards, [&](std::size_t s) {
      const profiler::ScopedPhase worker_scope(profiler::Phase::kSecAgg);
      auto& acc = shard_acc[s];
      acc.assign(vector_length_, 0);
      const std::size_t begin = s * peers.size() / shards;
      const std::size_t end = (s + 1) * peers.size() / shards;
      for (std::size_t p = begin; p < end; ++p) {
        expand_into(peers[p], std::span<std::uint32_t>(acc));
      }
    });
    for (const auto& acc : shard_acc) crypto::AddWords(out.masked, acc);
  }
  // Reduce to the wire ring: mod-2^r reduction commutes with the u32 mask
  // arithmetic above, so the server's sum (reduced once at finalize) is
  // unchanged while each word ships as only ceil(r/8) bytes.
  if (ring_mask_ != 0xFFFFFFFFu) crypto::AddWords(out.masked, {}, ring_mask_);
  return out;
}

Result<UnmaskingResponse> SecAggClient::Unmask(
    const UnmaskingRequest& request) {
  FL_ASSIGN_OR_RETURN(UnmaskJob job, PrepareUnmask(request));
  return OpenShares(std::move(job));
}

Result<SecAggClient::UnmaskJob> SecAggClient::PrepareUnmask(
    const UnmaskingRequest& request) const {
  const auto contains = [](const std::vector<ParticipantIndex>& set,
                           ParticipantIndex u) {
    return std::find(set.begin(), set.end(), u) != set.end();
  };
  // Security invariant: never reveal both the mask key share and the self
  // seed share of the same participant.
  for (ParticipantIndex d : request.dropped) {
    if (contains(request.survivors, d)) {
      return PermissionDeniedError(
          "request asks for both secrets of participant " +
          std::to_string(d));
    }
  }

  UnmaskJob job;
  job.response.index = index_;
  for (const StoredShare& stored : incoming_) {
    const bool dropped = contains(request.dropped, stored.from);
    if (!dropped && !contains(request.survivors, stored.from)) continue;
    FL_CHECK(directory_.has_value());
    if (directory_->count(stored.from) == 0) continue;
    // A member with no kept key is this client itself: no share of ours
    // ever comes back to us.
    const auto key = transport_keys_.find(stored.from);
    if (key == transport_keys_.end()) {
      return DataLossError("share from participant " +
                           std::to_string(stored.from) +
                           " has no transport key");
    }
    job.sealed.push_back(UnmaskJob::Sealed{stored.from, dropped, key->second,
                                           stored.ciphertext});
    (dropped ? job.response.mask_key_shares
             : job.response.self_seed_shares)[stored.from];
  }

  // Contribute this client's own shares of its own secrets.
  if (contains(request.survivors, index_) && !own_seed_shares_.empty()) {
    job.response.self_seed_shares[index_] = own_seed_shares_;
  }
  return job;
}

Result<UnmaskingResponse> SecAggClient::OpenShares(UnmaskJob job) const {
  for (const UnmaskJob::Sealed& s : job.sealed) {
    FL_ASSIGN_OR_RETURN(Bytes plain, crypto::AeadDecrypt(s.key, s.ciphertext));
    FL_ASSIGN_OR_RETURN(auto bundle, DecodeShareBundle(plain));
    if (bundle.from != s.from || bundle.to != index_) {
      return DataLossError("share bundle addressing mismatch");
    }
    if (s.dropped) {
      job.response.mask_key_shares[s.from] = {bundle.mask_key_share};
    } else {
      job.response.self_seed_shares[s.from] =
          std::move(bundle.seed_limb_shares);
    }
  }
  return std::move(job.response);
}

}  // namespace fl::secagg
