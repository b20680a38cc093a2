#include "src/secagg/client.h"

#include <algorithm>
#include <cstring>

#include "src/crypto/chacha20.h"
#include "src/profiler/profiler.h"

namespace fl::secagg {
namespace {

constexpr const char* kPairwiseLabel = "secagg-pairwise-mask";
constexpr const char* kTransportLabel = "secagg-share-transport";

crypto::Key256 SubSeed(const crypto::Key256& root, const char* label) {
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
  if (directory.size() < threshold_) {
    return FailedPreconditionError(
        "cohort of " + std::to_string(directory.size()) +
        " below threshold " + std::to_string(threshold_));
  }
  if (directory.count(index_) == 0) {
    return InvalidArgumentError("directory does not include this client");
  }
  directory_ = directory;
  const std::size_t n = directory.size();

  // Shares are evaluated at participant indices; build them over the max
  // index so share.x == participant index for every member.
  ParticipantIndex max_index = 0;
  for (const auto& [idx, adv] : directory) {
    max_index = std::max(max_index, idx);
  }
  FL_ASSIGN_OR_RETURN(
      std::vector<crypto::Share> key_shares,
      crypto::ShamirSplit(mask_keys_.secret, max_index, threshold_, rng_));
  FL_ASSIGN_OR_RETURN(
      std::vector<std::vector<crypto::Share>> seed_shares,
      crypto::ShamirSplitKey(self_seed_, max_index, threshold_, rng_));
  (void)n;

  // Retain this client's own evaluation points so it can contribute them in
  // the unmasking round.
  own_key_share_ = key_shares[index_ - 1];
  own_seed_shares_.clear();
  for (const auto& limb : seed_shares) {
    own_seed_shares_.push_back(limb[index_ - 1]);
  }

  ShareKeysMessage msg;
  msg.index = index_;
  for (const auto& [peer, adv] : directory) {
    if (peer == index_) continue;
    // Shares for `peer` are the ones evaluated at x == peer.
    const crypto::Share& ks = key_shares[peer - 1];
    std::vector<crypto::Share> limbs;
    limbs.reserve(seed_shares.size());
    for (const auto& limb : seed_shares) limbs.push_back(limb[peer - 1]);

    const Bytes plain = EncodeShareBundle(index_, peer, ks, limbs);
    const crypto::Key256 transport =
        crypto::Agree(enc_keys_, adv.enc_public_key, kTransportLabel);
    EncryptedShare es;
    es.from = index_;
    es.to = peer;
    es.ciphertext =
        crypto::AeadEncrypt(transport, PairNonce(index_, peer), plain);
    msg.shares.push_back(std::move(es));
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
  if (!directory_.has_value()) {
    return FailedPreconditionError("MaskInput before ShareKeys");
  }
  if (input.size() != vector_length_) {
    return InvalidArgumentError("input length mismatch");
  }
  if (u1.size() < threshold_) {
    return FailedPreconditionError("too few round-1 survivors");
  }

  const profiler::ScopedPhase profile_scope(profiler::Phase::kSecAgg);

  MaskedInput out;
  out.index = index_;
  out.masked.assign(input.begin(), input.end());

  // Self mask: + PRG(b_u), streamed straight into the masked vector.
  crypto::PrgAccumulate(self_seed_, 0, +1,
                        std::span<std::uint32_t>(out.masked));

  // Pairwise masks: +PRG(s_uv) for u < v, -PRG(s_uv) for u > v. Validate
  // the whole peer set up front (errors stay deterministic under any
  // thread count), then fan the key agreements + fused expansions out.
  struct Peer {
    std::uint64_t mask_public_key = 0;
    int sign = 0;
  };
  std::vector<Peer> peers;
  peers.reserve(u1.size());
  for (ParticipantIndex v : u1) {
    if (v == index_) continue;
    const auto it = directory_->find(v);
    if (it == directory_->end()) {
      return InvalidArgumentError("round-1 survivor not in key directory");
    }
    peers.push_back(Peer{it->second.mask_public_key, index_ < v ? +1 : -1});
  }

  const auto expand_into = [this](const Peer& p,
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
    for (const Peer& p : peers) {
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
  committed_ = true;
  return out;
}

Result<UnmaskingResponse> SecAggClient::Unmask(
    const UnmaskingRequest& request) {
  // Security invariant: never reveal both the mask key share and the self
  // seed share of the same participant.
  for (ParticipantIndex d : request.dropped) {
    if (std::find(request.survivors.begin(), request.survivors.end(), d) !=
        request.survivors.end()) {
      return PermissionDeniedError(
          "request asks for both secrets of participant " +
          std::to_string(d));
    }
  }

  UnmaskingResponse resp;
  resp.index = index_;
  for (const StoredShare& stored : incoming_) {
    const bool dropped =
        std::find(request.dropped.begin(), request.dropped.end(),
                  stored.from) != request.dropped.end();
    const bool survived =
        std::find(request.survivors.begin(), request.survivors.end(),
                  stored.from) != request.survivors.end();
    if (!dropped && !survived) continue;
    FL_CHECK(directory_.has_value());
    const auto it = directory_->find(stored.from);
    if (it == directory_->end()) continue;
    const crypto::Key256 transport =
        crypto::Agree(enc_keys_, it->second.enc_public_key, kTransportLabel);
    FL_ASSIGN_OR_RETURN(Bytes plain,
                        crypto::AeadDecrypt(transport, stored.ciphertext));
    FL_ASSIGN_OR_RETURN(auto bundle, DecodeShareBundle(plain));
    if (bundle.from != stored.from || bundle.to != index_) {
      return DataLossError("share bundle addressing mismatch");
    }
    if (dropped) {
      resp.mask_key_shares[stored.from] = {bundle.mask_key_share};
    } else {
      resp.self_seed_shares[stored.from] = bundle.seed_limb_shares;
    }
  }

  // Contribute this client's own shares of its own secrets.
  if (std::find(request.survivors.begin(), request.survivors.end(), index_) !=
          request.survivors.end() &&
      !own_seed_shares_.empty()) {
    resp.self_seed_shares[index_] = own_seed_shares_;
  }
  return resp;
}

}  // namespace fl::secagg
