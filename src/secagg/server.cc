#include "src/secagg/server.h"

#include <algorithm>
#include <string_view>

#include "src/crypto/chacha20.h"
#include "src/profiler/profiler.h"

namespace fl::secagg {
namespace {
constexpr std::string_view kPairwiseLabel = "secagg-pairwise-mask";
constexpr std::size_t kSeedLimbs = 5;
}  // namespace

SecAggServer::SecAggServer(std::size_t threshold, std::size_t vector_length,
                           std::uint8_t ring_bits)
    : threshold_(threshold),
      vector_length_(vector_length),
      ring_mask_(ring_bits == 32 ? 0xFFFFFFFFu : ((1u << ring_bits) - 1u)) {
  FL_CHECK(threshold >= 1);
  FL_CHECK(ring_bits >= 8 && ring_bits <= 32);
  masked_sum_.assign(vector_length_, 0);
}

Status SecAggServer::CollectAdvertisement(const KeyAdvertisement& adv) {
  if (phase_ != Phase::kAdvertising) {
    return FailedPreconditionError("advertising phase is over");
  }
  if (adv.index == 0) return InvalidArgumentError("participant index 0");
  if (!directory_.emplace(adv.index, adv).second) {
    return AlreadyExistsError("participant " + std::to_string(adv.index) +
                              " already advertised");
  }
  return Status::Ok();
}

Result<KeyDirectory> SecAggServer::FinishAdvertising() {
  if (phase_ != Phase::kAdvertising) {
    return FailedPreconditionError("advertising phase is over");
  }
  if (directory_.size() < threshold_) {
    return AbortedError("only " + std::to_string(directory_.size()) +
                        " participants advertised; threshold " +
                        std::to_string(threshold_));
  }
  phase_ = Phase::kSharing;
  return directory_;
}

Status SecAggServer::CollectShares(const ShareKeysMessage& msg) {
  if (phase_ != Phase::kSharing) {
    return FailedPreconditionError("not in sharing phase");
  }
  if (directory_.count(msg.index) == 0) {
    return NotFoundError("unknown participant in ShareKeys");
  }
  if (u1_.count(msg.index) > 0) {
    return AlreadyExistsError("duplicate ShareKeys message");
  }
  // Validate the whole message before routing any of it, so a rejected
  // message leaves nothing behind.
  for (const EncryptedShare& s : msg.shares) {
    if (s.from != msg.index) {
      return InvalidArgumentError("share sender mismatch");
    }
    if (s.to == msg.index || directory_.count(s.to) == 0) {
      return InvalidArgumentError("share addressed outside the cohort");
    }
  }
  for (const EncryptedShare& s : msg.shares) routed_[s.to].push_back(s);
  u1_.insert(msg.index);
  return Status::Ok();
}

const std::vector<EncryptedShare>& SecAggServer::SharesFor(
    ParticipantIndex to) const {
  static const std::vector<EncryptedShare> kNoShares;
  const auto it = routed_.find(to);
  return it == routed_.end() ? kNoShares : it->second;
}

Result<std::vector<ParticipantIndex>> SecAggServer::FinishSharing() {
  if (phase_ != Phase::kSharing) {
    return FailedPreconditionError("not in sharing phase");
  }
  if (u1_.size() < threshold_) {
    return AbortedError("too few participants completed ShareKeys");
  }
  phase_ = Phase::kCommit;
  return std::vector<ParticipantIndex>(u1_.begin(), u1_.end());
}

Status SecAggServer::CollectMaskedInput(const MaskedInput& input) {
  if (phase_ != Phase::kCommit) {
    return FailedPreconditionError("not in commit phase");
  }
  if (u1_.count(input.index) == 0) {
    return NotFoundError("commit from participant outside U1");
  }
  if (u2_.count(input.index) > 0) {
    return AlreadyExistsError("duplicate masked input");
  }
  if (input.masked.size() != vector_length_) {
    return InvalidArgumentError("masked vector length mismatch");
  }
  // Online accumulation — the individual masked vector is folded in and
  // discarded (no per-device log exists, Sec. 4.2) — with the vector add
  // kernel: GCC at -O2 compiles the plain loop to one scalar 32-bit add per
  // word, since -O2's very-cheap vectorizer cost model skips loops whose
  // trip count needs a scalar epilogue.
  crypto::AddWords(masked_sum_, input.masked);
  u2_.insert(input.index);
  return Status::Ok();
}

Result<UnmaskingRequest> SecAggServer::FinishCommit() {
  if (phase_ != Phase::kCommit) {
    return FailedPreconditionError("not in commit phase");
  }
  if (u2_.size() < threshold_) {
    return AbortedError("fewer than threshold masked inputs; aggregation fails");
  }
  phase_ = Phase::kUnmasking;
  UnmaskingRequest req;
  for (ParticipantIndex u : u1_) {
    if (u2_.count(u) == 0) req.dropped.push_back(u);
  }
  req.survivors.assign(u2_.begin(), u2_.end());
  return req;
}

Status SecAggServer::CollectUnmaskingResponse(const UnmaskingResponse& resp) {
  if (phase_ != Phase::kUnmasking) {
    return FailedPreconditionError("not in unmasking phase");
  }
  if (u2_.count(resp.index) == 0) {
    return PermissionDeniedError("unmasking response from non-survivor");
  }
  if (responded_.count(resp.index) > 0) {
    return AlreadyExistsError("duplicate unmasking response");
  }
  // Validate the whole response before storing any share: a rejected
  // response must not leave shares behind for Finalize to reconstruct from.
  for (const auto& [u, shares] : resp.mask_key_shares) {
    if (u2_.count(u) > 0) {
      return PermissionDeniedError(
          "refusing mask-key share of a committed participant");
    }
  }
  for (const auto& [u, limbs] : resp.self_seed_shares) {
    if (u2_.count(u) > 0 && limbs.size() != kSeedLimbs) {
      return InvalidArgumentError("unexpected seed limb count");
    }
  }
  responded_.insert(resp.index);
  for (const auto& [u, shares] : resp.mask_key_shares) {
    auto& bucket = key_shares_[u];
    bucket.insert(bucket.end(), shares.begin(), shares.end());
  }
  for (const auto& [u, limbs] : resp.self_seed_shares) {
    if (u2_.count(u) == 0) continue;  // self-seeds only for survivors
    auto& buckets = seed_shares_[u];
    buckets.resize(kSeedLimbs);
    for (std::size_t l = 0; l < kSeedLimbs; ++l) {
      buckets[l].push_back(limbs[l]);
    }
  }
  return Status::Ok();
}

Result<std::vector<std::uint32_t>> SecAggServer::Finalize() {
  if (phase_ != Phase::kUnmasking) {
    return FailedPreconditionError("not in unmasking phase");
  }
  if (responded_.size() < threshold_) {
    return AbortedError("not enough unmasking responses: " +
                        std::to_string(responded_.size()) + " < " +
                        std::to_string(threshold_));
  }

  const profiler::ScopedPhase profile_scope(profiler::Phase::kSecAgg);
  std::vector<std::uint32_t> sum = masked_sum_;

  // Phase 1 (serial): Shamir reconstructions. These are cheap relative to
  // mask expansion, touch server-wide maps, and their failure modes must
  // surface as errors before any mask arithmetic happens. Each successful
  // reconstruction becomes one expansion task for phase 2.
  //
  // A task either subtracts a survivor's self-mask (seed already in hand)
  // or removes one (dropped u, survivor v) pairwise mask, which needs a
  // key agreement first; `subtract` encodes the sign v applied when it
  // added sign(v, u) * PRG(s_uv) to its input.
  struct ExpansionTask {
    crypto::Key256 seed{};            // self-mask seed (agree == false)
    bool agree = false;
    std::uint64_t secret = 0;         // recovered mask secret key of u
    std::uint64_t peer_public = 0;    // survivor v's mask public key
    bool subtract = false;
  };
  std::vector<ExpansionTask> tasks;
  tasks.reserve(u2_.size());

  // (a) Survivors' self-masks.
  for (ParticipantIndex u : u2_) {
    const auto it = seed_shares_.find(u);
    if (it == seed_shares_.end()) {
      return AbortedError("no self-seed shares for survivor " +
                          std::to_string(u));
    }
    FL_ASSIGN_OR_RETURN(crypto::Key256 seed,
                        crypto::ShamirReconstructKey(it->second, threshold_));
    stats_.shamir_reconstructions += kSeedLimbs;
    tasks.push_back(ExpansionTask{.seed = seed, .subtract = true});
  }

  // (b) Pairwise masks referencing dropped participants. This is the
  // quadratic part: |dropped| x |survivors| PRG expansions + key agreements.
  for (ParticipantIndex u : u1_) {
    if (u2_.count(u) > 0) continue;  // u committed; its pair masks cancel
    const auto it = key_shares_.find(u);
    if (it == key_shares_.end() || it->second.size() < threshold_) {
      return AbortedError("cannot reconstruct mask key of dropped " +
                          std::to_string(u));
    }
    FL_ASSIGN_OR_RETURN(std::uint64_t secret,
                        crypto::ShamirReconstruct(it->second, threshold_));
    ++stats_.shamir_reconstructions;
    for (ParticipantIndex v : u2_) {
      const auto dv = directory_.find(v);
      FL_CHECK(dv != directory_.end());
      // v (a survivor) added sign(v, u) * PRG(s_uv) to its input.
      tasks.push_back(ExpansionTask{.agree = true,
                                    .secret = secret,
                                    .peer_public = dv->second.mask_public_key,
                                    .subtract = v < u});
      ++stats_.modexp_operations;
    }
  }

  // Phase 2: expand every mask with the fused PRG-accumulate kernel. The
  // keystream folds straight into the accumulator — no per-task mask vector
  // is materialized.
  const auto apply = [this](const ExpansionTask& t,
                            std::span<std::uint32_t> acc) {
    crypto::Key256 seed = t.seed;
    if (t.agree) {
      seed = crypto::Agree(crypto::DhKeyPair{t.secret, 0}, t.peer_public,
                           kPairwiseLabel);
    }
    crypto::PrgAccumulate(seed, 0, t.subtract ? -1 : +1, acc);
  };
  stats_.prg_words_expanded += tasks.size() * vector_length_;

  const std::size_t shards =
      pool_ == nullptr || pool_->size() == 0
          ? 1
          : std::min(tasks.size(), pool_->size() + 1);
  if (shards <= 1) {
    for (const ExpansionTask& t : tasks) {
      apply(t, std::span<std::uint32_t>(sum));
    }
  } else {
    // Each shard owns a contiguous task range and a private accumulator;
    // shard accumulators merge into `sum` in shard-index order. u32
    // addition commutes mod 2^32, so the result is bit-identical to the
    // serial path for every thread count.
    std::vector<std::vector<std::uint32_t>> shard_acc(shards);
    pool_->ParallelFor(shards, [&](std::size_t s) {
      const profiler::ScopedPhase worker_scope(profiler::Phase::kSecAgg);
      const std::size_t begin = s * tasks.size() / shards;
      const std::size_t end = (s + 1) * tasks.size() / shards;
      shard_acc[s].assign(vector_length_, 0);
      for (std::size_t i = begin; i < end; ++i) {
        apply(tasks[i], std::span<std::uint32_t>(shard_acc[s]));
      }
    });
    for (const auto& part : shard_acc) crypto::AddWords(sum, part);
  }

  // Reduce the unmasked sum to the wire ring. All mask arithmetic above ran
  // in u32; because 2^r divides 2^32, one reduction at the end equals
  // reducing every operand along the way.
  if (ring_mask_ != 0xFFFFFFFFu) crypto::AddWords(sum, {}, ring_mask_);

  phase_ = Phase::kDone;
  return sum;
}

}  // namespace fl::secagg
