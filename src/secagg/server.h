// Secure Aggregation server side (paper Sec. 6).
//
// The server never sees an individual update in the clear: it accumulates
// masked vectors online and, after the Finalization round, removes
// (a) the self-masks of every committed client (seeds reconstructed from
//     Shamir shares), and
// (b) the pairwise masks referencing clients who dropped out between
//     ShareKeys and Commit (their mask secret keys reconstructed, then one
//     PRG expansion per surviving pair — the quadratic server cost the
//     paper calls out: "Several costs for Secure Aggregation grow
//     quadratically with the number of users").
//
// One instance of this class runs per Aggregator actor, over groups of size
// >= k, exactly as Sec. 6 describes.
#pragma once

#include <optional>
#include <set>

#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/crypto/dh.h"
#include "src/secagg/types.h"

namespace fl::secagg {

// Instrumentation counters for the scaling bench.
struct ServerCostStats {
  std::uint64_t prg_words_expanded = 0;
  std::uint64_t shamir_reconstructions = 0;
  std::uint64_t modexp_operations = 0;
};

class SecAggServer {
 public:
  // `ring_bits` must match the clients' fixed-point ring: masked inputs
  // arrive reduced mod 2^ring_bits, are accumulated in u32 (carries into
  // the high bits are harmless), and Finalize() reduces the unmasked sum
  // back to the ring once at the end.
  SecAggServer(std::size_t threshold, std::size_t vector_length,
               std::uint8_t ring_bits = 32);

  // Optional compute pool for Finalize's mask recovery: the O(|U2|)
  // self-mask removals and the quadratic |dropped| x |survivors| key
  // agreements + PRG expansions fan out over per-shard accumulators merged
  // in fixed participant order. Non-owning; null (the default) keeps every
  // path serial. All mask arithmetic is u32 addition mod 2^32, so any
  // (seed, thread-count) pair recovers a bit-identical sum and threads=1
  // matches the serial path exactly.
  void SetThreadPool(common::ThreadPool* pool) { pool_ = pool; }

  // --- Round 0: Prepare / AdvertiseKeys ---
  Status CollectAdvertisement(const KeyAdvertisement& adv);
  // Closes round 0; fails unless >= threshold participants advertised.
  Result<KeyDirectory> FinishAdvertising();

  // --- Round 1: Prepare / ShareKeys ---
  Status CollectShares(const ShareKeysMessage& msg);
  // Encrypted shares addressed to `to` (for relaying). The reference stays
  // valid until the next CollectShares call; unknown recipients get a
  // shared empty vector.
  const std::vector<EncryptedShare>& SharesFor(ParticipantIndex to) const;
  // Closes round 1 and returns U1 (participants who shared keys).
  Result<std::vector<ParticipantIndex>> FinishSharing();

  // --- Round 2: Commit / MaskedInputCollection ---
  Status CollectMaskedInput(const MaskedInput& input);
  // Closes round 2; returns the unmasking request for survivors. Fails when
  // fewer than threshold inputs committed (the aggregate is unrecoverable:
  // "or else the entire aggregation will fail").
  Result<UnmaskingRequest> FinishCommit();

  // --- Round 3: Finalization / Unmasking ---
  Status CollectUnmaskingResponse(const UnmaskingResponse& resp);
  // Reconstructs secrets, strips masks, returns sum over U2 (mod 2^32).
  Result<std::vector<std::uint32_t>> Finalize();

  const std::set<ParticipantIndex>& committed() const { return u2_; }
  const ServerCostStats& cost_stats() const { return stats_; }

 private:
  enum class Phase { kAdvertising, kSharing, kCommit, kUnmasking, kDone };

  std::size_t threshold_;
  std::size_t vector_length_;
  std::uint32_t ring_mask_ = 0xFFFFFFFFu;
  common::ThreadPool* pool_ = nullptr;
  Phase phase_ = Phase::kAdvertising;

  KeyDirectory directory_;
  std::map<ParticipantIndex, std::vector<EncryptedShare>> routed_;  // by `to`
  std::set<ParticipantIndex> u1_;  // completed ShareKeys
  std::set<ParticipantIndex> u2_;  // committed masked input
  std::vector<std::uint32_t> masked_sum_;
  // Collected shares for reconstruction, keyed by the participant whose
  // secret they open.
  std::map<ParticipantIndex, std::vector<crypto::Share>> key_shares_;
  std::map<ParticipantIndex, std::vector<std::vector<crypto::Share>>>
      seed_shares_;  // [participant][limb] -> shares
  std::set<ParticipantIndex> responded_;  // survivors that answered round 3
  ServerCostStats stats_;
};

}  // namespace fl::secagg
