// Secure Aggregation client (device side), Bonawitz et al. CCS 2017.
//
// The client walks the four protocol rounds in order; any round may be its
// last (devices drop out), and the protocol is designed so that drop-outs
// after Commit are recoverable by the server via Shamir shares.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/crypto/aead.h"
#include "src/crypto/dh.h"
#include "src/secagg/types.h"

namespace fl::secagg {

class SecAggClient {
 public:
  // `randomness` seeds all of the client's secrets; distinct per client and
  // per FL round. `threshold` is the Shamir t. `ring_bits` is the width of
  // the fixed-point ring the input words live in (8..32): masked words are
  // reduced mod 2^ring_bits before upload, which shrinks the wire to
  // ceil(ring_bits/8) bytes per word without touching the sum algebra
  // (2^r divides 2^32, so reduction commutes with u32 addition).
  SecAggClient(ParticipantIndex index, std::size_t threshold,
               std::size_t vector_length, const crypto::Key256& randomness,
               std::uint8_t ring_bits = 32);

  ParticipantIndex index() const { return index_; }

  // Optional compute pool for MaskInput's N-1 pairwise key agreements and
  // mask expansions. Non-owning; null (the default) keeps every path
  // serial. Peers fan out over per-shard accumulators merged in fixed
  // participant order, and all mask arithmetic is u32 addition mod 2^32,
  // so any (seed, thread-count) pair yields a bit-identical masked vector
  // and threads=1 matches the serial path exactly. RunMaskInput may itself
  // run on one of the pool's workers: ParallelFor's caller claims
  // iterations too, so it finishes even when every other worker is busy.
  void SetThreadPool(common::ThreadPool* pool) { pool_ = pool; }

  // Round 0 (Prepare): advertise DH public keys.
  KeyAdvertisement AdvertiseKeys() const;

  // Round 1 (Prepare): given the cohort's key directory, produce encrypted
  // Shamir shares of this client's mask secret key and self-mask seed, one
  // bundle per other participant. Fails if the cohort is smaller than the
  // threshold. PrepareShareKeys then SealShares.
  Result<ShareKeysMessage> ShareKeys(const KeyDirectory& directory);

  // Delivery of another participant's encrypted share (relayed by the
  // server). Stored; decrypted only if/when Unmask() needs it.
  void ReceiveShare(const EncryptedShare& share);

  // Round 2 (Commit): mask the input vector. `u1` is the set of
  // participants who completed round 1 (whose pairwise masks are in play).
  // PrepareMaskInput then RunMaskInput.
  Result<MaskedInput> MaskInput(std::span<const std::uint32_t> input,
                                const std::vector<ParticipantIndex>& u1);

  // Round 3 (Finalization): reveal mask-key shares for dropped participants
  // and self-mask-seed shares for survivors. Refuses requests that ask for
  // both secrets of the same participant (that would unmask an individual).
  // PrepareUnmask then OpenShares.
  Result<UnmaskingResponse> Unmask(const UnmaskingRequest& request);

  // Each round above, split in two for callers that run the crypto off
  // their thread (a fleet device's pool jobs). The Prepare half does the
  // checks and every draw from this client's RNG, and fixes the reply's
  // wire size; the second half does the DH agreements, the AEAD and the
  // mask expansion on whatever thread runs it. Between the halves the
  // caller must not touch the client. The two halves give the same bytes
  // as the one-call form.
  struct ShareKeysJob {
    struct Bundle {
      ParticipantIndex to = 0;
      std::uint64_t enc_public_key = 0;
      Bytes plaintext;
    };
    std::vector<Bundle> bundles;  // directory order, this client skipped
    // Sum of the sealed ciphertexts' sizes (AeadCiphertextBytes).
    std::size_t CiphertextBytes() const;
  };
  Result<ShareKeysJob> PrepareShareKeys(const KeyDirectory& directory);
  // Keeps each peer's transport key for Unmask.
  ShareKeysMessage SealShares(const ShareKeysJob& job);

  struct MaskJob {
    struct Peer {
      std::uint64_t mask_public_key = 0;
      int sign = 0;  // +1 when this client's index is the smaller
    };
    std::vector<std::uint32_t> input;  // becomes the masked vector
    std::vector<Peer> peers;
  };
  Result<MaskJob> PrepareMaskInput(std::vector<std::uint32_t> input,
                                   const std::vector<ParticipantIndex>& u1);
  MaskedInput RunMaskInput(MaskJob job) const;

  struct UnmaskJob {
    struct Sealed {
      ParticipantIndex from = 0;
      bool dropped = false;  // open its mask-key share, else its seed share
      crypto::Key256 key{};  // the transport key SealShares kept
      Bytes ciphertext;
    };
    std::vector<Sealed> sealed;  // arrival order
    // Every participant the response answers for, with this client's own
    // seed shares filled in: its size is final before OpenShares runs.
    UnmaskingResponse response;
  };
  Result<UnmaskJob> PrepareUnmask(const UnmaskingRequest& request) const;
  Result<UnmaskingResponse> OpenShares(UnmaskJob job) const;

 private:
  struct StoredShare {
    ParticipantIndex from = 0;
    Bytes ciphertext;
  };

  ParticipantIndex index_;
  std::size_t threshold_;
  std::size_t vector_length_;
  std::uint32_t ring_mask_ = 0xFFFFFFFFu;
  common::ThreadPool* pool_ = nullptr;
  Rng rng_;
  crypto::DhKeyPair enc_keys_;
  crypto::DhKeyPair mask_keys_;
  crypto::Key256 self_seed_{};  // b_u
  std::optional<KeyDirectory> directory_;
  // Per peer, the share-transport key SealShares derived.
  std::map<ParticipantIndex, crypto::Key256> transport_keys_;
  std::vector<StoredShare> incoming_;
  // This client's own shares of its own secrets (kept so the client can
  // contribute them during unmasking).
  crypto::Share own_key_share_;
  std::vector<crypto::Share> own_seed_shares_;
};

}  // namespace fl::secagg
