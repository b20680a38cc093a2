// Layer probes for the traced run. Some of a fleet step's work is hidden
// inside one event (attestation, client training, codec, SecAgg phases,
// aggregation); the traced run times that work by calling the same public
// functions at the workload's own shapes, then multiplies by the run's call
// counts. Each probe also checks its outputs.
#pragma once

#include <cstdint>
#include <vector>

#include "src/data/example.h"
#include "src/plan/plan.h"
#include "src/protocol/round_config.h"
#include "src/tensor/checkpoint.h"

namespace perfbench {

// Issue + Verify of one attestation token (device check-in + frontend gate).
struct AttestationProbe {
  double pair_ns = 0;
  bool ok = false;  // every genuine token verified, a forged one did not
};
AttestationProbe ProbeAttestation(std::uint64_t seed);

// RunClientUpdate over per-device example sets shaped like the workload's.
// The resulting flat weighted deltas feed the codec, SecAgg and merge probes.
struct ClientUpdateProbe {
  std::vector<double> ms;  // one per device
  std::vector<std::vector<float>> deltas;
  std::vector<float> weights;
  bool ok = false;  // every update finite
};
ClientUpdateProbe ProbeClientUpdate(
    const fl::plan::FLPlan& plan, const fl::Checkpoint& global,
    const std::vector<std::vector<fl::data::Example>>& device_data,
    std::uint64_t seed);

// EncodeUpdate / DecodeUpdate round trips; decode must stay within one
// quantisation step of every kept coordinate, and only coordinates no larger
// than the k-th largest magnitude may be dropped.
struct CodecProbe {
  double encode_us = 0;
  double decode_us = 0;
  double ratio = 0;  // raw float bytes / wire bytes
  bool ok = false;
};
CodecProbe ProbeCodec(const std::vector<std::vector<float>>& deltas,
                      const fl::protocol::WireCodecConfig& codec,
                      std::uint64_t seed);

// FedAvgAccumulator::Accumulate per update (the Aggregator's fold).
double ProbeAccumulateMs(const fl::Checkpoint& schema,
                         const std::vector<std::vector<float>>& deltas,
                         const std::vector<float>& weights);

// One SecAgg cohort end to end: `dropped` members leave after ShareKeys so
// Finalize runs the pairwise-mask recovery. The unmasked sum must equal the
// plain sum of the survivors' inputs.
struct SecAggProbe {
  double share_keys_ms = 0;  // per client: AdvertiseKeys + ShareKeys
  double mask_input_ms = 0;  // per client
  double unmask_ms = 0;      // per client
  double finalize_ms = 0;    // per cohort, server side
  std::uint64_t prg_words = 0;  // per cohort, server side
  std::uint64_t modexps = 0;    // per cohort, server side
  bool ok = false;
};
SecAggProbe ProbeSecAgg(std::size_t cohort, std::size_t dropped,
                        std::size_t vector_length, double threshold_fraction,
                        std::uint8_t ring_bits, std::uint64_t seed);

}  // namespace perfbench
