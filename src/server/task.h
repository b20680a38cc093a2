// FL task descriptors and the shared server context handed to actors.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/analytics/lifecycle.h"
#include "src/common/id.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/plan/versioning.h"
#include "src/protocol/pace_steering.h"
#include "src/protocol/round_config.h"
#include "src/server/lock_service.h"
#include "src/server/model_store.h"

namespace fl::server {

// "An FL task is a specific computation for an FL population, such as
// training to be performed with given hyperparameters, or evaluation of
// trained models on local device data" (Sec. 2.1).
struct FLTaskDescriptor {
  TaskId id;
  std::string name;
  plan::VersionedPlanSet plans;
  protocol::RoundConfig round_config;
  // Minimum time between consecutive rounds of this task.
  Duration round_cadence = Seconds(10);
};

// Pre-serialized plan bytes per supported runtime version, shared across the
// round's actors and assignments.
using PlanBytesByVersion =
    std::map<std::uint32_t, std::shared_ptr<const Bytes>>;

PlanBytesByVersion SerializePlanSet(const plan::VersionedPlanSet& plans);

// Shared, actor-external services. Owned by the embedding application (the
// fleet simulator / tests); must outlive the actor system.
struct ServerContext {
  LockService* locks = nullptr;
  ModelStore* model_store = nullptr;
  // Every actor reports its lifecycle facts through analytics::Emit() into
  // this sink (null: ring + journal only).
  analytics::LifecycleSink* stats = nullptr;
  const protocol::PaceSteeringPolicy* pace = nullptr;
  Rng* rng = nullptr;  // server-side randomness (single-threaded sim use)
  std::size_t estimated_population = 0;  // updated by the embedder
  // Fork-join pool for SecAgg mask expansion (null: serial). Aggregators
  // hand it to their SecAggServer.
  common::ThreadPool* compute_pool = nullptr;
};

}  // namespace fl::server
