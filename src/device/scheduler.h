// Multi-tenant on-device scheduling (Sec. 3, Multi-Tenancy; Sec. 11, Device
// Scheduling): "our multi-tenant on-device scheduler uses a simple worker
// queue for determining which training session to run next (we avoid running
// training sessions on-device in parallel because of their high resource
// consumption)."
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/status.h"

namespace fl::device {

// One app's registration of an FL population on this device ("An application
// configures the FL runtime by providing an FL population name and
// registering its example stores").
struct PopulationRegistration {
  std::string population;
  std::string example_store;
  Duration min_checkin_interval = Hours(1);  // JobScheduler cadence floor
};

class MultiTenantScheduler {
 public:
  Status RegisterPopulation(PopulationRegistration reg);
  Status UnregisterPopulation(const std::string& population);

  // The worker queue: next population due to run at `now`, respecting the
  // per-population cadence and any server-suggested pace-steering windows.
  // Returns nullopt when nothing is runnable.
  std::optional<std::string> NextSession(SimTime now) const;

  // Marks a session started; the population moves to the back of the queue
  // (strict FIFO worker queue — the paper notes this is "blind" to app usage
  // and calls smarter policies future work).
  void OnSessionStarted(const std::string& population, SimTime now);

  // Records the server-suggested reconnect window (pace steering).
  void SetEarliestCheckin(const std::string& population, SimTime earliest);

  // Earliest future time at which any registered population becomes
  // runnable; nullopt when nothing is registered.
  std::optional<SimTime> NextRunnableAt(SimTime now) const;

  bool running() const { return running_; }
  void OnSessionEnded() { running_ = false; }

  std::size_t registered_count() const { return entries_.size(); }
  // The pointer is valid until the next call that registers, unregisters
  // or starts a session.
  Result<const PopulationRegistration*> Find(
      const std::string& population) const;

 private:
  struct Entry {
    PopulationRegistration reg;
    SimTime earliest_next;  // max(last run + cadence, pace-steering window)
  };

  // Index of `population` in entries_, or entries_.size() if absent.
  std::size_t IndexOf(const std::string& population) const;

  // The worker queue: registered populations in FIFO order. A device
  // registers a handful at most, so a linear scan beats any index.
  std::vector<Entry> entries_;
  bool running_ = false;  // no parallel sessions
};

}  // namespace fl::device
