// Discrete-event simulation core.
//
// Everything in this repository — device check-ins, protocol timeouts, actor
// message delivery, training durations — executes as events on this queue.
// Events at equal timestamps run in scheduling order, which (together with
// seeded Rng) makes entire multi-day fleet simulations bit-reproducible.
//
// The engine is a hierarchical timer wheel: kLevels levels of kSlots slots
// each, slot width growing 64x per level (1 ms at level 0, ~12.4 days at
// the top), one 64-bit occupancy bitmap per level, and a sorted overflow
// map for events beyond the ~2.2-year wheel horizon. Events are
// slab-allocated intrusive nodes whose callback is a small-buffer-optimized
// move-only InlineFunction — scheduling the common capture sizes costs no
// malloc, firing costs no copy, and Cancel() is O(1): generation-tagged
// handles unlink and free the node immediately instead of leaving a
// tombstone behind. Execution order is time-ascending, FIFO among equal
// timestamps; tests/sim/ pins that contract against a sorted-vector
// reference scheduler.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/common/inline_function.h"
#include "src/common/sim_time.h"
#include "src/common/status.h"

namespace fl::sim {

// Handle for cancelling a scheduled event.
struct EventHandle {
  std::uint64_t id = 0;
  bool valid() const { return id != 0; }
};

class EventQueue {
 public:
  using Callback = common::TaskFn;

  // Wheel geometry: kLevels levels of kSlots slots; level L slots are
  // 64^L ms wide, so level L spans 64^(L+1) ms around the cursor. Six
  // levels cover ~2.18 years; anything farther sits in the overflow map.
  static constexpr int kSlotBits = 6;
  static constexpr int kSlots = 1 << kSlotBits;            // 64
  static constexpr int kLevels = 6;
  static constexpr int kHorizonBits = kSlotBits * kLevels;  // 36

  EventQueue();
  ~EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  SimTime now() const { return now_; }

  // Schedules `fn` at absolute time `t` (>= now).
  EventHandle At(SimTime t, Callback fn);

  // Schedules `fn` after `d` from now.
  EventHandle After(Duration d, Callback fn) {
    return At(now_ + d, std::move(fn));
  }

  // Cancels a pending event. Returns false if it already ran or was
  // cancelled. O(1); releases the event's memory immediately.
  bool Cancel(EventHandle h);

  // Runs events until the queue is empty. Returns number of events executed.
  std::size_t Run();

  // Runs events with time <= deadline; clock ends at `deadline` even if the
  // queue drains earlier (so periodic samplers see a full window).
  std::size_t RunUntil(SimTime deadline);

  std::size_t RunFor(Duration d) { return RunUntil(now_ + d); }

  // Executes at most one event. Returns false if the queue is empty.
  bool Step();

  std::size_t pending() const { return live_count_; }
  bool empty() const { return live_count_ == 0; }

  // Lifetime counters + footprint, cheap enough to maintain unconditionally
  // (plain increments); exported as telemetry gauges by FLSystem's stats
  // sampler and recorded in bench JSON.
  struct Stats {
    std::uint64_t scheduled = 0;   // At/After calls accepted
    std::uint64_t fired = 0;       // callbacks executed
    std::uint64_t cancelled = 0;   // successful Cancel calls
    std::uint64_t cascaded = 0;    // node moves between wheel levels
    std::uint64_t heap_callbacks = 0;  // callbacks too big for the SBO buffer
    std::size_t allocated_nodes = 0;   // slab capacity (live + free-listed)
  };
  const Stats& stats() const { return stats_; }

  // Live events per wheel level; the last entry is the overflow map.
  std::array<std::size_t, kLevels + 1> LevelOccupancy() const {
    return level_occupancy_;
  }

 private:
  struct Node;
  struct NodeList {
    Node* head = nullptr;
    Node* tail = nullptr;
    bool empty() const { return head == nullptr; }
  };

  static constexpr std::uint16_t kOverflowLevel = kLevels;
  static constexpr std::size_t kNodesPerChunk = 1024;

  Node* AllocNode();
  void FreeNode(Node* n);
  Node* NodeAt(std::uint32_t index) const;

  // Places a live node into the wheel/overflow according to its time and
  // the current cursor; appends to the tail of the target list (FIFO).
  void Place(Node* n);
  void ListAppend(NodeList& list, Node* n);
  void ListUnlink(NodeList& list, Node* n);
  NodeList& SlotList(std::uint16_t level, std::uint16_t slot) {
    return slots_[level * kSlots + slot];
  }

  // Re-distributes every node of (level, slot) into lower levels relative
  // to the current cursor. The slot must cover times >= cursor_.
  void CascadeSlot(int level, int slot);
  // Moves the overflow bucket `it` into the wheel (cursor must be inside or
  // before the bucket's horizon window).
  void PullOverflowBucket(std::map<std::int64_t, NodeList>::iterator it);
  // Cascades the higher-level slots covering the cursor's current windows
  // (including a due overflow bucket) so level L only holds times beyond
  // every level-(L-1) entry. Never advances the cursor.
  void PullCurrent();

  // Returns the next event to fire, with its exact time <= `deadline`;
  // nullptr when the queue is empty or the next event is past the deadline.
  // May advance cursor_ (never past min(next event time, deadline)) and
  // cascade nodes, but fires nothing.
  Node* PeekDue(std::int64_t deadline);

  // Fires the next event if its time is <= `deadline`.
  bool PopAndRun(std::int64_t deadline);

  SimTime now_{};
  std::size_t live_count_ = 0;
  Stats stats_;
  std::array<std::size_t, kLevels + 1> level_occupancy_{};

  // cursor_ trails the earliest live event; equals now_.millis whenever
  // user code can observe the queue.
  std::int64_t cursor_ = 0;
  std::vector<NodeList> slots_;             // kLevels * kSlots lists
  std::array<std::uint64_t, kLevels> occupied_{};  // per-level slot bitmaps
  std::map<std::int64_t, NodeList> overflow_;      // key: time >> kHorizonBits
  std::vector<std::unique_ptr<Node[]>> chunks_;
  Node* free_list_ = nullptr;
};

}  // namespace fl::sim
