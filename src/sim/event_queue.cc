#include "src/sim/event_queue.h"

#include <limits>
#include <utility>

namespace fl::sim {
namespace {

// Handles pack (slab index, generation); generation 1.. so ids are nonzero.
constexpr std::uint64_t MakeHandleId(std::uint32_t index, std::uint32_t gen) {
  return (static_cast<std::uint64_t>(index) << 32) | gen;
}

int HighestBit(std::uint64_t v) { return 63 - __builtin_clzll(v); }
int LowestBit(std::uint64_t v) { return __builtin_ctzll(v); }

}  // namespace

// Intrusive event node: two cache lines including the 48-byte inline
// callback buffer. prev/next link the node into exactly one slot or
// overflow-bucket list while live, or the free list (next only) after.
struct EventQueue::Node {
  std::int64_t time = 0;
  Node* prev = nullptr;
  Node* next = nullptr;
  std::uint32_t generation = 1;
  std::uint32_t index = 0;
  std::uint16_t level = 0;
  std::uint16_t slot = 0;
  Callback fn;
};

EventQueue::EventQueue()
    : slots_(static_cast<std::size_t>(kLevels) * kSlots) {}

EventQueue::~EventQueue() = default;

// ---------------------------------------------------------------- slab

EventQueue::Node* EventQueue::AllocNode() {
  if (free_list_ == nullptr) {
    auto chunk = std::make_unique<Node[]>(kNodesPerChunk);
    const std::uint32_t base =
        static_cast<std::uint32_t>(chunks_.size() * kNodesPerChunk);
    // Push in reverse so nodes come off the free list in index order.
    for (std::size_t i = kNodesPerChunk; i-- > 0;) {
      Node& n = chunk[i];
      n.index = base + static_cast<std::uint32_t>(i);
      n.next = free_list_;
      free_list_ = &n;
    }
    chunks_.push_back(std::move(chunk));
    stats_.allocated_nodes += kNodesPerChunk;
  }
  Node* n = free_list_;
  free_list_ = n->next;
  return n;
}

void EventQueue::FreeNode(Node* n) {
  n->fn.Reset();
  if (++n->generation == 0) n->generation = 1;  // keep handle ids nonzero
  n->next = free_list_;
  free_list_ = n;
}

EventQueue::Node* EventQueue::NodeAt(std::uint32_t index) const {
  const std::size_t chunk = index / kNodesPerChunk;
  if (chunk >= chunks_.size()) return nullptr;
  return &chunks_[chunk][index % kNodesPerChunk];
}

// ------------------------------------------------------------- lists

void EventQueue::ListAppend(NodeList& list, Node* n) {
  n->prev = list.tail;
  n->next = nullptr;
  if (list.tail != nullptr) {
    list.tail->next = n;
  } else {
    list.head = n;
  }
  list.tail = n;
}

void EventQueue::ListUnlink(NodeList& list, Node* n) {
  if (n->prev != nullptr) {
    n->prev->next = n->next;
  } else {
    list.head = n->next;
  }
  if (n->next != nullptr) {
    n->next->prev = n->prev;
  } else {
    list.tail = n->prev;
  }
  n->prev = nullptr;
  n->next = nullptr;
}

// --------------------------------------------------------- placement

// Level choice: the highest differing bit between the event time and the
// cursor decides how far out the event is. diff < 64 → level 0 (exact
// 1 ms slots); each 6 further bits → one level up. Because all times in
// one slot share bits >= the slot's width with the cursor, every event in
// a slot stays in that slot no matter where the cursor sits inside the
// same aligned window — which is what keeps FIFO order stable across
// cascades.
void EventQueue::Place(Node* n) {
  const std::uint64_t diff =
      static_cast<std::uint64_t>(n->time ^ cursor_);
  const int level = diff == 0 ? 0 : HighestBit(diff) / kSlotBits;
  if (level >= kLevels) {
    // Beyond the wheel horizon: bucket by epoch (time >> 36), kept sorted.
    n->level = kOverflowLevel;
    n->slot = 0;
    ListAppend(overflow_[n->time >> kHorizonBits], n);
    ++level_occupancy_[kOverflowLevel];
    return;
  }
  if (!overflow_.empty() &&
      overflow_.begin()->first == (n->time >> kHorizonBits)) {
    // The cursor's epoch still has an undrained overflow bucket (possible
    // after a RunUntil deadline jump). Entering the wheel now would let
    // this event overtake earlier-scheduled equal-time events waiting in the
    // bucket, so append behind them instead; the next drain re-places all
    // of them in order.
    n->level = kOverflowLevel;
    n->slot = 0;
    ListAppend(overflow_.begin()->second, n);
    ++level_occupancy_[kOverflowLevel];
    return;
  }
  const int slot =
      static_cast<int>((n->time >> (kSlotBits * level)) & (kSlots - 1));
  n->level = static_cast<std::uint16_t>(level);
  n->slot = static_cast<std::uint16_t>(slot);
  ListAppend(SlotList(n->level, n->slot), n);
  occupied_[level] |= std::uint64_t{1} << slot;
  ++level_occupancy_[level];
}

void EventQueue::CascadeSlot(int level, int slot) {
  NodeList list = SlotList(level, slot);
  SlotList(level, slot) = NodeList{};
  occupied_[level] &= ~(std::uint64_t{1} << slot);
  // Head-to-tail re-placement preserves per-slot FIFO: equal-time events
  // always land in the same destination slot, in their original order.
  for (Node* n = list.head; n != nullptr;) {
    Node* next = n->next;
    --level_occupancy_[level];
    ++stats_.cascaded;
    Place(n);
    n = next;
  }
}

void EventQueue::PullOverflowBucket(
    std::map<std::int64_t, NodeList>::iterator it) {
  NodeList list = it->second;
  overflow_.erase(it);
  for (Node* n = list.head; n != nullptr;) {
    Node* next = n->next;
    --level_occupancy_[kOverflowLevel];
    ++stats_.cascaded;
    Place(n);
    n = next;
  }
}

// Restores the invariant "level L holds only events later than everything
// at level L-1" after any cursor movement: drains an overflow bucket that
// reached the cursor's epoch, then cascades, top level first, each slot
// the cursor currently sits in. Cheap no-op (one map check + kLevels
// bitmap tests) when nothing moved.
void EventQueue::PullCurrent() {
  if (!overflow_.empty() &&
      overflow_.begin()->first == (cursor_ >> kHorizonBits)) {
    PullOverflowBucket(overflow_.begin());
  }
  for (int level = kLevels - 1; level >= 1; --level) {
    const int slot =
        static_cast<int>((cursor_ >> (kSlotBits * level)) & (kSlots - 1));
    if ((occupied_[level] & (std::uint64_t{1} << slot)) != 0) {
      CascadeSlot(level, slot);
    }
  }
}

EventQueue::Node* EventQueue::PeekDue(std::int64_t deadline) {
  while (live_count_ > 0) {
    PullCurrent();
    if (occupied_[0] != 0) {
      // After PullCurrent the earliest event is the head of the lowest
      // occupied level-0 slot: level-0 slots are 1 ms wide, so the list
      // head (earliest scheduled) is the exact global minimum.
      const int idx = LowestBit(occupied_[0]);
      const std::int64_t t0 = (cursor_ & ~std::int64_t{kSlots - 1}) | idx;
      if (t0 > deadline) return nullptr;
      cursor_ = t0;
      return SlotList(0, static_cast<std::uint16_t>(idx)).head;
    }
    // Level 0 empty: hop the cursor to the start of the next occupied
    // slot (or overflow epoch). Levels are time-nested, so the lowest
    // non-empty level owns the earliest event and the smallest bound.
    std::int64_t bound = -1;
    for (int level = 1; level < kLevels; ++level) {
      if (occupied_[level] == 0) continue;
      const int idx = LowestBit(occupied_[level]);
      const int shift = kSlotBits * level;
      const std::int64_t window_mask =
          ~((std::int64_t{1} << (shift + kSlotBits)) - 1);
      bound = (cursor_ & window_mask) |
              (static_cast<std::int64_t>(idx) << shift);
      break;
    }
    if (bound < 0) {
      if (overflow_.empty()) return nullptr;  // unreachable with live > 0
      bound = overflow_.begin()->first << kHorizonBits;
    }
    // The bound is a lower bound on every pending event, so stopping (or
    // hopping) here can never skip an event; never moving past `deadline`
    // keeps later inserts at t <= deadline placeable.
    if (bound > deadline) return nullptr;
    cursor_ = bound;
  }
  return nullptr;
}

bool EventQueue::PopAndRun(std::int64_t deadline) {
  Node* n = PeekDue(deadline);
  if (n == nullptr) return false;
  NodeList& list = SlotList(0, n->slot);
  ListUnlink(list, n);
  if (list.empty()) {
    occupied_[0] &= ~(std::uint64_t{1} << n->slot);
  }
  --level_occupancy_[0];
  --live_count_;
  cursor_ = n->time;
  now_ = SimTime{n->time};
  Callback fn = std::move(n->fn);
  // Free before firing: a Cancel of this very handle from inside the
  // callback must report "already ran".
  FreeNode(n);
  ++stats_.fired;
  fn();
  return true;
}

// ---------------------------------------------------------- public

bool EventQueue::Cancel(EventHandle h) {
  if (!h.valid()) return false;
  const auto index = static_cast<std::uint32_t>(h.id >> 32);
  const auto generation = static_cast<std::uint32_t>(h.id);
  Node* n = NodeAt(index);
  if (n == nullptr || n->generation != generation) return false;
  if (n->level == kOverflowLevel) {
    const auto it = overflow_.find(n->time >> kHorizonBits);
    FL_CHECK(it != overflow_.end());
    ListUnlink(it->second, n);
    if (it->second.empty()) overflow_.erase(it);
    --level_occupancy_[kOverflowLevel];
  } else {
    NodeList& list = SlotList(n->level, n->slot);
    ListUnlink(list, n);
    if (list.empty()) {
      occupied_[n->level] &= ~(std::uint64_t{1} << n->slot);
    }
    --level_occupancy_[n->level];
  }
  FreeNode(n);
  --live_count_;
  ++stats_.cancelled;
  return true;
}

EventHandle EventQueue::At(SimTime t, Callback fn) {
  FL_CHECK_MSG(t >= now_, "cannot schedule into the past");
  FL_CHECK(static_cast<bool>(fn));
  ++stats_.scheduled;
  if (!fn.is_inline()) ++stats_.heap_callbacks;
  ++live_count_;
  Node* n = AllocNode();
  n->time = t.millis;
  n->fn = std::move(fn);
  Place(n);
  return EventHandle{MakeHandleId(n->index, n->generation)};
}

bool EventQueue::Step() {
  return PopAndRun(std::numeric_limits<std::int64_t>::max());
}

std::size_t EventQueue::Run() {
  std::size_t n = 0;
  while (Step()) ++n;
  return n;
}

std::size_t EventQueue::RunUntil(SimTime deadline) {
  std::size_t n = 0;
  while (PopAndRun(deadline.millis)) ++n;
  if (now_ < deadline) now_ = deadline;
  if (cursor_ < now_.millis) cursor_ = now_.millis;
  return n;
}

}  // namespace fl::sim
