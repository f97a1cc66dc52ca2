// Discrete-event queues for the two engines. Both key events by a
// (time, seq) pair whose comparator is a strict total order (seq is
// unique), so *any* correct min-queue pops the exact same global event
// sequence, and each engine picks the layout that suits its pending set.
//
// TournamentTree (SOR): a winner tree with one leaf per source, each leaf
// holding at most one pending key. SOR's pending set is one ready time per
// worker, so a worker's step is one leaf-to-root replay: pop it, advance
// it, re-arm its leaf.
//
// PresetStream (both engines): events fixed before the run starts (app
// arrivals, disk failures) sorted once and streamed beside the queue; the
// engine takes the earlier of the stream's head and the queue's at each
// pop.
//
// EventWindow (DOR): one vector kept sorted in pop order. DOR's pending
// set is small (one read per disk plus in-flight spare writes) and nearly
// every push lands at its tail, because fixed-latency disks complete in
// lockstep; an insertion scan from the tail then costs one compare, and
// the sorted layout lets the engine look several pops ahead.
//
// The unit tests hold the tree and the window to the pop order of a
// reference std::priority_queue.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/check.h"

namespace fbf::sim {

/// An event's place in the pop order: its time, then its unique sequence
/// number. kNoEvent, the key of an empty slot, follows every real key.
struct EventKey {
  double t;
  std::uint64_t seq;
};

inline constexpr EventKey kNoEvent{std::numeric_limits<double>::infinity(),
                                   std::numeric_limits<std::uint64_t>::max()};

/// a pops before b. Bitwise, not short-circuit: both fields are compared
/// on every call, with no branch between them.
inline bool earlier(const EventKey& a, const EventKey& b) {
  return (a.t < b.t) | ((a.t == b.t) & (a.seq < b.seq));
}

/// Winner tree over a fixed set of sources, each holding at most one
/// pending key. Leaf i holds source i's key (kNoEvent when it has none);
/// each internal node holds the earlier of its children's winners, key and
/// source together, so a replay reads one sibling node per level and
/// follows no index. Any update to a leaf (arm, re-key, clear) replays its
/// root path in ceil(log2 sources) compares. Not thread-safe.
class TournamentTree {
 public:
  struct Entry {
    EventKey key;
    std::uint32_t source;
  };

  explicit TournamentTree(std::size_t sources) : sources_(sources) {
    FBF_CHECK(sources >= 1, "tournament tree needs at least one source");
    while (leaves_ < sources) {
      leaves_ <<= 1;
    }
    // Padding leaves past `sources` hold kNoEvent for good, so they never
    // beat an armed leaf.
    nodes_.assign(2 * leaves_, Entry{kNoEvent, 0});
  }

  /// The earliest armed key and its source; key kNoEvent when none is.
  const Entry& top() const { return nodes_[1]; }
  bool empty() const { return nodes_[1].key.seq == kNoEvent.seq; }

  bool armed(std::size_t source) const {
    return nodes_[leaves_ + checked(source)].key.seq != kNoEvent.seq;
  }

  /// Sets `source`'s key, whether or not it held one.
  void arm(std::size_t source, EventKey key) { replay(checked(source), key); }
  void clear(std::size_t source) { replay(checked(source), kNoEvent); }

 private:
  std::size_t checked(std::size_t source) const {
    FBF_CHECK(source < sources_, "tournament source out of range");
    return source;
  }

  void replay(std::size_t source, EventKey key) {
    std::size_t node = leaves_ + source;
    Entry winner{key, static_cast<std::uint32_t>(source)};
    nodes_[node] = winner;
    for (; node > 1; node >>= 1) {
      const Entry& sibling = nodes_[node ^ 1];
      winner = earlier(sibling.key, winner.key) ? sibling : winner;
      nodes_[node >> 1] = winner;
    }
  }

  std::size_t sources_;
  /// sources_ rounded up to a power of two; leaf i sits at index
  /// leaves_ + i and the overall winner at index 1 (index 0 unused).
  std::size_t leaves_ = 1;
  std::vector<Entry> nodes_;
};

/// Events fixed before the run starts, streamed in pop order beside an
/// engine's queue instead of pushed into it. Item i, due at items[i].*time,
/// carries seq seq0 + i, the seq a push at the stream's creation would
/// give it; the stream yields items in (time, i) order, which is their
/// (t, seq) order, so taking the earlier of its head and the queue's at
/// each pop is a pop from one queue holding both.
class PresetStream {
 public:
  PresetStream() : keys_{kNoEvent} {}

  template <typename Range, typename Item>
  PresetStream(const Range& items, double Item::*time, std::uint64_t seq0)
      : seq0_(seq0) {
    keys_.reserve(items.size() + 1);
    std::uint64_t seq = seq0;
    for (const Item& item : items) {
      keys_.push_back(EventKey{item.*time, seq++});
    }
    std::sort(keys_.begin(), keys_.end(),
              [](const EventKey& a, const EventKey& b) {
                return earlier(a, b);
              });
    keys_.push_back(kNoEvent);  // the head once every item has popped
  }

  bool empty() const { return head_ + 1 == keys_.size(); }

  /// The next item's key; kNoEvent once the stream is drained.
  const EventKey& head() const { return keys_[head_]; }

  /// The next item's position in `items`.
  std::size_t index() const {
    FBF_CHECK(!empty(), "index of a drained preset stream");
    return static_cast<std::size_t>(keys_[head_].seq - seq0_);
  }

  void pop() {
    FBF_CHECK(!empty(), "pop from a drained preset stream");
    ++head_;
  }

 private:
  std::vector<EventKey> keys_;  ///< sorted items, then kNoEvent
  std::size_t head_ = 0;
  std::uint64_t seq0_ = 0;
};

/// Min-queue over `Event`s (`operator>` a strict total order, as above)
/// stored as one vector sorted in pop order, live from a head index. A
/// push scans back from the tail to its place; a pop advances the head.
/// The spent prefix is reclaimed once it is at least as long as the live
/// tail (the Reader::take idiom in dor_engine.cpp), so the window only
/// ever touches about twice its peak occupancy, however large its
/// reservation. Not thread-safe.
template <typename Event>
class EventWindow {
 public:
  /// Grows the reservation by `n` events. Additive so callers can account
  /// independent event classes separately.
  void reserve(std::size_t n) {
    reserved_ += n;
    events_.reserve(reserved_);
  }

  void push(const Event& ev) {
    ++pushes_;
    if (events_.size() == events_.capacity()) {
      if (head_ > 0) {
        reclaim();  // room behind the head: no growth needed
      } else {
        ++regrowths_;  // reservation breached: vector growth (amortized)
      }
    }
    std::size_t i = events_.size();
    events_.push_back(ev);
    while (i > head_ && events_[i - 1] > ev) {
      events_[i] = events_[i - 1];
      --i;
    }
    events_[i] = ev;
  }

  bool empty() const { return head_ == events_.size(); }
  std::size_t size() const { return events_.size() - head_; }

  /// Pops the earliest event. Amortized O(1): a full drain resets for
  /// free, and a reclaim moves at most as many events as were popped
  /// since the previous one.
  Event pop() {
    FBF_CHECK(!empty(), "pop from empty event window");
    const Event ev = events_[head_++];
    if (head_ == events_.size()) {
      events_.clear();
      head_ = 0;
    } else if (2 * head_ >= events_.size()) {
      reclaim();
    }
    return ev;
  }

  /// The event `k` pops away (0 = the next pop) without removing anything.
  /// Pushes made before that pop may still land ahead of it.
  const Event& ahead(std::size_t k) const {
    FBF_CHECK(k < size(), "lookahead past the end of the event window");
    return events_[head_ + k];
  }

  /// Pushes that found the window full with no spent prefix to reclaim
  /// (each one a vector regrowth). Zero on runs whose bounds are exact.
  std::uint64_t regrowths() const { return regrowths_; }

  /// Events pushed so far (each one popped once).
  std::uint64_t pushes() const { return pushes_; }

 private:
  void reclaim() {
    events_.erase(events_.begin(),
                  events_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }

  std::vector<Event> events_;  ///< [head_, size) live, sorted in pop order
  std::size_t head_ = 0;
  std::size_t reserved_ = 0;
  std::uint64_t regrowths_ = 0;
  std::uint64_t pushes_ = 0;
};

}  // namespace fbf::sim
