// Discrete-event queues for the two engines. Both key events by a
// (time, seq) pair whose comparator is a strict total order (seq is
// unique), so *any* correct min-queue pops the exact same global event
// sequence, and each engine picks the layout that suits its pending set.
//
// ShardedEventQueue (SOR): per-shard binary min-heaps merged by an N-way
// tournament tree over the shard heads. SOR holds at most one pending
// event per worker, spread over many timestamps, so most shards are
// one-element heaps whose push/pop is O(1) and the only log factor is the
// tournament replay over shard heads — empty shards cost nothing. A bulk
// shard absorbs the event classes without a per-entity invariant (app
// arrivals, disk failures). With one shard the queue is a plain binary
// heap.
//
// EventWindow (DOR): one vector kept sorted in pop order. DOR's pending
// set is small (one read per disk plus in-flight spare writes) and nearly
// every push lands at its tail, because fixed-latency disks complete in
// lockstep; an insertion scan from the tail then costs one compare, and
// the sorted layout lets the engine look several pops ahead.
//
// The unit tests hold both queues to the pop order of a reference
// std::priority_queue.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "util/check.h"

namespace fbf::sim {

/// Min-queue over `Event`s with `operator>` defining a strict total order
/// (ties broken by a unique sequence number). Not thread-safe.
template <typename Event>
class ShardedEventQueue {
 public:
  explicit ShardedEventQueue(std::size_t shards) {
    FBF_CHECK(shards >= 1, "event queue needs at least one shard");
    heaps_.resize(shards);
    reserved_.assign(shards, 0);
    leaves_ = 1;
    while (leaves_ < shards) {
      leaves_ <<= 1;
    }
    tree_.assign(2 * leaves_, kEmpty);
    heads_.resize(leaves_);
  }

  std::size_t num_shards() const { return heaps_.size(); }

  /// Grows shard `shard`'s reservation by `n` events. Additive so callers
  /// can account independent event classes separately.
  void reserve(std::size_t shard, std::size_t n) {
    const std::size_t s = checked(shard);
    reserved_[s] += n;
    heaps_[s].reserve(reserved_[s]);
  }

  void push(std::size_t shard, const Event& ev) {
    const std::size_t s = checked(shard);
    auto& h = heaps_[s];
    ++pushes_;
    if (h.size() == h.capacity()) {
      ++regrowths_;  // reservation breached: vector growth (amortized)
    }
    // The tournament only sees shard heads: a push that does not displace
    // the head leaves every tree node valid, so the replay is skipped.
    const bool displaces_head = h.empty() || h.front() > ev;
    h.push_back(ev);
    std::push_heap(h.begin(), h.end(), std::greater<Event>{});
    ++size_;
    if (displaces_head) {
      replay(s);
    }
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Pops the globally earliest event (the tournament winner's head).
  Event pop() {
    FBF_CHECK(size_ > 0, "pop from empty event queue");
    const std::uint32_t s = tree_[1];
    auto& h = heaps_[s];
    std::pop_heap(h.begin(), h.end(), std::greater<Event>{});
    Event ev = std::move(h.back());
    h.pop_back();
    --size_;
    replay(s);
    return ev;
  }

  /// Pushes past a shard's reservation observed so far (each one a vector
  /// regrowth). Zero on runs whose per-shard bounds are exact.
  std::uint64_t regrowths() const { return regrowths_; }

  /// Events pushed so far. Each one costs a heap push and, later, a pop.
  std::uint64_t pushes() const { return pushes_; }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  std::size_t checked(std::size_t shard) const {
    FBF_CHECK(shard < heaps_.size(), "event shard out of range");
    return shard;
  }

  /// a precedes b in the total order (exactly one of a>b / b>a holds for
  /// distinct events, and two shard heads are always distinct). Compares
  /// the contiguous head cache, not the scattered heap vectors: with one
  /// pending event per worker/reader shard the heaps are all single
  /// elements and the replay compares dominate, so keeping the heads in
  /// one array is what makes the tournament cache-resident.
  bool earlier(std::uint32_t a, std::uint32_t b) const {
    return heads_[b] > heads_[a];
  }

  /// Re-seeds shard `s`'s leaf (refreshing its cached head) and replays
  /// its root path: O(log shards) head comparisons.
  void replay(std::size_t s) {
    std::size_t node = leaves_ + s;
    if (heaps_[s].empty()) {
      tree_[node] = kEmpty;
    } else {
      tree_[node] = static_cast<std::uint32_t>(s);
      heads_[s] = heaps_[s].front();
    }
    while (node > 1) {
      node >>= 1;
      const std::uint32_t l = tree_[2 * node];
      const std::uint32_t r = tree_[2 * node + 1];
      if (l == kEmpty) {
        tree_[node] = r;
      } else if (r == kEmpty) {
        tree_[node] = l;
      } else {
        tree_[node] = earlier(l, r) ? l : r;
      }
    }
  }

  std::vector<std::vector<Event>> heaps_;
  /// heads_[s] mirrors heaps_[s].front() whenever shard s is non-empty
  /// (leaf == kEmpty otherwise); contiguous so tournament compares never
  /// chase heap-vector pointers.
  std::vector<Event> heads_;
  std::vector<std::size_t> reserved_;
  /// Winner tree: leaves_ is the shard count rounded up to a power of two;
  /// leaf i sits at index leaves_+i, the overall winner at index 1 (index
  /// 0 unused). Nodes hold winning shard ids, kEmpty for empty subtrees.
  std::size_t leaves_ = 1;
  std::vector<std::uint32_t> tree_;
  std::size_t size_ = 0;
  std::uint64_t regrowths_ = 0;
  std::uint64_t pushes_ = 0;
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
