// Growable open-addressing map from 64-bit keys to dense u32 ids, shared by
// the DOR engine (chunk key -> chunk record) and the foreground server
// (stripe -> stripe record).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/hugepage.h"

namespace fbf::sim {

/// Insert-only (neither user ever forgets a key), so probing needs no
/// tombstones; `kNoId` in the id field marks an empty slot, which keeps key
/// 0 usable (chunk keys and stripe numbers start at 0). Key and id share
/// one 16-byte slot so a probe against the table — a cold miss once the
/// table spans megabytes — costs one cache line, not two. Same splitmix64
/// finalizer as cache::core::KeyIndexTable; that table is fixed-capacity
/// by design, and DOR's fault replans mint chunks unboundedly, hence this
/// growable twin. Sized from the expected key count, it grows only past
/// that count.
class KeyIdMap {
 public:
  static constexpr std::uint32_t kNoId = 0xffffffffu;

  explicit KeyIdMap(std::size_t expected) {
    std::size_t cap = 16;
    while (cap < expected * 2) {
      cap <<= 1;
    }
    // Advise before assign: the fill below is the first touch, so the
    // whole slot array faults in as huge pages (tens of MB probed
    // randomly — 4 KiB paging would make every probe a TLB walk too).
    slots_.reserve(cap);
    util::advise_hugepages(slots_.data(), cap * sizeof(Slot));
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
  }

  /// Id of `key`, or kNoId when absent.
  std::uint32_t find(std::uint64_t key) const {
    for (std::size_t s = slot(key);; s = (s + 1) & mask_) {
      if (slots_[s].id == kNoId) {
        return kNoId;
      }
      if (slots_[s].key == key) {
        return slots_[s].id;
      }
    }
  }

  /// Existing id for `key`, or inserts `id` and reports fresh.
  std::pair<std::uint32_t, bool> find_or_insert(std::uint64_t key,
                                                std::uint32_t id) {
    for (std::size_t s = slot(key);; s = (s + 1) & mask_) {
      if (slots_[s].id == kNoId) {
        slots_[s].key = key;
        slots_[s].id = id;
        if (++size_ * 2 >= slots_.size()) {
          grow();
        }
        return {id, true};
      }
      if (slots_[s].key == key) {
        return {slots_[s].id, false};
      }
    }
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t id = kNoId;
  };

  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
  }
  std::size_t slot(std::uint64_t key) const {
    return static_cast<std::size_t>(mix(key)) & mask_;
  }
  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.reserve(old.size() * 2);
    util::advise_hugepages(slots_.data(), old.size() * 2 * sizeof(Slot));
    slots_.assign(old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot& o : old) {
      if (o.id == kNoId) {
        continue;
      }
      std::size_t d = slot(o.key);
      while (slots_[d].id != kNoId) {
        d = (d + 1) & mask_;
      }
      slots_[d] = o;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace fbf::sim
