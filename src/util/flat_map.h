// Open-addressing hash map for the small per-node protocol tables.
//
// Every node keeps a handful of tables that each overheard control frame
// probes: the watch buffer, the MalC counters, the judged-forward set and the
// REQ duplicate filter. A node-based std::unordered_* table puts each entry
// in its own heap node, so every lookup chases a bucket pointer into a cold
// node and teardown frees the nodes one by one. Here the entries sit in one
// contiguous slot array:
//
//  * Linear probing over a power-of-two capacity. The home slot is the top
//    bits of hash * 2^64/phi, so even an identity hash (std::hash of an
//    integer id) spreads over the table.
//  * The table grows by doubling before an insert would push the load past
//    3/4, starting at 4 slots on the first insert; an empty table owns no
//    memory. It never shrinks: clear() keeps the capacity for reuse.
//  * erase() shifts the later entries of the probe run back into the hole
//    (backward-shift deletion), so there are no tombstones and a lookup
//    never scans past an empty slot.
//
// References and pointers into the table (find, try_emplace, operator[])
// stay valid until the next insert or erase: an insert may move every entry
// (growth) and an erase may move the entries after it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace lw::util {

template <class K, class V, class Hash = std::hash<K>>
class FlatMap {
 public:
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  /// The value stored under `key`, or nullptr.
  V* find(const K& key) {
    const std::size_t i = index_of(key);
    return i == kNone ? nullptr : &slots_[i].value;
  }
  const V* find(const K& key) const {
    const std::size_t i = index_of(key);
    return i == kNone ? nullptr : &slots_[i].value;
  }

  /// Inserts V(args...) under `key` unless the key is present. Returns the
  /// stored value and whether it was inserted.
  template <class... Args>
  std::pair<V*, bool> try_emplace(const K& key, Args&&... args) {
    if (slots_.empty()) rehash(kMinCapacity);
    std::size_t i = slot_for(key);
    if (used_[i]) return {&slots_[i].value, false};
    if (4 * (size_ + 1) > 3 * slots_.size()) {
      rehash(2 * slots_.size());
      i = slot_for(key);
    }
    slots_[i].key = key;
    slots_[i].value = V(std::forward<Args>(args)...);
    used_[i] = 1;
    ++size_;
    return {&slots_[i].value, true};
  }

  /// The value under `key`, value-initialized on first use.
  V& operator[](const K& key) { return *try_emplace(key).first; }

  /// Removes `key`; true if it was present.
  bool erase(const K& key) {
    const std::size_t i = index_of(key);
    if (i == kNone) return false;
    erase_at(i);
    return true;
  }

  /// Removes every entry for which pred(key, value) is true and returns how
  /// many went. The predicate sees each entry exactly once and may modify
  /// its value.
  template <class Pred>
  std::size_t erase_if(Pred pred) {
    if (size_ == 0) return 0;
    // Start just after an empty slot (one exists: the load stays below 1),
    // so no probe run wraps past the end of the scan. An entry that a
    // backward shift moves then lands in the slot being examined or later,
    // never in one the scan has passed.
    std::size_t start = 0;
    while (used_[start]) ++start;
    std::size_t erased = 0;
    for (std::size_t step = 1; step < slots_.size(); ++step) {
      const std::size_t i = (start + step) & mask();
      while (used_[i] && pred(std::as_const(slots_[i].key), slots_[i].value)) {
        erase_at(i);
        ++erased;
      }
    }
    return erased;
  }

  /// Drops every entry; the capacity stays.
  void clear() {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (used_[i]) slots_[i] = Slot{};
      used_[i] = 0;
    }
    size_ = 0;
  }

  /// Calls f(key, value) for every entry, in slot order.
  template <class F>
  void for_each(F f) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (used_[i]) f(slots_[i].key, slots_[i].value);
    }
  }

 private:
  struct Slot {
    K key{};
    // An empty V (a set's value) takes no room in the slot.
    [[no_unique_address]] V value{};
  };

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinCapacity = 4;

  std::size_t mask() const { return slots_.size() - 1; }
  std::size_t next(std::size_t i) const { return (i + 1) & mask(); }
  std::size_t home(const K& key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(Hash{}(key)) * 0x9E3779B97F4A7C15ull) >>
        shift_);
  }

  /// The slot holding `key`, else the empty slot that ends its probe run.
  std::size_t slot_for(const K& key) const {
    std::size_t i = home(key);
    while (used_[i] && !(slots_[i].key == key)) i = next(i);
    return i;
  }

  std::size_t index_of(const K& key) const {
    if (size_ == 0) return kNone;
    const std::size_t i = slot_for(key);
    return used_[i] ? i : kNone;
  }

  /// Empties slot `hole`, then walks the probe run after it and moves back
  /// every entry whose home slot does not lie strictly between the hole and
  /// the entry (cyclically), so each stays reachable from its home.
  void erase_at(std::size_t hole) {
    for (std::size_t j = next(hole); used_[j]; j = next(j)) {
      const std::size_t from_home = (j - home(slots_[j].key)) & mask();
      if (from_home >= ((j - hole) & mask())) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    used_[hole] = 0;
    --size_;
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old_slots(capacity);
    std::vector<std::uint8_t> old_used(capacity, 0);
    old_slots.swap(slots_);
    old_used.swap(used_);
    shift_ = 64;
    for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (!old_used[i]) continue;
      const std::size_t j = slot_for(old_slots[i].key);
      slots_[j] = std::move(old_slots[i]);
      used_[j] = 1;
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> used_;
  std::size_t size_ = 0;
  /// 64 - log2(capacity): home() keeps the top log2(capacity) bits.
  unsigned shift_ = 64;
};

/// A FlatMap that stores keys only.
struct FlatSetValue {};
template <class K, class Hash = std::hash<K>>
using FlatSet = FlatMap<K, FlatSetValue, Hash>;

}  // namespace lw::util
