// FlatMap: open-addressing hash map from 64-bit keys to small values.
//
// The per-object staging path looks small integer-like keys up millions of
// times per run (BoxIndex cell keys).
// std::unordered_map costs a node allocation per key and a modulo per
// lookup; this map keeps every slot in one power-of-two vector, hashes with
// one multiply, and probes linearly at a load factor of at most 1/2. It
// never erases, and clear() keeps the slot storage for the next fill.
//
// Lookups only: no iteration, so slot order never leaks into results.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace imc {

template <typename V>
class FlatMap {
 public:
  // Value of `key`, or null when absent.
  V* find(std::uint64_t key) {
    if (slots_.empty()) return nullptr;
    Slot& slot = slots_[probe(key)];
    return slot.used ? &slot.value : nullptr;
  }

  // Value of `key`, value-initialized first when absent.
  V& operator[](std::uint64_t key) {
    if (2 * (used_ + 1) > slots_.size()) grow();
    Slot& slot = slots_[probe(key)];
    if (!slot.used) {
      slot = Slot{key, V{}, true};
      ++used_;
    }
    return slot.value;
  }

  // Empties the map, keeping its slots and growing them to hold at least
  // `expected` keys. Clearing a map that never held a key allocates nothing.
  void clear(std::size_t expected = 0) {
    std::size_t capacity = slots_.size();
    while (2 * expected > capacity) {
      capacity = std::max<std::size_t>(16, 2 * capacity);
    }
    slots_.assign(capacity, Slot{});
    used_ = 0;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    V value{};
    bool used = false;
  };

  // Slot holding `key`, or the free slot where it belongs. Fibonacci
  // hashing spreads strided and aligned keys over the high product bits.
  std::size_t probe(std::uint64_t key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i =
        static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> 32) & mask;
    while (slots_[i].used && slots_[i].key != key) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots_.size()));
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.used) slots_[probe(slot.key)] = slot;
    }
  }

  std::vector<Slot> slots_;  // empty or a power-of-two size
  std::size_t used_ = 0;
};

}  // namespace imc
