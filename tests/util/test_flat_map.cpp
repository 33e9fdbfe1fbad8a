// FlatMap: growth, backward-shift erase, erase_if, clear, and a seeded model
// test against std::unordered_map.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <unordered_map>
#include <vector>

#include "util/flat_map.h"

namespace lw::util {
namespace {

/// Inverse of the table's multiplier mod 2^64 (Newton's iteration).
constexpr std::uint64_t inverse_of_multiplier() {
  const std::uint64_t m = 0x9E3779B97F4A7C15ull;
  std::uint64_t x = m;  // m * m == 1 mod 8, so x starts right in 3 bits
  for (int i = 0; i < 5; ++i) x *= 2 - m * x;
  return x;
}

/// Places key k at home slot k / 100 in a table of 8 slots, so a test can
/// lay out probe runs by hand.
struct HomeHash {
  std::size_t operator()(std::uint64_t key) const {
    return static_cast<std::size_t>(((key / 100) << 61) *
                                    inverse_of_multiplier());
  }
};
using Placed = FlatMap<std::uint64_t, int, HomeHash>;

/// An empty table already grown to 8 slots, so inserts land by HomeHash.
Placed eight_slots() {
  Placed map;
  for (std::uint64_t key = 400; key < 404; ++key) map[key] = 0;
  for (std::uint64_t key = 400; key < 404; ++key) map.erase(key);
  return map;
}

/// The keys in slot order.
template <class Map>
std::vector<std::uint64_t> slot_order(const Map& map) {
  std::vector<std::uint64_t> keys;
  map.for_each([&](std::uint64_t key, const auto&) { keys.push_back(key); });
  return keys;
}

TEST(FlatMap, HomeHashPlacesKeysWhereTheTestSays) {
  Placed map = eight_slots();
  ASSERT_EQ(map.capacity(), 8u);
  ASSERT_EQ(map.size(), 0u);
  for (std::uint64_t key : {500u, 100u, 300u, 400u}) map[key] = 0;
  EXPECT_EQ(slot_order(map), (std::vector<std::uint64_t>{100, 300, 400, 500}));
}

TEST(FlatMap, EmptyTableOwnsNothingAndGrowsByDoubling) {
  FlatMap<std::uint32_t, std::uint32_t> map;
  EXPECT_EQ(map.capacity(), 0u);
  EXPECT_EQ(map.find(7), nullptr);
  EXPECT_FALSE(map.erase(7));
  EXPECT_EQ(map.erase_if([](std::uint32_t, std::uint32_t) { return true; }),
            0u);
  std::size_t last_capacity = 0;
  for (std::uint32_t key = 0; key < 5000; ++key) {
    auto [value, inserted] = map.try_emplace(key, key * 3);
    ASSERT_TRUE(inserted);
    ASSERT_EQ(*value, key * 3);
    const std::size_t capacity = map.capacity();
    ASSERT_EQ(capacity & (capacity - 1), 0u) << "power of two";
    ASSERT_LE(4 * map.size(), 3 * capacity) << "load stays at most 3/4";
    if (capacity != last_capacity) {
      EXPECT_TRUE(last_capacity == 0 ? capacity == 4
                                     : capacity == 2 * last_capacity);
      last_capacity = capacity;
    }
  }
  EXPECT_EQ(map.size(), 5000u);
  for (std::uint32_t key = 0; key < 5000; ++key) {
    const std::uint32_t* value = map.find(key);
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(*value, key * 3);
  }
  EXPECT_EQ(map.find(5000), nullptr);
  auto [value, inserted] = map.try_emplace(42, 0u);
  EXPECT_FALSE(inserted) << "a present key keeps its value";
  EXPECT_EQ(*value, 126u);
}

TEST(FlatMap, OperatorBracketValueInitializes) {
  FlatMap<std::uint32_t, double> map;
  EXPECT_EQ(map[3], 0.0);
  map[3] += 2.5;
  map[3] += 2.5;
  EXPECT_EQ(map[3], 5.0);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, EraseShiftsTheProbeRunBack) {
  Placed map = eight_slots();
  // Slots 2, 3, 4: two keys from home 2, then one from home 3.
  map[200] = 1;
  map[201] = 2;
  map[300] = 3;
  map[600] = 4;  // a run of its own; must not move
  ASSERT_EQ(slot_order(map), (std::vector<std::uint64_t>{200, 201, 300, 600}));
  EXPECT_TRUE(map.erase(200));
  EXPECT_FALSE(map.erase(200));
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(*map.find(201), 2);
  EXPECT_EQ(*map.find(300), 3);
  EXPECT_EQ(*map.find(600), 4);
  EXPECT_EQ(slot_order(map), (std::vector<std::uint64_t>{201, 300, 600}));
}

TEST(FlatMap, EraseKeepsAnEntryAtItsHomeInPlace) {
  Placed map = eight_slots();
  map[200] = 1;  // slot 2
  map[300] = 2;  // slot 3, its home: the hole at 2 is before it
  map[301] = 3;  // slot 4
  map[100] = 4;  // slot 1
  ASSERT_TRUE(map.erase(200));
  EXPECT_EQ(*map.find(300), 2);
  EXPECT_EQ(*map.find(301), 3);
  EXPECT_EQ(*map.find(100), 4);
  // Slot 2 stays empty, so a new home-2 key lands there.
  map[202] = 5;
  EXPECT_EQ(slot_order(map),
            (std::vector<std::uint64_t>{100, 202, 300, 301}));
}

TEST(FlatMap, EraseShiftsARunThatWrapsPastTheEnd) {
  Placed map = eight_slots();
  // Home 7 holds slots 7, 0 and 1; the home-0 key is pushed to slot 2.
  map[700] = 1;
  map[701] = 2;
  map[702] = 3;
  map[0] = 4;
  ASSERT_EQ(slot_order(map), (std::vector<std::uint64_t>{701, 702, 0, 700}));
  ASSERT_TRUE(map.erase(700));
  EXPECT_EQ(*map.find(701), 2);
  EXPECT_EQ(*map.find(702), 3);
  EXPECT_EQ(*map.find(0), 4);
  // 701 moved back across the end to slot 7, 702 to slot 0 and 0 to slot 1.
  EXPECT_EQ(slot_order(map), (std::vector<std::uint64_t>{702, 0, 701}));
  ASSERT_TRUE(map.erase(701));
  EXPECT_EQ(slot_order(map), (std::vector<std::uint64_t>{0, 702}));
  EXPECT_EQ(*map.find(702), 3);
  EXPECT_EQ(*map.find(0), 4);
}

TEST(FlatMap, EraseIfSeesAnEntryMovedByAnEarlierErase) {
  Placed map = eight_slots();
  map[200] = 1;  // slot 2
  map[201] = 2;  // slot 3: erasing 200 moves it to slot 2
  map[300] = 3;  // slot 4: then moves to slot 3
  map[500] = 4;
  std::map<std::uint64_t, int> seen;
  const std::size_t erased = map.erase_if([&](std::uint64_t key, int& value) {
    ++seen[key];
    value += 10;  // the predicate may edit what it keeps
    return key != 300;
  });
  EXPECT_EQ(erased, 3u);
  EXPECT_EQ(seen, (std::map<std::uint64_t, int>{
                      {200, 1}, {201, 1}, {300, 1}, {500, 1}}))
      << "every entry is offered exactly once";
  ASSERT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.find(300), 13);
}

TEST(FlatMap, EraseIfOffersAWrappedRunOnce) {
  Placed map = eight_slots();
  map[700] = 1;  // slot 7
  map[701] = 2;  // slot 0
  map[702] = 3;  // slot 1
  map[0] = 4;    // slot 2
  map[100] = 5;  // slot 3
  std::map<std::uint64_t, int> seen;
  map.erase_if([&](std::uint64_t key, int&) {
    ++seen[key];
    return key == 700 || key == 0;
  });
  EXPECT_EQ(seen, (std::map<std::uint64_t, int>{
                      {0, 1}, {100, 1}, {700, 1}, {701, 1}, {702, 1}}));
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(*map.find(701), 2);
  EXPECT_EQ(*map.find(702), 3);
  EXPECT_EQ(*map.find(100), 5);
}

TEST(FlatMap, ClearKeepsCapacityAndTheTableIsReusable) {
  FlatMap<std::uint32_t, std::vector<int>> map;
  for (std::uint32_t key = 0; key < 100; ++key) map[key].push_back(1);
  const std::size_t capacity = map.capacity();
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), capacity);
  EXPECT_EQ(map.find(5), nullptr);
  EXPECT_TRUE(map[5].empty()) << "a cleared slot holds a fresh value";
  for (std::uint32_t key = 0; key < 100; ++key) map[key].push_back(2);
  EXPECT_EQ(map.size(), 100u);
  EXPECT_EQ(map.capacity(), capacity);
  EXPECT_EQ(*map.find(99), (std::vector<int>{2}));
}

TEST(FlatSet, StoresKeysOnly) {
  FlatSet<std::uint64_t> set;
  EXPECT_TRUE(set.try_emplace(9).second);
  EXPECT_FALSE(set.try_emplace(9).second);
  EXPECT_NE(set.find(9), nullptr);
  EXPECT_TRUE(set.erase(9));
  EXPECT_EQ(set.find(9), nullptr);
}

/// A poor hash (16 distinct values) to stress long probe runs.
struct ClumpHash {
  std::size_t operator()(std::uint32_t key) const { return key % 16; }
};

template <class Hash>
void run_model(std::uint64_t seed) {
  FlatMap<std::uint32_t, std::uint64_t, Hash> map;
  std::unordered_map<std::uint32_t, std::uint64_t> model;
  std::mt19937_64 rng(seed);
  for (int op = 0; op < 100000; ++op) {
    const auto key = static_cast<std::uint32_t>(rng() % 3000);
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2: {
        const std::uint64_t value = rng();
        const bool inserted = map.try_emplace(key, value).second;
        ASSERT_EQ(inserted, model.try_emplace(key, value).second) << op;
        break;
      }
      case 3:
        map[key] += 1;
        model[key] += 1;
        break;
      case 4:
      case 5:
        ASSERT_EQ(map.erase(key), model.erase(key) == 1) << op;
        break;
      case 6: {
        const std::uint64_t* value = map.find(key);
        const auto it = model.find(key);
        ASSERT_EQ(value != nullptr, it != model.end()) << op;
        if (value != nullptr) {
          ASSERT_EQ(*value, it->second) << op;
        }
        break;
      }
      default:
        if (rng() % 64 == 0) {
          const std::uint64_t bit = rng() % 4;
          auto drop = [bit](std::uint64_t value) { return (value >> bit) & 1; };
          const std::size_t erased = map.erase_if(
              [&](std::uint32_t, std::uint64_t& value) { return drop(value); });
          const std::size_t model_erased = std::erase_if(
              model, [&](const auto& entry) { return drop(entry.second); });
          ASSERT_EQ(erased, model_erased) << op;
        }
        break;
    }
    ASSERT_EQ(map.size(), model.size()) << op;
  }
  std::size_t visited = 0;
  map.for_each([&](std::uint32_t key, std::uint64_t value) {
    ++visited;
    const auto it = model.find(key);
    ASSERT_NE(it, model.end());
    EXPECT_EQ(value, it->second);
  });
  EXPECT_EQ(visited, model.size());
}

TEST(FlatMap, SeededModelAgreesWithUnorderedMap) {
  run_model<std::hash<std::uint32_t>>(2024);
}

TEST(FlatMap, SeededModelAgreesWithUnorderedMapUnderCollisions) {
  run_model<ClumpHash>(77);
}

}  // namespace
}  // namespace lw::util
