// Tests for the shared flat key index (common/flat_key_index.h) and for the
// symmetric cache's use of it: a differential check against
// std::unordered_map over key sets chosen to stress linear probing, and the
// pointer-stability and ordering guarantees SymmetricCache builds on it.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cache/symmetric_cache.h"
#include "src/common/flat_key_index.h"
#include "src/common/rng.h"

namespace cckvs {
namespace {

// Drives a FlatKeyIndex and a reference map through the same random
// insert/erase/find sequence over `universe`.  Values double as backlink
// ids: pos_of[value] tracks each entry's position through the move callback,
// as FlatSpaceSaving does.  With `grow`, a full index grows instead of
// skipping the insert (positions are then re-read, since Grow moves them).
void RunDifferential(const std::vector<Key>& universe, std::size_t max_keys,
                     std::size_t ops, std::uint64_t seed, bool grow) {
  FlatKeyIndex index(max_keys);
  std::unordered_map<Key, std::uint32_t> ref;
  std::unordered_map<std::uint32_t, std::size_t> pos_of;
  std::uint32_t next_value = 0;
  Rng rng(seed);
  const auto check_all = [&] {
    ASSERT_EQ(index.size(), ref.size());
    std::size_t seen = 0;
    index.ForEach([&](Key key, std::uint32_t value) {
      ++seen;
      auto it = ref.find(key);
      ASSERT_NE(it, ref.end()) << "stray key " << key;
      EXPECT_EQ(it->second, value);
    });
    EXPECT_EQ(seen, ref.size());
    for (const auto& [key, value] : ref) {
      const std::size_t pos = index.FindPos(key);
      ASSERT_NE(pos, FlatKeyIndex::kNoPos) << "lost key " << key;
      EXPECT_EQ(pos_of.at(value), pos) << "stale backlink for key " << key;
    }
  };
  for (std::size_t i = 0; i < ops; ++i) {
    const Key key = universe[rng.NextBounded(universe.size())];
    const std::size_t pos = index.FindPos(key);
    const auto it = ref.find(key);
    ASSERT_EQ(pos != FlatKeyIndex::kNoPos, it != ref.end()) << "key " << key;
    if (it != ref.end()) {
      ASSERT_EQ(index.value_at(pos), it->second);
      ASSERT_EQ(index.Find(key), it->second);
    } else {
      ASSERT_EQ(index.Find(key), FlatKeyIndex::kNone);
    }
    if (rng.NextBounded(2) == 0) {  // insert when absent
      if (it != ref.end()) {
        continue;
      }
      if (index.size() == index.max_size()) {
        if (!grow) {
          continue;
        }
        index.Grow();
        for (const auto& [k, v] : ref) {
          pos_of[v] = index.FindPos(k);
        }
      }
      const std::uint32_t value = next_value++;
      pos_of[value] = index.Insert(key, value);
      ref.emplace(key, value);
    } else if (it != ref.end()) {  // erase when present
      pos_of.erase(it->second);
      index.EraseAt(pos, [&](std::uint32_t value, std::size_t new_pos) {
        pos_of.at(value) = new_pos;
      });
      ref.erase(it);
    }
    if (i % 64 == 0) {
      check_all();
    }
  }
  check_all();
}

// Keys whose home cell, in an index sized like FlatKeyIndex(max_keys), is
// one of `homes`.
std::vector<Key> KeysWithHomes(std::size_t max_keys,
                               const std::vector<std::size_t>& homes, std::size_t count) {
  const FlatKeyIndex probe(max_keys);
  std::vector<Key> keys;
  for (Key k = 1; keys.size() < count; ++k) {
    if (std::find(homes.begin(), homes.end(), probe.Home(k)) != homes.end()) {
      keys.push_back(k);
    }
  }
  return keys;
}

TEST(FlatKeyIndex, MatchesMapOnRandomKeys) {
  Rng rng(7);
  std::vector<Key> universe(300);
  for (Key& k : universe) {
    k = rng.Next();
  }
  RunDifferential(universe, 128, 20'000, 1, /*grow=*/false);
}

TEST(FlatKeyIndex, MatchesMapWhenEveryKeyHomesToOneCell) {
  // One cluster holds every key: each erase shifts the whole run back.
  const std::vector<Key> universe = KeysWithHomes(64, {17}, 90);
  RunDifferential(universe, 64, 20'000, 2, /*grow=*/false);
}

TEST(FlatKeyIndex, MatchesMapWhenClustersWrapTheTableEnd) {
  const FlatKeyIndex sized(64);
  const std::size_t last = sized.table_size() - 1;
  // Homes on both sides of the wrap, so shifted cells cross it both ways.
  const std::vector<Key> universe = KeysWithHomes(64, {last - 1, last, 0, 1}, 100);
  RunDifferential(universe, 64, 20'000, 3, /*grow=*/false);
}

TEST(FlatKeyIndex, MatchesMapOnSequentialAndStridedKeys) {
  for (const Key stride : {Key{1}, Key{2}, Key{64}, Key{1} << 12, Key{1} << 32}) {
    std::vector<Key> universe(200);
    for (std::size_t i = 0; i < universe.size(); ++i) {
      universe[i] = 1000 + stride * i;
    }
    RunDifferential(universe, 128, 10'000, 4 + stride, /*grow=*/false);
  }
}

TEST(FlatKeyIndex, MatchesMapAcrossGrowth) {
  Rng rng(11);
  std::vector<Key> universe(2'000);
  for (Key& k : universe) {
    k = rng.NextBounded(1'000'000);
  }
  // Starts at 8 cells and grows several times; erases interleave.
  RunDifferential(universe, 1, 30'000, 5, /*grow=*/true);
}

TEST(FlatKeyIndex, SequentialAndStridedKeysDoNotCluster) {
  // A full index (load 1/2) of sequential or power-of-two-strided keys: the
  // hashed home keeps every key within a few cells of it, where an identity
  // home would pack strided keys into one run.
  for (const Key stride : {Key{1}, Key{8}, Key{1} << 10, Key{1} << 20, Key{1} << 32}) {
    FlatKeyIndex index(1024);
    for (std::uint32_t i = 0; i < index.max_size(); ++i) {
      index.Insert(stride * i, i);
    }
    std::size_t worst = 0;
    index.ForEach([&](Key key, std::uint32_t) {
      const std::size_t pos = index.FindPos(key);
      worst = std::max(worst, (pos - index.Home(key)) & (index.table_size() - 1));
    });
    EXPECT_LT(worst, 32u) << "stride " << stride;
  }
}

// ---------------------------------------------------------------------------
// SymmetricCache on the flat index
// ---------------------------------------------------------------------------

TEST(SymmetricCacheLayout, FindPointersSurviveAdmitPastCapacityAndNeighbourEvictions) {
  SymmetricCache cache(4);
  cache.InstallHotSet({10, 20, 30, 40});
  std::vector<CacheEntry*> entries;
  for (const Key k : {10, 20, 30, 40}) {
    cache.Fill(k, std::to_string(k), Timestamp{1, 0});
    entries.push_back(cache.Find(k));
  }
  // Deferred evictions let Admit run far past capacity: the pool and the
  // index both grow, and resident entries must not move.
  for (Key k = 1000; k < 1300; ++k) {
    cache.Admit(k);
  }
  EXPECT_EQ(cache.size(), 304u);
  const Key keys[] = {10, 20, 30, 40};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cache.Find(keys[i]), entries[i]);
    EXPECT_EQ(entries[i]->value, std::to_string(keys[i]));
  }
  SymmetricCache::Eviction ev;
  for (Key k = 1000; k < 1300; k += 2) {
    cache.Evict(k, &ev);
  }
  EXPECT_FALSE(cache.Evict(20, &ev));  // clean: nothing to flush
  cache.Admit(2000);                   // may reuse 20's slot
  EXPECT_EQ(cache.Find(10), entries[0]);
  EXPECT_EQ(cache.Find(30), entries[2]);
  EXPECT_EQ(cache.Find(40), entries[3]);
  EXPECT_EQ(entries[3]->value, "40");
  EXPECT_EQ(cache.Find(2000)->state(), CacheState::kFilling);
}

TEST(SymmetricCacheLayout, MembershipListsAreAscending) {
  SymmetricCache cache(64);
  std::vector<Key> hot;
  Rng rng(3);
  for (int i = 0; i < 64; ++i) {
    hot.push_back(rng.Next());
  }
  cache.InstallHotSet(hot);
  for (std::size_t i = 0; i < hot.size(); i += 3) {
    cache.Fill(hot[i], "x", Timestamp{1, 0});
  }
  const std::vector<Key> keys = cache.Keys();
  EXPECT_EQ(keys.size(), 64u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  const std::vector<Key> pending = cache.PendingFills();
  EXPECT_EQ(pending.size(), 64u - 22u);
  EXPECT_TRUE(std::is_sorted(pending.begin(), pending.end()));
}

TEST(SymmetricCacheLayout, InstallHotSetFlushesDirtyKeysInAscendingOrder) {
  SymmetricCache cache(8);
  const std::vector<Key> hot = {900, 5, 77, 3000, 41};
  cache.InstallHotSet(hot);
  for (const Key k : hot) {
    cache.Fill(k, "x", Timestamp{1, 0});
    cache.Find(k)->dirty = true;
  }
  const auto dirty = cache.InstallHotSet({77});
  ASSERT_EQ(dirty.size(), 4u);
  EXPECT_EQ(dirty[0].key, 5u);
  EXPECT_EQ(dirty[1].key, 41u);
  EXPECT_EQ(dirty[2].key, 900u);
  EXPECT_EQ(dirty[3].key, 3000u);
  EXPECT_EQ(cache.Keys(), std::vector<Key>{77});
}

}  // namespace
}  // namespace cckvs
