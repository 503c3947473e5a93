#include "src/cache/symmetric_cache.h"

#include <algorithm>

#include "src/common/check.h"

namespace cckvs {
namespace {

// Entries per pool chunk: the capacity rounded up to a power of two, within
// [8, 256], so small caches (tests, the model checker) allocate little and
// large ones grow past capacity a chunk of 256 entries at a time.
unsigned ChunkShiftFor(std::size_t capacity) {
  unsigned shift = 3;
  while (shift < 8 && (std::size_t{1} << shift) < capacity) {
    ++shift;
  }
  return shift;
}

}  // namespace

SymmetricCache::SymmetricCache(std::size_t capacity)
    : capacity_(capacity),
      index_(capacity),
      chunk_shift_(ChunkShiftFor(capacity)),
      chunk_mask_((1u << chunk_shift_) - 1) {
  CCKVS_CHECK_GE(capacity, 1u);
}

void SymmetricCache::Admit(Key key) {
  if (index_.FindPos(key) != FlatKeyIndex::kNoPos) {
    return;
  }
  if (free_.empty()) {
    // A new chunk; the old ones stay put, so resident entries never move.
    const auto base = static_cast<std::uint32_t>(chunks_.size() << chunk_shift_);
    chunks_.push_back(std::make_unique<CacheEntry[]>(chunk_mask_ + 1));
    for (std::uint32_t i = chunk_mask_ + 1; i-- > 0;) {
      free_.push_back(base + i);  // lowest slot on top
    }
  }
  if (index_.size() == index_.max_size()) {
    index_.Grow();
  }
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  index_.Insert(key, slot);  // the slot's entry is default: kFilling
}

void SymmetricCache::EraseAt(std::size_t pos) {
  const std::uint32_t slot = index_.value_at(pos);
  index_.EraseAt(pos);
  EntryAt(slot) = CacheEntry{};
  free_.push_back(slot);
}

void SymmetricCache::Fill(Key key, const Value& value, Timestamp ts) {
  CacheEntry* entry = Find(key);
  CCKVS_CHECK(entry != nullptr);
  // Fills never regress an entry that already advanced past the fill's
  // timestamp (a hot write may have raced ahead of the epoch fill).
  if (entry->state() == CacheState::kFilling) {
    entry->value = value;
    entry->value_ts = ts;
    entry->set_ts(ts);
    entry->set_state(CacheState::kValid);
    ++stats_.fills;
  }
}

std::vector<SymmetricCache::Eviction> SymmetricCache::InstallHotSet(
    const std::vector<Key>& keys) {
  CCKVS_CHECK_LE(keys.size(), capacity_);
  std::vector<Key> fresh = keys;
  std::sort(fresh.begin(), fresh.end());
  std::vector<Eviction> dirty;
  for (const Key key : Keys()) {
    if (std::binary_search(fresh.begin(), fresh.end(), key)) {
      continue;
    }
    const std::size_t pos = index_.FindPos(key);
    CacheEntry& entry = EntryAt(index_.value_at(pos));
    ++stats_.evictions;
    if (entry.dirty) {
      ++stats_.dirty_evictions;
      // Flush the installed (value, value_ts) pair: for entries in transient
      // states the header timestamp may belong to a newer, not-yet-installed
      // write, and pairing it with the old value would corrupt the shard.
      dirty.push_back(Eviction{key, std::move(entry.value), entry.value_ts});
    }
    EraseAt(pos);
  }
  for (const Key key : keys) {
    Admit(key);
  }
  return dirty;
}

bool SymmetricCache::Evict(Key key, Eviction* dirty_out) {
  const std::size_t pos = index_.FindPos(key);
  if (pos == FlatKeyIndex::kNoPos) {
    return false;
  }
  CacheEntry& entry = EntryAt(index_.value_at(pos));
  ++stats_.evictions;
  const bool dirty = entry.dirty;
  if (dirty) {
    ++stats_.dirty_evictions;
    // As in InstallHotSet: flush the installed (value, value_ts) pair, never
    // the header timestamp of a transient state.
    *dirty_out = Eviction{key, std::move(entry.value), entry.value_ts};
  }
  EraseAt(pos);
  return dirty;
}

std::vector<Key> SymmetricCache::Keys() const {
  std::vector<Key> keys;
  keys.reserve(index_.size());
  index_.ForEach([&keys](Key key, std::uint32_t) { keys.push_back(key); });
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<Key> SymmetricCache::PendingFills() const {
  std::vector<Key> pending;
  index_.ForEach([this, &pending](Key key, std::uint32_t slot) {
    if (EntryAt(slot).state() == CacheState::kFilling) {
      pending.push_back(key);
    }
  });
  std::sort(pending.begin(), pending.end());
  return pending;
}

}  // namespace cckvs
