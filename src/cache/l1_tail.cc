#include "src/cache/l1_tail.h"

#include "src/common/check.h"

namespace cckvs {

L1TailCache::L1TailCache(std::size_t capacity, L1Policy policy,
                         std::uint32_t value_bytes)
    : capacity_(capacity > 0 ? capacity : 1),
      policy_(MakeReplacementPolicy(policy, capacity_)),
      index_(capacity_),
      keys_(capacity_, 0),
      ts_(capacity_) {
  values_.resize(capacity_);
  free_.reserve(capacity_);
  for (std::size_t s = capacity_; s-- > 0;) {
    // Prewarm every value slot so steady-state fills assign in place.
    values_[s].reserve(value_bytes);
    free_.push_back(static_cast<std::uint32_t>(s));
  }
}

void L1TailCache::EraseAt(std::size_t pos) {
  const std::uint32_t slot = index_.value_at(pos);
  index_.EraseAt(pos);
  policy_->OnErase(slot);
  values_[slot].clear();  // keeps the reservation; drops the stale bytes
  free_.push_back(slot);
}

bool L1TailCache::Get(Key key, Value* value, Timestamp* ts) {
  const std::uint32_t slot = index_.Find(key);
  if (slot == FlatKeyIndex::kNone) {
    ++stats_.misses;
    return false;
  }
  value->assign(values_[slot]);
  *ts = ts_[slot];
  policy_->OnAccess(slot);
  ++stats_.hits;
  return true;
}

bool L1TailCache::Contains(Key key) const {
  return index_.FindPos(key) != FlatKeyIndex::kNoPos;
}

bool L1TailCache::PeekTimestamp(Key key, Timestamp* ts) const {
  const std::uint32_t slot = index_.Find(key);
  if (slot == FlatKeyIndex::kNone) {
    return false;
  }
  *ts = ts_[slot];
  return true;
}

void L1TailCache::Fill(Key key, const Value& value, Timestamp ts) {
  if (const std::uint32_t slot = index_.Find(key); slot != FlatKeyIndex::kNone) {
    // Refresh in place: a newer authoritative read for an already-resident
    // key (e.g. re-admission racing an invalidation).
    values_[slot].assign(value);
    ts_[slot] = ts;
    policy_->OnAccess(slot);
    ++stats_.fills;
    return;
  }
  if (free_.empty()) {
    const std::size_t pos = index_.FindPos(keys_[policy_->Victim()]);
    CCKVS_CHECK(pos != FlatKeyIndex::kNoPos);
    EraseAt(pos);
    ++stats_.evictions;
  }
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  keys_[slot] = key;
  values_[slot].assign(value);
  ts_[slot] = ts;
  index_.Insert(key, slot);
  policy_->OnInsert(slot);
  ++stats_.fills;
}

bool L1TailCache::Invalidate(Key key) {
  const std::size_t pos = index_.FindPos(key);
  if (pos == FlatKeyIndex::kNoPos) {
    return false;
  }
  EraseAt(pos);
  ++stats_.invalidations;
  return true;
}

std::vector<Key> L1TailCache::Keys() const {
  std::vector<Key> keys;
  keys.reserve(index_.size());
  index_.ForEach([&keys](Key key, std::uint32_t) { keys.push_back(key); });
  return keys;
}

}  // namespace cckvs
