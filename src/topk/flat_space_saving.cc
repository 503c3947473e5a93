#include "src/topk/flat_space_saving.h"

#include <algorithm>

#include "src/common/check.h"

namespace cckvs {

FlatSpaceSaving::FlatSpaceSaving(std::size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1),
      index_(capacity_),
      index_pos_of_(capacity_, 0) {
  heap_.reserve(capacity_);
}

void FlatSpaceSaving::Swap(std::size_t a, std::size_t b) {
  const std::uint32_t pa = index_pos_of_[a];
  const std::uint32_t pb = index_pos_of_[b];
  std::swap(heap_[a], heap_[b]);
  index_.set_value_at(pa, static_cast<std::uint32_t>(b));
  index_.set_value_at(pb, static_cast<std::uint32_t>(a));
  index_pos_of_[a] = pb;
  index_pos_of_[b] = pa;
}

void FlatSpaceSaving::SiftUp(std::size_t heap_pos) {
  while (heap_pos > 0) {
    const std::size_t parent = (heap_pos - 1) / 2;
    if (heap_[parent].count <= heap_[heap_pos].count) {
      return;
    }
    Swap(parent, heap_pos);
    heap_pos = parent;
  }
}

void FlatSpaceSaving::SiftDown(std::size_t heap_pos) {
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t left = 2 * heap_pos + 1;
    if (left >= n) {
      return;
    }
    std::size_t smallest = left;
    const std::size_t right = left + 1;
    if (right < n && heap_[right].count < heap_[left].count) {
      smallest = right;
    }
    if (heap_[heap_pos].count <= heap_[smallest].count) {
      return;
    }
    Swap(heap_pos, smallest);
    heap_pos = smallest;
  }
}

std::uint64_t FlatSpaceSaving::Offer(Key key, std::uint64_t* guaranteed) {
  if (const std::uint32_t hp = index_.Find(key); hp != FlatKeyIndex::kNone) {
    Entry& e = heap_[hp];
    const std::uint64_t count = ++e.count;
    if (guaranteed != nullptr) {
      *guaranteed = count - e.error;
    }
    SiftDown(hp);  // count grew: may need to move away from the min root
    return count;
  }
  if (heap_.size() < capacity_) {
    const auto hp = static_cast<std::uint32_t>(heap_.size());
    heap_.push_back(Entry{key, 1, 0});  // within the reserve: no allocation
    index_pos_of_[hp] = static_cast<std::uint32_t>(index_.Insert(key, hp));
    SiftUp(hp);
    if (guaranteed != nullptr) {
      *guaranteed = 1;
    }
    return 1;
  }
  // Space-Saving replacement: the newcomer takes over the minimum counter
  // and inherits its count as the error bound.
  Entry& min = heap_[0];
  const std::size_t old_pos = index_pos_of_[0];
  CCKVS_CHECK(index_.value_at(old_pos) == 0);
  index_.EraseAt(old_pos, [this](std::uint32_t hp, std::size_t new_pos) {
    index_pos_of_[hp] = static_cast<std::uint32_t>(new_pos);
  });
  min.error = min.count;
  min.count += 1;
  min.key = key;
  index_pos_of_[0] = static_cast<std::uint32_t>(index_.Insert(key, 0));
  const std::uint64_t count = min.count;
  if (guaranteed != nullptr) {
    *guaranteed = 1;
  }
  SiftDown(0);
  return count;
}

void FlatSpaceSaving::DecayHalve() {
  // x -> x/2 is monotone, so the heap invariant survives untouched.
  for (Entry& e : heap_) {
    e.count /= 2;
    e.error /= 2;
  }
}

std::uint64_t FlatSpaceSaving::EstimateOf(Key key) const {
  const std::uint32_t hp = index_.Find(key);
  return hp == FlatKeyIndex::kNone ? 0 : heap_[hp].count;
}

std::vector<FlatSpaceSaving::Entry> FlatSpaceSaving::TopK(std::size_t k) const {
  std::vector<Entry> sorted = heap_;
  std::sort(sorted.begin(), sorted.end(), [](const Entry& a, const Entry& b) {
    return a.count != b.count ? a.count > b.count : a.key < b.key;
  });
  if (sorted.size() > k) {
    sorted.resize(k);
  }
  return sorted;
}

}  // namespace cckvs
