// One flat open-addressing Key -> uint32 index: the only linear-probing table
// in the tree.  The symmetric cache maps a key to its entry slot with it, the
// L1 tail to its value slot, and the Space-Saving sketch to its heap position.
//
// Layout: a power-of-two array of 16-byte cells {key, value}, so a probe
// compares keys in the array itself — no load through a slot id — and a
// cache line holds four cells.  The home cell is a multiplicative (Fibonacci)
// hash of the key, taking the product's top bits, so sequential and strided
// key sets spread over the table instead of forming one long cluster.  An
// empty cell is marked by value == kNone, so kNone is not a storable value.
//
// Deletion is by backward shift (Knuth 6.4, Algorithm R): the rest of the
// cluster is walked and every cell whose home no longer reaches it through
// the hole moves back.  There are no tombstones, so probe lengths do not
// degrade under invalidation- or replacement-heavy traffic.
//
// Positions are exposed (FindPos/value_at/EraseAt's move callback) so a
// caller can keep backlinks into the table; FlatSpaceSaving does, to make a
// heap swap two O(1) cell writes.  Grow() rehashes into twice the cells and
// moves every position, so callers that keep backlinks never call it; they
// size the table for their fixed capacity at construction and are then
// allocation-free.  Only the symmetric cache grows, when deferred evictions
// take it past its nominal capacity.

#ifndef CCKVS_COMMON_FLAT_KEY_INDEX_H_
#define CCKVS_COMMON_FLAT_KEY_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"

namespace cckvs {

class FlatKeyIndex {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;  // Find miss; empty cell
  static constexpr std::size_t kNoPos = static_cast<std::size_t>(-1);

  // Sized so `max_keys` keys fit at a load factor of at most 1/2.
  explicit FlatKeyIndex(std::size_t max_keys) { Reset(TableSizeFor(max_keys)); }

  // Position of `key`, or kNoPos when absent.
  std::size_t FindPos(Key key) const {
    for (std::size_t pos = Home(key);; pos = (pos + 1) & mask_) {
      const Cell& c = cells_[pos];
      if (c.value == kNone) {
        return kNoPos;
      }
      if (c.key == key) {
        return pos;
      }
    }
  }

  // Value stored for `key`, or kNone when absent.
  std::uint32_t Find(Key key) const {
    const std::size_t pos = FindPos(key);
    return pos == kNoPos ? kNone : cells_[pos].value;
  }

  // Inserts an absent `key`; returns its position.  The table must have room
  // (size() < max_size()): a full index is the caller's sizing bug.
  std::size_t Insert(Key key, std::uint32_t value) {
    CCKVS_DCHECK(value != kNone);
    CCKVS_DCHECK(FindPos(key) == kNoPos);
    CCKVS_CHECK_LT(size_, max_size());
    std::size_t pos = Home(key);
    while (cells_[pos].value != kNone) {
      pos = (pos + 1) & mask_;
    }
    cells_[pos] = Cell{key, value};
    ++size_;
    return pos;
  }

  // Removes the cell at `pos`.  on_move(value, new_pos) runs for every cell
  // the backward shift moves.
  template <typename OnMove>
  void EraseAt(std::size_t pos, OnMove&& on_move) {
    std::size_t hole = pos;
    for (std::size_t probe = (pos + 1) & mask_; cells_[probe].value != kNone;
         probe = (probe + 1) & mask_) {
      // The cell stays iff its home lies cyclically inside (hole, probe],
      // i.e. it is strictly closer to its home than the hole is.
      const std::size_t home = Home(cells_[probe].key);
      if (((probe - home) & mask_) >= ((probe - hole) & mask_)) {
        cells_[hole] = cells_[probe];
        on_move(cells_[hole].value, hole);
        hole = probe;
      }
    }
    cells_[hole].value = kNone;
    --size_;
  }
  void EraseAt(std::size_t pos) {
    EraseAt(pos, [](std::uint32_t, std::size_t) {});
  }

  // Rehashes into twice the cells.  Every position changes.
  void Grow() {
    std::vector<Cell> old = std::move(cells_);
    Reset(old.size() * 2);
    for (const Cell& c : old) {
      if (c.value != kNone) {
        Insert(c.key, c.value);
      }
    }
  }

  std::uint32_t value_at(std::size_t pos) const { return cells_[pos].value; }
  void set_value_at(std::size_t pos, std::uint32_t value) {
    CCKVS_DCHECK(cells_[pos].value != kNone && value != kNone);
    cells_[pos].value = value;
  }

  // fn(key, value) for every entry, in table order (layout-dependent: sort
  // the result wherever order is observable).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Cell& c : cells_) {
      if (c.value != kNone) {
        fn(c.key, c.value);
      }
    }
  }

  std::size_t size() const { return size_; }
  std::size_t max_size() const { return cells_.size() / 2; }
  std::size_t table_size() const { return cells_.size(); }
  // Home cell of `key` (tests build colliding key sets with it).
  std::size_t Home(Key key) const {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
  }

 private:
  struct Cell {
    Key key;
    std::uint32_t value;
  };

  static std::size_t TableSizeFor(std::size_t max_keys) {
    std::size_t n = 8;
    while (n < 2 * max_keys) {
      n <<= 1;
    }
    return n;
  }

  void Reset(std::size_t table_size) {
    cells_.assign(table_size, Cell{0, kNone});
    mask_ = table_size - 1;
    shift_ = 64;
    for (std::size_t n = table_size; n > 1; n >>= 1) {
      --shift_;
    }
    size_ = 0;
  }

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace cckvs

#endif  // CCKVS_COMMON_FLAT_KEY_INDEX_H_
