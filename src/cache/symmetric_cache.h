// The symmetric cache (§4, §6.2 — substrate S6).
//
// Every node holds an identical cache of the globally hottest keys.  Because
// membership is symmetric, a node learns whether *any* node caches a key by
// probing its own cache — no directory, no sharer tracking.  Caches are
// write-back: hot writes update only the caches; the home KVS shard is updated
// when a dirty key is evicted at an epoch change.
//
// Layout fidelity: each cached object carries the paper's 8-byte metadata header
// (§6.2): consistency state (1 B, Lin only), spinlock (1 B), last writer id
// (1 B), received-ack counter (1 B), version = Lamport clock (4 B).  The extra
// transient-write bookkeeping a real node keeps in thread-private structures
// (pending/shadow values) lives beside the header.
//
// Index and storage: the shared FlatKeyIndex (common/flat_key_index.h), the
// same probing code the L1 tier and the Space-Saving sketch use, maps each
// key to a slot of a chunked entry pool.  Chunks are allocated on demand and
// never move or shrink, and a slot keeps its entry while the key is resident,
// so a Find pointer stays valid across Admit past capacity_ (deferred
// evictions) and across the eviction of other keys; freed slots are recycled
// LIFO.  A probe is one multiplicative hash and a scan of 16-byte {key, slot}
// cells.
//
// Concurrency: within the rack simulation a node's engine is serialized by the
// event loop, so cache operations here are not internally locked; the CRCW
// seqlock data path the paper measures is implemented (and stress-tested) in
// store::Partition.

#ifndef CCKVS_CACHE_SYMMETRIC_CACHE_H_
#define CCKVS_CACHE_SYMMETRIC_CACHE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/flat_key_index.h"
#include "src/common/types.h"

namespace cckvs {

// Consistency state of a cached object (§5.2).  kValid is the only stable
// state; kInvalid and kWrite are the two transient states of the Lin protocol.
// kFilling marks a key admitted to the hot set whose value has not arrived yet.
enum class CacheState : std::uint8_t {
  kValid = 0,
  kInvalid = 1,
  kWrite = 2,
  kFilling = 3,
};

inline const char* ToString(CacheState s) {
  switch (s) {
    case CacheState::kValid:
      return "Valid";
    case CacheState::kInvalid:
      return "Invalid";
    case CacheState::kWrite:
      return "Write";
    case CacheState::kFilling:
      return "Filling";
  }
  return "?";
}

// The 8-byte per-object metadata header of §6.2.
struct CacheEntryHeader {
  std::uint8_t state = static_cast<std::uint8_t>(CacheState::kFilling);
  std::uint8_t lock = 0;       // spinlock byte of the seqlock mechanism
  NodeId last_writer = 0;      // id of the last writer (timestamp tie-break)
  std::uint8_t ack_count = 0;  // received acknowledgements (Lin only)
  std::uint32_t version = 0;   // Lamport clock; doubles as the seqlock version
};
static_assert(sizeof(CacheEntryHeader) == 8, "header must stay 8 bytes (§6.2)");

struct CacheEntry {
  CacheEntryHeader header;
  Value value;
  // Timestamp of `value`.  The header's Lamport clock can run ahead of the
  // installed value while the entry is Invalid/Write (the protocol has already
  // promised a newer write); write-back flushes must pair the value with the
  // timestamp it was written at, never with the promised one.
  Timestamp value_ts{};
  bool dirty = false;  // write-back: home shard is stale until eviction flush

  // --- Lin transient-write bookkeeping (engine-owned) ---
  bool write_in_flight = false;  // this node's write awaits acks
  Timestamp pending_ts{};        // timestamp of the in-flight write
  Value pending_value;           // its value
  bool superseded = false;       // a higher-ts invalidation overtook the write
  bool has_shadow = false;       // a higher-ts update arrived mid-write
  Timestamp shadow_ts{};
  Value shadow_value;

  Timestamp ts() const { return Timestamp{header.version, header.last_writer}; }
  void set_ts(Timestamp t) {
    header.version = t.clock;
    header.last_writer = t.writer;
  }
  CacheState state() const { return static_cast<CacheState>(header.state); }
  void set_state(CacheState s) { header.state = static_cast<std::uint8_t>(s); }
};

struct CacheStats {
  std::uint64_t probes = 0;
  std::uint64_t hits = 0;    // probe found the key in the hot set
  std::uint64_t misses = 0;  // probe did not
  std::uint64_t fills = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_evictions = 0;
};

class SymmetricCache {
 public:
  explicit SymmetricCache(std::size_t capacity);

  // Hot-set membership probe (counted in stats).
  bool Probe(Key key) const {
    ++stats_.probes;
    if (index_.FindPos(key) != FlatKeyIndex::kNoPos) {
      ++stats_.hits;
      return true;
    }
    ++stats_.misses;
    return false;
  }

  // Entry access; nullptr when the key is not in the hot set.  Does not count
  // as a probe.
  CacheEntry* Find(Key key) {
    const std::uint32_t slot = index_.Find(key);
    return slot == FlatKeyIndex::kNone ? nullptr : &EntryAt(slot);
  }
  const CacheEntry* Find(Key key) const {
    const std::uint32_t slot = index_.Find(key);
    return slot == FlatKeyIndex::kNone ? nullptr : &EntryAt(slot);
  }

  // Installs the value of a hot key (initial fill or epoch fill).
  void Fill(Key key, const Value& value, Timestamp ts);

  // A dirty entry evicted from the hot set, to be flushed to its home shard.
  struct Eviction {
    Key key;
    Value value;
    Timestamp ts;
  };

  // Replaces the hot set.  Keys leaving the set are evicted (dirty ones are
  // returned for write-back, §4, in ascending key order); keys entering start
  // in kFilling until Fill() provides their value.  Returns the dirty
  // evictions.
  std::vector<Eviction> InstallHotSet(const std::vector<Key>& keys);

  // Per-key membership primitives, used by the epoch machinery
  // (topk::HotSetManager) so protocol-unsafe evictions can be deferred while
  // the rest of a transition proceeds.  Admit does not enforce capacity_: a
  // node holding deferred evictions transiently exceeds it by their count.
  void Admit(Key key);  // no-op if present; enters in kFilling
  // Removes `key` (no-op if absent).  Returns true and fills *dirty_out when
  // the departing entry carried an unflushed write.
  bool Evict(Key key, Eviction* dirty_out);

  // Current membership, in ascending key order (callers that act on every
  // member, such as an epoch's evictions, must not depend on index layout).
  std::vector<Key> Keys() const;

  // Keys currently in kFilling state (need a fetch from their home shard),
  // ascending.
  std::vector<Key> PendingFills() const;

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return index_.size(); }
  const CacheStats& stats() const { return stats_; }

 private:
  CacheEntry& EntryAt(std::uint32_t slot) {
    return chunks_[slot >> chunk_shift_][slot & chunk_mask_];
  }
  const CacheEntry& EntryAt(std::uint32_t slot) const {
    return chunks_[slot >> chunk_shift_][slot & chunk_mask_];
  }
  // Removes the entry at index position `pos`; its slot is reset and freed.
  void EraseAt(std::size_t pos);

  std::size_t capacity_;
  FlatKeyIndex index_;  // key -> pool slot
  unsigned chunk_shift_;
  std::uint32_t chunk_mask_;
  std::vector<std::unique_ptr<CacheEntry[]>> chunks_;
  std::vector<std::uint32_t> free_;  // LIFO free slots of allocated chunks
  mutable CacheStats stats_;
};

}  // namespace cckvs

#endif  // CCKVS_CACHE_SYMMETRIC_CACHE_H_
