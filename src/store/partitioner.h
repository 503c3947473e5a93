// Key-to-node sharding (S12).
//
// The paper shards the dataset "using techniques such as consistent hashing"
// (§1).  Two interchangeable policies are provided: a consistent-hashing ring
// with virtual nodes (realistic, supports smooth resharding) and a plain modulo
// mapping (useful in tests where exact placement must be predictable).

#ifndef CCKVS_STORE_PARTITIONER_H_
#define CCKVS_STORE_PARTITIONER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/common/types.h"

namespace cckvs {

class Partitioner {
 public:
  virtual ~Partitioner() = default;
  virtual NodeId HomeOf(Key key) const = 0;
  virtual int num_nodes() const = 0;
};

// Exact `x % d` for a divisor fixed at construction, without a divide: a
// precomputed 128-bit reciprocal and four multiplies (Lemire, Kaser and Kurz,
// "Faster remainder by direct computation", 2019).  Bit-identical to `%` for
// every 64-bit x and every d >= 1.
class FastModulo {
 public:
  explicit FastModulo(std::uint64_t d) : m_(~Wide{0} / d + 1), d_(d) {}

  std::uint64_t operator()(std::uint64_t x) const {
    const Wide frac = m_ * x;  // fractional part of x / d, in 128-bit fixed point
    const Wide lo = static_cast<Wide>(static_cast<std::uint64_t>(frac)) * d_;
    const Wide hi = static_cast<Wide>(static_cast<std::uint64_t>(frac >> 64)) * d_;
    return static_cast<std::uint64_t>((hi + (lo >> 64)) >> 64);
  }

 private:
  using Wide = unsigned __int128;
  Wide m_;
  std::uint64_t d_;
};

class ModuloPartitioner final : public Partitioner {
 public:
  explicit ModuloPartitioner(int nodes);

  // Inline, so a caller holding the concrete type skips the virtual call.
  NodeId HomeOf(Key key) const override {
    return static_cast<NodeId>(mod_(HashKey(key)));
  }
  int num_nodes() const override { return nodes_; }

 private:
  int nodes_;
  FastModulo mod_;
};

// Consistent-hashing ring (Karger et al.) with `vnodes` virtual nodes per
// server.  HomeOf walks clockwise to the first vnode at or after hash(key).
class ConsistentHashRing final : public Partitioner {
 public:
  ConsistentHashRing(int nodes, int vnodes = 128, std::uint64_t seed = 1);

  NodeId HomeOf(Key key) const override;
  int num_nodes() const override { return nodes_; }

  // Ring surgery, for remapping tests: fraction of keys that move on node
  // add/remove should be ~1/N.
  void AddNode(NodeId node);
  void RemoveNode(NodeId node);

 private:
  struct VNode {
    std::uint64_t point;
    NodeId node;

    friend bool operator<(const VNode& a, const VNode& b) {
      if (a.point != b.point) {
        return a.point < b.point;
      }
      return a.node < b.node;
    }
  };

  void InsertVNodes(NodeId node);

  int nodes_;
  int vnodes_;
  std::uint64_t seed_;
  std::vector<VNode> ring_;
};

}  // namespace cckvs

#endif  // CCKVS_STORE_PARTITIONER_H_
