// Runtime control-plane messages: distributed termination for every live
// rack, in one process or many.
//
// A node that has halted can still be handed work — a late epoch announce,
// an invalidation to ack, a credit-parked send to release — so no node can
// decide alone that the rack is done.  Node 0 certifies global quiescence
// with the classic four-counter termination detection over FIFO channels:
//
//   * node 0, once locally quiescent, broadcasts TermProbeMsg{round} at most
//     once per 200 µs;
//   * every node, once it has halted, answers with TermStatusMsg{round,
//     done, sent, processed}, where `done` is recomputed for each answer
//     (sessions idle, nothing parked, nothing credit-parked or in an open
//     batch, engine quiescent) and `sent`/`processed` count data messages
//     only (Term* traffic is excluded, or the counts would chase their own
//     tail);
//   * node 0 declares termination when two consecutive rounds return
//     identical per-node counts, every node reports done, and the global
//     sums match (sum sent == sum processed).  With per-peer FIFO lanes a
//     data message still in flight is counted in some sender's `sent` but in
//     no receiver's `processed`, so the sums cannot match twice in a row —
//     and a message processed between the rounds changes the snapshot.
//   * TermHaltMsg releases everyone: histories are sealed, the run is over.
//     The halt and each node's last flush ship at once, even under a flush
//     deadline, since no later wakeup would ship them.
//
// Term messages ride the normal transport lanes uncredited (like acks): at
// most one probe/status per peer is outstanding per round, so the §6.3
// channel bounds still hold with a constant slack.

#ifndef CCKVS_RUNTIME_CONTROL_MESSAGES_H_
#define CCKVS_RUNTIME_CONTROL_MESSAGES_H_

#include <cstdint>

#include "src/common/types.h"

namespace cckvs {

// Node 0 -> everyone: report your termination counters for `round`.
struct TermProbeMsg {
  std::uint32_t round = 0;
};

// Everyone -> node 0: local quiescence + data-message counters, sent once the
// node has halted, in answer to the probe for `round`.
struct TermStatusMsg {
  std::uint32_t round = 0;
  NodeId rank = 0;
  bool done = false;
  std::uint64_t sent = 0;       // data messages committed to delivery
  std::uint64_t processed = 0;  // data messages whose handler completed
};

// Node 0 -> everyone: the rack is globally quiescent; stop pumping.
struct TermHaltMsg {
  std::uint32_t round = 0;  // the round that proved termination
};

}  // namespace cckvs

#endif  // CCKVS_RUNTIME_CONTROL_MESSAGES_H_
