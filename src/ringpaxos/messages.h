// Ring Paxos message set (Section III-B, Figure 3):
//
//  * Phase 2A is ip-multicast by the coordinator and carries the client
//    values (a batch), the value-ID consensus is executed on, and
//    piggybacked decisions of earlier instances;
//  * Phase 2B is a small message forwarded along the logical ring, each
//    acceptor appending its vote; the coordinator at the end of the ring
//    learns the outcome;
//  * explicit Decision messages are only flushed when there is no Phase
//    2A traffic to piggyback on;
//  * learner/acceptor recovery and coordinator fail-over messages.
//
// All messages carry the RingId so one node (e.g. a Multi-Ring learner
// or a shared spare acceptor) can participate in several rings.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "common/message.h"
#include "common/types.h"
#include "paxos/value.h"

namespace mrp::ringpaxos {

// Decode cap on a ring layout's member count.
inline constexpr std::uint64_t kMaxLayout = 10'000;

// Base for every Ring Paxos message: tagged with the ring it belongs to.
// Its subclasses are exactly the "ring." kinds, so AsRingMessage() is a
// kind test.
struct RingMessage : MessageBase {
  RingId ring = 0;

 protected:
  explicit RingMessage(MsgKind kind, RingId r = 0) : MessageBase(kind), ring(r) {}
};

// Ring-scoped kinds by tag: those named "ring.*".
inline constexpr auto kRingKinds = [] {
  std::array<bool, 256> ring{};
  for (MsgKind k : kMessageKinds) {
    ring[static_cast<std::uint8_t>(k)] = std::string_view(KindName(k)).starts_with("ring.");
  }
  return ring;
}();

constexpr bool IsRingKind(MsgKind k) { return kRingKinds[static_cast<std::uint8_t>(k)]; }

// The message as a RingMessage, or nullptr if it is not ring-scoped.
inline const RingMessage* AsRingMessage(const MessagePtr& m) {
  return m != nullptr && IsRingKind(m->kind()) ? static_cast<const RingMessage*>(m.get())
                                                : nullptr;
}

template <class T, MsgKind K>
using RingMsg = Message<T, K, RingMessage>;

// (instance, value-ID) pair announcing a decision.
struct Decided {
  InstanceId instance = 0;
  ValueId vid = kNoValueId;
  MRP_FIELDS(instance, vid)
};

// Proposer -> coordinator: submit one client message for ordering.
struct Submit final : RingMsg<Submit, MsgKind::kRingSubmit> {
  paxos::ClientMsg msg;

  Submit() = default;
  Submit(RingId r, paxos::ClientMsg m) : Message(r), msg(std::move(m)) {}
  MRP_FIELDS(ring, msg)
};

// Coordinator -> proposer: all messages from `group` with seq <=
// `up_to_seq` have been decided (releases the proposer's window).
struct SubmitAck final : RingMsg<SubmitAck, MsgKind::kRingSubmitAck> {
  GroupId group = 0;
  std::uint64_t up_to_seq = 0;

  SubmitAck() = default;
  SubmitAck(RingId r, GroupId g, std::uint64_t seq)
      : Message(r), group(g), up_to_seq(seq) {}
  MRP_FIELDS(ring, group, up_to_seq)
};

// Phase 2A, ip-multicast on the ring's data channel. `layout` is the
// ring order for `round`, layout[0] being the coordinator.
struct P2A final : RingMsg<P2A, MsgKind::kRingP2A> {
  Round round = 0;
  InstanceId instance = 0;
  ValueId vid = kNoValueId;
  paxos::Value value;
  std::vector<Decided> decided;  // piggybacked decisions
  std::vector<NodeId> layout;

  P2A() = default;
  P2A(RingId r, Round rnd, InstanceId inst, ValueId v, paxos::Value val,
      std::vector<Decided> dec, std::vector<NodeId> lay)
      : Message(r),
        round(rnd),
        instance(inst),
        vid(v),
        value(std::move(val)),
        decided(std::move(dec)),
        layout(std::move(lay)) {}
  MRP_FIELDS(ring, round, instance, vid, value, decided,
             wire::AtMost<kMaxLayout>(layout))
};

// Phase 2B, forwarded along the ring. `votes` counts the acceptors
// (excluding the coordinator) that accepted (round, instance, vid).
struct P2B final : RingMsg<P2B, MsgKind::kRingP2B> {
  Round round = 0;
  InstanceId instance = 0;
  ValueId vid = kNoValueId;
  std::uint32_t votes = 0;

  P2B() = default;
  P2B(RingId r, Round rnd, InstanceId inst, ValueId v, std::uint32_t n)
      : Message(r), round(rnd), instance(inst), vid(v), votes(n) {}
  MRP_FIELDS(ring, round, instance, vid, votes)
};

// Standalone decision announcement (flushed when no P2A piggyback is
// available within the flush interval).
struct DecisionMsg final : RingMsg<DecisionMsg, MsgKind::kRingDecision> {
  std::vector<Decided> decided;

  DecisionMsg() = default;
  DecisionMsg(RingId r, std::vector<Decided> dec) : Message(r), decided(std::move(dec)) {}
  MRP_FIELDS(ring, decided)
};

// Phase 1A for every instance >= from_instance (multi-instance Phase 1,
// pre-executed by a new coordinator). Unicast to all universe members.
struct P1A final : RingMsg<P1A, MsgKind::kRingP1A> {
  Round round = 0;
  InstanceId from_instance = 0;
  std::vector<NodeId> layout;  // ring order the coordinator will use

  P1A() = default;
  P1A(RingId r, Round rnd, InstanceId from, std::vector<NodeId> lay)
      : Message(r), round(rnd), from_instance(from), layout(std::move(lay)) {}
  MRP_FIELDS(ring, round, from_instance, wire::AtMost<kMaxLayout>(layout))
};

// Promise with every accepted value at instance >= from.
struct P1B final : RingMsg<P1B, MsgKind::kRingP1B> {
  struct Entry {
    InstanceId instance = 0;
    Round vrnd = 0;
    paxos::Value value;
    MRP_FIELDS(instance, vrnd, value)
  };
  Round round = 0;
  std::vector<Entry> accepted;

  P1B() = default;
  P1B(RingId r, Round rnd, std::vector<Entry> acc)
      : Message(r), round(rnd), accepted(std::move(acc)) {}
  MRP_FIELDS(ring, round, accepted)
};

// Coordinator liveness + identity, multicast on the control channel.
struct Heartbeat final : RingMsg<Heartbeat, MsgKind::kRingHeartbeat> {
  Round round = 0;
  NodeId coordinator = kNoNode;

  Heartbeat() = default;
  Heartbeat(RingId r, Round rnd, NodeId c) : Message(r), round(rnd), coordinator(c) {}
  MRP_FIELDS(ring, round, coordinator)
};

// Ring member -> coordinator, in response to Heartbeat.
struct HeartbeatAck final : RingMsg<HeartbeatAck, MsgKind::kRingHeartbeatAck> {
  Round round = 0;

  HeartbeatAck() = default;
  HeartbeatAck(RingId r, Round rnd) : Message(r), round(rnd) {}
  MRP_FIELDS(ring, round)
};

// Learner -> preferential acceptor: retransmit decided values starting
// at `from_instance` (Ring Paxos loss recovery).
struct LearnReq final : RingMsg<LearnReq, MsgKind::kRingLearnReq> {
  InstanceId from_instance = 0;
  std::uint32_t max_values = 0;

  LearnReq() = default;
  LearnReq(RingId r, InstanceId from, std::uint32_t max)
      : Message(r), from_instance(from), max_values(max) {}
  MRP_FIELDS(ring, from_instance, max_values)
};

// Acceptor -> learner: decided (instance, vid, value) triples.
struct LearnRep final : RingMsg<LearnRep, MsgKind::kRingLearnRep> {
  struct Entry {
    InstanceId instance = 0;
    ValueId vid = kNoValueId;
    paxos::Value value;
    MRP_FIELDS(instance, vid, value)
  };
  std::vector<Entry> entries;

  LearnRep() = default;
  LearnRep(RingId r, std::vector<Entry> es) : Message(r), entries(std::move(es)) {}
  MRP_FIELDS(ring, entries)
};

// Acceptor -> learner: the requested instances were trimmed from the
// acceptor's log. The decided stream is only replayable within
// [low_watermark, high_watermark]; a late-joining learner fast-forwards
// into that window — to its midpoint, keeping half the retention as
// replayable history and half as headroom against the moving trim point
// (applications recover earlier state via snapshots, see smr::Replica).
struct TrimNotice final : RingMsg<TrimNotice, MsgKind::kRingTrimNotice> {
  InstanceId low_watermark = 0;
  InstanceId high_watermark = 0;

  TrimNotice() = default;
  TrimNotice(RingId r, InstanceId low, InstanceId high)
      : Message(r), low_watermark(low), high_watermark(high) {}
  MRP_FIELDS(ring, low_watermark, high_watermark)
};

// Delivery acknowledgement, learner -> proposer (used by windowed
// proposers; see the Figure 12 experiment, where the live ring throttles
// because the stalled learner stops acking).
struct DeliveryAck final : RingMsg<DeliveryAck, MsgKind::kRingDeliveryAck> {
  GroupId group = 0;
  std::uint64_t seq = 0;

  DeliveryAck() = default;
  DeliveryAck(RingId r, GroupId g, std::uint64_t s) : Message(r), group(g), seq(s) {}
  MRP_FIELDS(ring, group, seq)
};

}  // namespace mrp::ringpaxos
