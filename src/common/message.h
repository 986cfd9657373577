// Protocol messages. A message is one struct: it derives from
// Message<Self, kind> and lists its fields once, in wire order, with
// MRP_FIELDS (common/wire.h):
//
//   struct Phase2B final : Message<Phase2B, MsgKind::kPaxosP2B> {
//     InstanceId instance = 0;
//     Round round = 0;
//
//     Phase2B() = default;  // decoding fills a default-constructed one
//     Phase2B(InstanceId i, Round r) : instance(i), round(r) {}
//     MRP_FIELDS(instance, round)
//   };
//
// Everything else is derived from that declaration and the kind's row
// in MRP_MESSAGE_KINDS below: the wire encoding and decoding
// (net/codec.cc), WireSize() — what the simulator's bandwidth and CPU
// model charges, equal to the encoded length — TypeName(), and Cast<T>,
// which compares kind tags. Messages are immutable once sent and shared
// (shared_ptr<const ...>), so an ip-multicast delivers one allocation
// to every subscriber.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/wire.h"

namespace mrp {

// Every message kind: X(enumerator, tag, type name). The tag is the
// first byte of the message's wire frame; never renumber one. Tags
// below kFirstSimOnlyKind are wire messages (net/codec.cc encodes
// exactly these); the simulator-only baselines take tags from
// kFirstSimOnlyKind; test and benchmark messages take TestKind(i).
#define MRP_MESSAGE_KINDS(X)                                      \
  /* Ring Paxos (src/ringpaxos); "ring." kinds are RingMessages */ \
  X(kRingSubmit, 1, "ring.Submit")                                \
  X(kRingSubmitAck, 2, "ring.SubmitAck")                          \
  X(kRingP2A, 3, "ring.P2A")                                      \
  X(kRingP2B, 4, "ring.P2B")                                      \
  X(kRingDecision, 5, "ring.Decision")                            \
  X(kRingP1A, 6, "ring.P1A")                                      \
  X(kRingP1B, 7, "ring.P1B")                                      \
  X(kRingHeartbeat, 8, "ring.Heartbeat")                          \
  X(kRingHeartbeatAck, 9, "ring.HeartbeatAck")                    \
  X(kRingLearnReq, 10, "ring.LearnReq")                           \
  X(kRingLearnRep, 11, "ring.LearnRep")                           \
  X(kRingDeliveryAck, 12, "ring.DeliveryAck")                     \
  X(kSmrResponse, 13, "smr.Response")                             \
  X(kRingTrimNotice, 14, "ring.TrimNotice")                       \
  X(kSmrSnapshotReq, 15, "smr.SnapshotReq")                       \
  X(kSmrSnapshotRep, 16, "smr.SnapshotRep")                       \
  /* Checkpoint and recovery (src/recovery) */                    \
  X(kSnapshotRequest, 17, "recovery.SnapshotRequest")             \
  X(kSnapshotChunk, 18, "recovery.SnapshotChunk")                 \
  X(kSnapshotDone, 19, "recovery.SnapshotDone")                   \
  /* Classic Paxos (src/paxos) */                                 \
  X(kPaxosSubmit, 20, "paxos.Submit")                             \
  X(kPaxosP1A, 21, "paxos.P1A")                                   \
  X(kPaxosP1B, 22, "paxos.P1B")                                   \
  X(kPaxosP2A, 23, "paxos.P2A")                                   \
  X(kPaxosP2B, 24, "paxos.P2B")                                   \
  X(kPaxosDecision, 25, "paxos.Decision")                         \
  X(kPaxosLearnReq, 26, "paxos.LearnReq")                         \
  X(kCheckpointRequest, 27, "recovery.CheckpointRequest")         \
  X(kCheckpointReport, 28, "recovery.CheckpointReport")           \
  X(kFrontierAdvert, 29, "recovery.FrontierAdvert")               \
  /* Sessions (src/session) */                                    \
  X(kLeaseGrant, 30, "session.LeaseGrant")                        \
  X(kLeaseAck, 31, "session.LeaseAck")                            \
  X(kLeaseRevoke, 32, "session.LeaseRevoke")                      \
  X(kSessionRead, 33, "session.SessionRead")                      \
  X(kSessionReadRep, 34, "session.SessionReadRep")                \
  X(kSessionRejected, 35, "session.Rejected")                     \
  /* Elastic reconfiguration (src/reconfig) */                    \
  X(kRoutingUpdate, 36, "reconfig.RoutingUpdate")                 \
  X(kHandoffRequest, 37, "reconfig.HandoffRequest")               \
  X(kPlanStatus, 38, "reconfig.PlanStatus")                       \
  /* Simulator-only baselines (src/baselines) */                  \
  X(kMenciusSubmit, 100, "mencius.Submit")                        \
  X(kMenciusPropose, 101, "mencius.Propose")                      \
  X(kMenciusAck, 102, "mencius.Ack")                              \
  X(kMenciusCommit, 103, "mencius.Commit")                        \
  X(kLcrData, 104, "lcr.Data")                                    \
  X(kLcrSubmit, 105, "lcr.Submit")                                \
  X(kLcrAck, 106, "lcr.Ack")                                      \
  X(kTotemSend, 107, "totem.Send")                                \
  X(kTotemData, 108, "totem.Data")                                \
  X(kTotemDeliver, 109, "totem.Deliver")                          \
  X(kTotemNack, 110, "totem.Nack")                                \
  X(kTotemToken, 111, "totem.Token")

enum class MsgKind : std::uint8_t {
#define MRP_KIND_ENUM(e, tag, name) e = tag,
  MRP_MESSAGE_KINDS(MRP_KIND_ENUM)
#undef MRP_KIND_ENUM
};

inline constexpr std::uint8_t kFirstSimOnlyKind = 100;
inline constexpr std::uint8_t kFirstTestKind = 200;

// Kinds for messages defined in tests and benchmarks; each such message
// takes its own i.
constexpr MsgKind TestKind(std::uint8_t i) {
  return MsgKind(kFirstTestKind + i);
}

inline constexpr MsgKind kMessageKinds[] = {
#define MRP_KIND_VALUE(e, tag, name) MsgKind::e,
    MRP_MESSAGE_KINDS(MRP_KIND_VALUE)
#undef MRP_KIND_VALUE
};

// Type names by tag: a listed kind's name, "test" for the test range,
// nullptr for an unassigned tag.
inline constexpr auto kKindNames = [] {
  std::array<const char*, 256> names{};
  for (std::size_t t = kFirstTestKind; t < names.size(); ++t) names[t] = "test";
#define MRP_KIND_NAME(e, tag, name) names[tag] = name;
  MRP_MESSAGE_KINDS(MRP_KIND_NAME)
#undef MRP_KIND_NAME
  return names;
}();

constexpr const char* KindName(MsgKind k) {
  return kKindNames[static_cast<std::uint8_t>(k)];
}
constexpr bool IsKnownKind(MsgKind k) { return KindName(k) != nullptr; }
constexpr bool IsWireKind(MsgKind k) {
  return IsKnownKind(k) && static_cast<std::uint8_t>(k) < kFirstSimOnlyKind;
}

// Largest WireSize() a transport must carry. UDP sends one message per
// datagram and drops anything larger, so builders of variable-size
// messages (ringpaxos::LearnRep) stop before they would exceed it.
inline constexpr std::size_t kMaxWireMessage = 60 * 1024;

class MessageBase {
 public:
  virtual ~MessageBase() = default;

  MsgKind kind() const { return kind_; }

  // Stable name for tracing/debugging: the kind's name.
  const char* TypeName() const { return KindName(kind_); }

  // Serialized size in bytes — the kind byte plus the fields — as it
  // would appear on the wire. Used for bandwidth and CPU accounting.
  virtual std::size_t WireSize() const = 0;

 protected:
  explicit MessageBase(MsgKind kind) : kind_(kind) {}

 private:
  MsgKind kind_;
};

// CRTP base of every concrete message T of kind K. `Base` is
// MessageBase or an intermediate base (ringpaxos::RingMessage) whose
// constructor takes the kind first.
template <class T, MsgKind K, class Base = MessageBase>
class Message : public Base {
 public:
  static_assert(IsKnownKind(K),
                "add the kind to MRP_MESSAGE_KINDS or use TestKind()");
  static constexpr MsgKind kKind = K;

  std::size_t WireSize() const final {
    return 1 + wire::Size(static_cast<const T&>(*this));
  }

 protected:
  template <class... BaseArgs>
  explicit Message(BaseArgs&&... args)
      : Base(K, std::forward<BaseArgs>(args)...) {}
};

using MessagePtr = std::shared_ptr<const MessageBase>;

// Downcast helper: returns nullptr if the message is not a T.
template <typename T>
const T* Cast(const MessagePtr& m) {
  if (m == nullptr || m->kind() != T::kKind) return nullptr;
  return static_cast<const T*>(m.get());
}

template <typename T, typename... Args>
MessagePtr MakeMessage(Args&&... args) {
  return std::make_shared<const T>(std::forward<Args>(args)...);
}

}  // namespace mrp
