#include "net/codec.h"

#include <array>
#include <cstdint>
#include <tuple>
#include <type_traits>

#include "paxos/messages.h"
#include "reconfig/messages.h"
#include "recovery/messages.h"
#include "ringpaxos/messages.h"
#include "session/messages.h"
#include "smr/command.h"

namespace mrp::net {
namespace {

// Every wire message. A frame is the message's kind tag (one byte), then
// its fields as declared by MRP_FIELDS (common/wire.h).
using WireMessages = std::tuple<
    ringpaxos::Submit, ringpaxos::SubmitAck, ringpaxos::P2A, ringpaxos::P2B,
    ringpaxos::DecisionMsg, ringpaxos::P1A, ringpaxos::P1B,
    ringpaxos::Heartbeat, ringpaxos::HeartbeatAck, ringpaxos::LearnReq,
    ringpaxos::LearnRep, ringpaxos::DeliveryAck, ringpaxos::TrimNotice,
    smr::Response, smr::SnapshotReq, smr::SnapshotRep,
    recovery::SnapshotRequest, recovery::SnapshotChunk, recovery::SnapshotDone,
    recovery::CheckpointRequest, recovery::CheckpointReport,
    recovery::FrontierAdvert, paxos::SubmitReq, paxos::Phase1A,
    paxos::Phase1B, paxos::Phase2A, paxos::Phase2B, paxos::DecisionMsg,
    paxos::LearnReq, session::LeaseGrant, session::LeaseAck,
    session::LeaseRevoke, session::SessionRead, session::SessionReadRep,
    session::Rejected, reconfig::RoutingUpdate, reconfig::HandoffRequest,
    reconfig::PlanStatus>;

template <class T>
void EncodeAs(ByteWriter& w, const MessageBase& m) {
  wire::Put(w, static_cast<const T&>(m));
}

template <class T>
MessagePtr DecodeAs(ByteReader& r) {
  auto m = std::make_shared<T>();
  if (!wire::Get(r, *m)) return nullptr;
  return m;
}

struct KindCodec {
  void (*encode)(ByteWriter&, const MessageBase&) = nullptr;
  MessagePtr (*decode)(ByteReader&) = nullptr;
};

template <class... T>
constexpr auto MakeCodecs(std::type_identity<std::tuple<T...>>) {
  std::array<KindCodec, 256> codecs{};
  ((codecs[static_cast<std::uint8_t>(T::kKind)] = {&EncodeAs<T>, &DecodeAs<T>}),
   ...);
  return codecs;
}

template <class... T>
constexpr bool OneTypePerWireKind(std::type_identity<std::tuple<T...>>) {
  std::array<int, 256> types{};
  ((++types[static_cast<std::uint8_t>(T::kKind)]), ...);
  for (std::size_t tag = 0; tag < types.size(); ++tag) {
    if (types[tag] != (IsWireKind(MsgKind(tag)) ? 1 : 0)) return false;
  }
  return true;
}
static_assert(OneTypePerWireKind(std::type_identity<WireMessages>{}),
              "WireMessages must list exactly one type per wire kind");

// Indexed by kind tag; null entries are not on the wire.
constexpr auto kCodecs = MakeCodecs(std::type_identity<WireMessages>{});

MessagePtr DecodeFrame(ByteReader& r) {
  auto tag = r.u8();
  if (!tag || kCodecs[*tag].decode == nullptr) return nullptr;
  return kCodecs[*tag].decode(r);
}

}  // namespace

Bytes EncodeMessage(const MessageBase& msg) {
  ByteWriter w(msg.WireSize());
  if (!EncodeMessageTo(w, msg)) return {};
  return w.take();
}

bool EncodeMessageTo(ByteWriter& w, const MessageBase& msg) {
  const auto tag = static_cast<std::uint8_t>(msg.kind());
  if (kCodecs[tag].encode == nullptr) return false;
  w.u8(tag);
  kCodecs[tag].encode(w, msg);
  return true;
}

MessagePtr DecodeMessage(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  return DecodeFrame(r);
}

MessagePtr DecodeMessage(SharedFrame frame, std::size_t offset) {
  if (frame == nullptr) return nullptr;
  ByteReader r(std::move(frame), offset);
  return DecodeFrame(r);
}

}  // namespace mrp::net
