// One table over every message kind. Each case is checked for:
//  * round trip: decoding the frame and re-encoding it reproduces the
//    frame byte for byte (the encoding is a function of every field, so
//    this is field-by-field equality), through both the copying and the
//    zero-copy decode;
//  * WireSize() == the encoded length (a size-only ClientMsg payload is
//    counted as if materialised; see SizeOnlyPayloadCountsAsMaterialised);
//  * the golden frame: the first case of each wire kind must encode to
//    the bytes the previous hand-written codec produced, so the wire
//    format is pinned byte for byte.
// Adding a kind to MRP_MESSAGE_KINDS without a case here fails both the
// static_assert on the kind count and EveryKindHasACase.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/lcr.h"
#include "baselines/mencius.h"
#include "baselines/totem.h"
#include "net/codec.h"
#include "paxos/messages.h"
#include "reconfig/messages.h"
#include "recovery/messages.h"
#include "ringpaxos/messages.h"
#include "session/messages.h"
#include "smr/command.h"

namespace mrp {
namespace {

using paxos::ClientMsg;
using paxos::Value;
using Rows = std::vector<std::pair<std::uint64_t, std::string>>;

static_assert(std::size(kMessageKinds) == 50,
              "a message kind was added or removed: give it a case in Cases()");

// Encoding of any kind, simulator-only ones included: the kind byte,
// then the declared fields. For wire kinds this is net::EncodeMessage.
template <class T>
Bytes FieldsFrame(const MessageBase& m) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(T::kKind));
  wire::Put(w, static_cast<const T&>(m));
  return w.take();
}

template <class T>
MessagePtr FieldsDecode(const Bytes& frame) {
  ByteReader r(frame);
  auto tag = r.u8();
  auto m = std::make_shared<T>();
  if (!tag || *tag != static_cast<std::uint8_t>(T::kKind) || !wire::Get(r, *m)) {
    return nullptr;
  }
  return m;
}

struct Case {
  MsgKind kind;
  MessagePtr msg;
  Bytes (*encode)(const MessageBase&);
  MessagePtr (*decode)(const Bytes&);
  const char* golden = nullptr;  // hex frame; set on a wire kind's first case
};

template <class T, class... Args>
Case Of(MsgKind kind, Args&&... args) {
  return {kind, MakeMessage<T>(std::forward<Args>(args)...), &FieldsFrame<T>,
          &FieldsDecode<T>};
}

template <class T, class... Args>
Case Golden(MsgKind kind, const char* hex, Args&&... args) {
  Case c = Of<T>(kind, std::forward<Args>(args)...);
  c.golden = hex;
  return c;
}

ClientMsg Msg(std::uint32_t payload_bytes, std::uint64_t seq = 9) {
  ClientMsg m;
  m.group = 2;
  m.proposer = 4;
  m.seq = seq;
  m.sent_at = Micros(250);
  m.payload_size = payload_bytes;
  m.payload.assign(payload_bytes, static_cast<std::uint8_t>(seq & 0xff));
  return m;
}

ClientMsg GoldenMsg() {
  ClientMsg m = Msg(0);
  m.payload_size = 3;
  m.payload = Bytes{0xA1, 0xB2, 0xC3};
  return m;
}

// LCR runs 32 kB messages and batches are ~8 kB; 64 kB is past every
// configuration the benches use.
constexpr std::uint32_t kMaxPayload = 64 * 1024;

std::vector<Case> Cases() {
  using namespace ringpaxos;  // NOLINT
  using namespace baselines;  // NOLINT
  const ClientMsg g = GoldenMsg();
  std::vector<Case> cases = {
      // Golden frames, one per wire kind, in tag order.
      Golden<Submit>(MsgKind::kRingSubmit,
                     "01040000000200000004000000090000000000000090d003000000000003000000"
                     "03a1b2c3",
                     4, g),
      Golden<SubmitAck>(MsgKind::kRingSubmitAck, "0201000000020000002a00000000000000", 1, 2,
                        42),
      Golden<P2A>(MsgKind::kRingP2A,
                  "030100000007000000d2040000000000006300000000000000000000000000000000"
                  "010200000004000000090000000000000090d00300000000000300000003a1b2c3010a"
                  "000000000000000b0000000000000003000000000100000002000000",
                  1, 7, 1234, 99, Value::Batch({g}), std::vector<Decided>{{10, 11}},
                  std::vector<NodeId>{0, 1, 2}),
      Golden<P2B>(MsgKind::kRingP2B, "0401000000020000000300000000000000040000000000000005000000",
                  1, 2, 3, 4, 5),
      Golden<DecisionMsg>(MsgKind::kRingDecision,
                          "0501000000020a000000000000000b000000000000000c000000000000000d00"
                          "000000000000",
                          1, std::vector<Decided>{{10, 11}, {12, 13}}),
      Golden<P1A>(MsgKind::kRingP1A, "0601000000080000003700000000000000020200000003000000", 1,
                  8, 55, std::vector<NodeId>{2, 3}),
      Golden<P1B>(MsgKind::kRingP1B,
                  "070100000008000000010a0000000000000002000000000000000000000000010200"
                  "000004000000090000000000000090d00300000000000300000003a1b2c3",
                  1, 8, std::vector<P1B::Entry>{{10, 2, Value::Batch({g})}}),
      Golden<Heartbeat>(MsgKind::kRingHeartbeat, "08010000000900000003000000", 1, 9, 3),
      Golden<HeartbeatAck>(MsgKind::kRingHeartbeatAck, "090100000009000000", 1, 9),
      Golden<LearnReq>(MsgKind::kRingLearnReq, "0a01000000640000000000000010000000", 1, 100,
                       16),
      Golden<LearnRep>(MsgKind::kRingLearnRep,
                       "0b0300000002070000000000000008000000000000000102000000000000000009"
                       "000000000000000a00000000000000000000000000000000010200000004000000"
                       "090000000000000090d00300000000000300000003a1b2c3",
                       3,
                       std::vector<LearnRep::Entry>{{7, 8, Value::Skip(2)},
                                                    {9, 10, Value::Batch({g})}}),
      Golden<DeliveryAck>(MsgKind::kRingDeliveryAck, "0c01000000020000000700000000000000", 1,
                          2, 7),
      Golden<smr::Response>(MsgKind::kSmrResponse,
                            "0d05000000000000000100000001020100000000000000016102000000000000"
                            "0002626303000000",
                            5, 1, true, Rows{{1, "a"}, {2, "bc"}}, 3),
      Golden<TrimNotice>(MsgKind::kRingTrimNotice, "0e020000006400000000000000f401000000000000",
                         2, 100, 500),
      Golden<smr::SnapshotReq>(MsgKind::kSmrSnapshotReq, "0f04000000", 4),
      Golden<smr::SnapshotRep>(MsgKind::kSmrSnapshotRep,
                               "100400000011000000000000000101000000000000000178", 4, 17,
                               Rows{{1, "x"}}),
      Golden<recovery::SnapshotRequest>(MsgKind::kSnapshotRequest,
                                        "110b000000000000000200000008000000", 11, 2, 8),
      Golden<recovery::SnapshotChunk>(MsgKind::kSnapshotChunk,
                                      "120b00000000000000010000000300000003090807", 11, 1, 3,
                                      Bytes{9, 8, 7}),
      Golden<recovery::SnapshotDone>(MsgKind::kSnapshotDone,
                                     "130b00000000000000030000002c01000000000000efbeadde0000"
                                     "0000",
                                     11, 3, 300, 0xDEADBEEFULL),
      Golden<paxos::SubmitReq>(MsgKind::kPaxosSubmit,
                               "140200000004000000090000000000000090d0030000000000030000000"
                               "3a1b2c3",
                               g),
      Golden<paxos::Phase1A>(MsgKind::kPaxosP1A, "15070000000000000003000000", 7, 3),
      Golden<paxos::Phase1B>(MsgKind::kPaxosP1B,
                             "1607000000000000000300000002000000010000000000000000000102000000"
                             "04000000090000000000000090d00300000000000300000003a1b2c3",
                             7, 3, 2, Value::Batch({g})),
      Golden<paxos::Phase2A>(MsgKind::kPaxosP2A,
                             "17070000000000000003000000000000000000000000010200000004000000"
                             "090000000000000090d00300000000000300000003a1b2c3",
                             7, 3, Value::Batch({g})),
      Golden<paxos::Phase2B>(MsgKind::kPaxosP2B, "18080000000000000004000000", 8, 4),
      Golden<paxos::DecisionMsg>(MsgKind::kPaxosDecision,
                                 "19090000000000000005000000000000000000000000010200000004000000"
                                 "090000000000000090d00300000000000300000003a1b2c3",
                                 9, Value::Batch({g}), 5),
      Golden<paxos::LearnReq>(MsgKind::kPaxosLearnReq, "1a2a00000000000000", 42),
      Golden<recovery::CheckpointRequest>(MsgKind::kCheckpointRequest, "1b0600000000000000", 6),
      Golden<recovery::CheckpointReport>(
          MsgKind::kCheckpointReport,
          "1c06000000000000000b000000000000000201000000640000000000000002000000c80000000000"
          "0000",
          6, 11, std::vector<recovery::RingFrontier>{{1, 100}, {2, 200}}),
      Golden<recovery::FrontierAdvert>(MsgKind::kFrontierAdvert,
                                       "1d060000000000000001010000006400000000000000", 6,
                                       std::vector<recovery::RingFrontier>{{1, 100}}),
      Golden<session::LeaseGrant>(MsgKind::kLeaseGrant,
                                  "1e010000000200000000000000030000009001000000000000404b4c00"
                                  "00000000",
                                  1, 2, 3, 400, Millis(5)),
      Golden<session::LeaseAck>(MsgKind::kLeaseAck, "1f010000000200000000000000", 1, 2),
      Golden<session::LeaseRevoke>(MsgKind::kLeaseRevoke, "20010000000200000000000000", 1, 2),
      Golden<session::SessionRead>(
          MsgKind::kSessionRead,
          "21070000000000000008000000000000000a000000000000001400000000000000", 7, 8, 10, 20),
      Golden<session::SessionReadRep>(MsgKind::kSessionReadRep,
                                      "2208000000000000000100000000010a000000000000000176", 8,
                                      1, session::SessionReadRep::kOk, Rows{{10, "v"}}),
      Golden<session::Rejected>(MsgKind::kSessionRejected,
                                "230700000000000000080000000000000000", 7, 8,
                                session::Rejected::kOverload),
      Golden<reconfig::RoutingUpdate>(MsgKind::kRoutingUpdate, "240300000000000000020102", 3,
                                      Bytes{1, 2}),
      Golden<reconfig::HandoffRequest>(MsgKind::kHandoffRequest, "250c0000000000000002000000",
                                       12, 2),
      Golden<reconfig::PlanStatus>(MsgKind::kPlanStatus, "260c0000000000000001", 12, true),

      // Simulator-only baselines (never on the wire).
      Of<MenciusSubmit>(MsgKind::kMenciusSubmit, Msg(100)),
      Of<MenciusPropose>(MsgKind::kMenciusPropose, 7, Value::Batch({Msg(10), Msg(0)})),
      Of<MenciusAck>(MsgKind::kMenciusAck, 7),
      Of<MenciusCommit>(MsgKind::kMenciusCommit, std::vector<InstanceId>{3, 4, 5}),
      Of<LcrData>(MsgKind::kLcrData, 1, 2, std::vector<std::uint32_t>{1, 0, 3}, 0, Millis(1),
                  Value::Batch({Msg(5)})),
      Of<LcrSubmit>(MsgKind::kLcrSubmit, 3, Msg(64)),
      Of<LcrAck>(MsgKind::kLcrAck, 1, 2, 3),
      Of<TotemSend>(MsgKind::kTotemSend, 1, 2, 3, 0, Millis(1)),
      Of<TotemData>(MsgKind::kTotemData, 9, 1, 2, 3, 0, Millis(1)),
      Of<TotemDeliver>(MsgKind::kTotemDeliver, TotemData(9, 1, 2, 3, 0, Millis(1))),
      Of<TotemNack>(MsgKind::kTotemNack, 40, 8),
      Of<TotemToken>(MsgKind::kTotemToken, 41, 2),

      // Shapes: empty and collections, skips, wide piggyback lists.
      Of<paxos::Phase1B>(MsgKind::kPaxosP1B, 7, 3, 0, std::nullopt),
      Of<paxos::Phase2A>(MsgKind::kPaxosP2A, 1, 1, Value::Batch({})),
      Of<P2A>(MsgKind::kRingP2A, 2, 3, 500, 42, Value::Skip(100000), std::vector<Decided>{},
              std::vector<NodeId>{5, 6}),
      Of<DecisionMsg>(MsgKind::kRingDecision, 1, std::vector<Decided>{}),
      Of<P1A>(MsgKind::kRingP1A, 1, 8, 0, std::vector<NodeId>{}),
      Of<P1B>(MsgKind::kRingP1B, 1, 8, std::vector<P1B::Entry>{}),
      Of<LearnRep>(MsgKind::kRingLearnRep, 1, std::vector<LearnRep::Entry>{}),
  };
  std::vector<Decided> wide;
  for (std::uint64_t i = 0; i < 4096; ++i) wide.push_back({i, i * 2 + 1});
  cases.push_back(Of<DecisionMsg>(MsgKind::kRingDecision, 1, wide));
  // Empty and max-size payloads through every message carrying one.
  for (std::uint32_t payload : {0u, kMaxPayload}) {
    const ClientMsg m = Msg(payload);
    cases.push_back(Of<paxos::SubmitReq>(MsgKind::kPaxosSubmit, m));
    cases.push_back(Of<paxos::Phase2A>(MsgKind::kPaxosP2A, 7, 3, Value::Batch({m})));
    cases.push_back(Of<paxos::Phase1B>(MsgKind::kPaxosP1B, 7, 3, 2, Value::Batch({m})));
    cases.push_back(Of<paxos::DecisionMsg>(MsgKind::kPaxosDecision, 9, Value::Batch({m}), 5));
    cases.push_back(Of<Submit>(MsgKind::kRingSubmit, 4, m));
    cases.push_back(Of<P2A>(MsgKind::kRingP2A, 1, 7, 1234, 99,
                            Value::Batch({m, Msg(0, 2)}),
                            std::vector<Decided>{{10, 11}, {12, 13}},
                            std::vector<NodeId>{0, 1, 2}));
    cases.push_back(Of<LearnRep>(
        MsgKind::kRingLearnRep, 3,
        std::vector<LearnRep::Entry>{{7, 8, Value::Skip(2)}, {9, 10, Value::Batch({m})}}));
    cases.push_back(
        Of<P1B>(MsgKind::kRingP1B, 1, 8, std::vector<P1B::Entry>{{10, 2, Value::Batch({m})}}));
  }
  return cases;
}

std::string Hex(const Bytes& b) {
  static const char* kDigits = "0123456789abcdef";
  std::string s;
  for (std::uint8_t c : b) {
    s += kDigits[c >> 4];
    s += kDigits[c & 0xf];
  }
  return s;
}

TEST(MessageTable, EveryKindHasACase) {
  std::map<MsgKind, int> golden;
  std::map<MsgKind, int> any;
  for (const Case& c : Cases()) {
    ++any[c.kind];
    if (c.golden != nullptr) ++golden[c.kind];
  }
  for (MsgKind k : kMessageKinds) {
    EXPECT_GE(any[k], 1) << KindName(k) << " has no case";
    EXPECT_EQ(golden[k], IsWireKind(k) ? 1 : 0) << KindName(k);
  }
}

TEST(MessageTable, RoundTripsAndSizes) {
  for (const Case& c : Cases()) {
    const MessageBase& m = *c.msg;
    SCOPED_TRACE(m.TypeName());
    ASSERT_EQ(m.kind(), c.kind);
    EXPECT_STREQ(m.TypeName(), KindName(c.kind));
    // Ring scope is a kind test; it must agree with the class hierarchy.
    EXPECT_EQ(ringpaxos::IsRingKind(c.kind),
              dynamic_cast<const ringpaxos::RingMessage*>(&m) != nullptr);

    const Bytes frame = c.encode(m);
    EXPECT_EQ(m.WireSize(), frame.size());
    const MessagePtr typed = c.decode(frame);
    ASSERT_NE(typed, nullptr);
    EXPECT_EQ(typed->kind(), c.kind);
    EXPECT_EQ(c.encode(*typed), frame);

    if (!IsWireKind(c.kind)) {
      EXPECT_TRUE(net::EncodeMessage(m).empty()) << "simulator-only kind on the wire";
      continue;
    }
    ASSERT_EQ(net::EncodeMessage(m), frame);
    const MessagePtr copied = net::DecodeMessage(frame);
    const MessagePtr viewed = net::DecodeMessage(std::make_shared<const Bytes>(frame));
    ASSERT_NE(copied, nullptr);
    ASSERT_NE(viewed, nullptr);
    EXPECT_EQ(copied->kind(), c.kind);
    EXPECT_EQ(viewed->kind(), c.kind);
    EXPECT_EQ(net::EncodeMessage(*copied), frame) << "copying decode not canonical";
    EXPECT_EQ(net::EncodeMessage(*viewed), frame) << "view decode differs";
    if (c.golden != nullptr) {
      EXPECT_EQ(Hex(frame), c.golden) << "wire format changed";
    }
  }
}

TEST(MessageTable, SizeOnlyPayloadCountsAsMaterialised) {
  // The simulator charges payload bytes without allocating them. Such a
  // Submit encodes without the payload (as the previous codec did) but
  // is charged exactly what the materialised one encodes to.
  ClientMsg sized = Msg(0);
  sized.payload_size = 4096;
  const ringpaxos::Submit submit{4, sized};
  const Bytes frame = net::EncodeMessage(submit);
  EXPECT_EQ(Hex(frame),
            "01040000000200000004000000090000000000000090d00300000000000010000000");
  const ringpaxos::Submit materialised{4, Msg(4096)};
  EXPECT_EQ(submit.WireSize(), net::EncodeMessage(materialised).size());
  EXPECT_EQ(submit.WireSize(), frame.size() - wire::VarintSize(0) +
                                   wire::VarintSize(4096) + 4096);
  EXPECT_EQ(sized.WireSize(), Msg(4096).WireSize());
  // Decoding keeps it size-only.
  const MessagePtr decoded = net::DecodeMessage(frame);
  const auto* out = Cast<ringpaxos::Submit>(decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(out->msg.payload.empty());
  EXPECT_EQ(out->msg.payload_size, 4096u);
  EXPECT_EQ(out->WireSize(), submit.WireSize());
  // The baselines' payloads are always size-only; same rule.
  const baselines::TotemData data(9, 1, 2, 3, 1024, Millis(1));
  const baselines::TotemData empty(9, 1, 2, 3, 0, Millis(1));
  EXPECT_EQ(data.WireSize(), empty.WireSize() - wire::VarintSize(0) +
                                 wire::VarintSize(1024) + 1024);
}

// Each decode check in isolation: a frame that is well-formed except
// for one out-of-range field is rejected, and the in-range variant of
// the same frame decodes.
TEST(MessageTable, DecodeRejectsOutOfRangeFields) {
  const auto decodes_with = [](const MessageBase& m, std::size_t offset, std::uint8_t byte) {
    Bytes frame = net::EncodeMessage(m);
    frame.at(offset) = byte;
    return net::DecodeMessage(frame) != nullptr;
  };
  // Value::Kind: kind byte, ring, round, instance, vid, then the value.
  const ringpaxos::P2A p2a{1, 7, 1234, 99, Value::Skip(2), {}, {0, 1}};
  EXPECT_TRUE(decodes_with(p2a, 25, 1));
  EXPECT_FALSE(decodes_with(p2a, 25, 2));
  // SessionReadRep::status follows req_id and partition.
  const session::SessionReadRep rep{8, 1, session::SessionReadRep::kOk, {}};
  EXPECT_TRUE(decodes_with(rep, 13, session::SessionReadRep::kNoLease));
  EXPECT_FALSE(decodes_with(rep, 13, session::SessionReadRep::kNoLease + 1));

  // Per-collection caps: a ring layout and a frontier list one past theirs.
  const auto decodes = [](const MessageBase& m) {
    return net::DecodeMessage(net::EncodeMessage(m)) != nullptr;
  };
  EXPECT_TRUE(decodes(ringpaxos::P1A{1, 8, 0, std::vector<NodeId>(ringpaxos::kMaxLayout)}));
  EXPECT_FALSE(decodes(ringpaxos::P1A{1, 8, 0, std::vector<NodeId>(ringpaxos::kMaxLayout + 1)}));
  EXPECT_TRUE(decodes(recovery::FrontierAdvert{
      1, std::vector<recovery::RingFrontier>(recovery::kMaxFrontiers)}));
  EXPECT_FALSE(decodes(recovery::FrontierAdvert{
      1, std::vector<recovery::RingFrontier>(recovery::kMaxFrontiers + 1)}));
}

TEST(MessageTable, UnknownAndSimOnlyTagsDoNotDecode) {
  for (int tag = 0; tag < 256; ++tag) {
    const Bytes frame = {static_cast<std::uint8_t>(tag), 0, 0, 0, 0, 0, 0, 0, 0};
    if (IsWireKind(MsgKind(tag))) continue;
    EXPECT_EQ(net::DecodeMessage(frame), nullptr) << tag;
  }
}

}  // namespace
}  // namespace mrp
