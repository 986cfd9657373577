// Classic Paxos message set (Section III-A). Ring Paxos has its own,
// larger message set in ringpaxos/messages.h; this one is used by the
// plain Paxos substrate and by tests that validate the acceptor core.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "common/message.h"
#include "common/types.h"
#include "paxos/value.h"

namespace mrp::paxos {

// Client value submission (proposer -> coordinator).
struct SubmitReq final : Message<SubmitReq, MsgKind::kPaxosSubmit> {
  ClientMsg msg;

  SubmitReq() = default;
  explicit SubmitReq(ClientMsg m) : msg(std::move(m)) {}
  MRP_FIELDS(msg)
};

struct Phase1A final : Message<Phase1A, MsgKind::kPaxosP1A> {
  InstanceId instance = 0;
  Round round = 0;

  Phase1A() = default;
  Phase1A(InstanceId i, Round r) : instance(i), round(r) {}
  MRP_FIELDS(instance, round)
};

struct Phase1B final : Message<Phase1B, MsgKind::kPaxosP1B> {
  InstanceId instance = 0;
  Round round = 0;                // the round being promised
  Round accepted_round = 0;       // vrnd (0 if none)
  std::optional<Value> accepted;  // vval

  Phase1B() = default;
  Phase1B(InstanceId i, Round r, Round vrnd, std::optional<Value> vval)
      : instance(i), round(r), accepted_round(vrnd), accepted(std::move(vval)) {}
  MRP_FIELDS(instance, round, accepted_round, accepted)
};

struct Phase2A final : Message<Phase2A, MsgKind::kPaxosP2A> {
  InstanceId instance = 0;
  Round round = 0;
  Value value;

  Phase2A() = default;
  Phase2A(InstanceId i, Round r, Value v) : instance(i), round(r), value(std::move(v)) {}
  MRP_FIELDS(instance, round, value)
};

struct Phase2B final : Message<Phase2B, MsgKind::kPaxosP2B> {
  InstanceId instance = 0;
  Round round = 0;

  Phase2B() = default;
  Phase2B(InstanceId i, Round r) : instance(i), round(r) {}
  MRP_FIELDS(instance, round)
};

struct DecisionMsg final : Message<DecisionMsg, MsgKind::kPaxosDecision> {
  InstanceId instance = 0;
  Value value;
  // Group ordered by this Paxos instance (tags the decision stream when
  // plain Paxos backs a Multi-Ring group; see multiring/paxos_group.h).
  GroupId group = 0;

  DecisionMsg() = default;
  DecisionMsg(InstanceId i, Value v, GroupId g = 0)
      : instance(i), value(std::move(v)), group(g) {}
  MRP_FIELDS(instance, group, value)
};

// Learner gap recovery: asks a proposer to retransmit decisions starting
// at `from_instance` (lost Decision multicasts otherwise stall the
// learner's in-order delivery window).
struct LearnReq final : Message<LearnReq, MsgKind::kPaxosLearnReq> {
  InstanceId from_instance = 0;

  LearnReq() = default;
  explicit LearnReq(InstanceId from) : from_instance(from) {}
  MRP_FIELDS(from_instance)
};

}  // namespace mrp::paxos
