// Wire messages of the elastic-reconfiguration subsystem
// (docs/RECONFIG.md).
//
// RoutingUpdate carries an encoded RingConfiguration (ring_view.h) to
// every role holding a RingHolder; versions make re-delivery and
// reordering harmless — Install() drops anything not strictly newer.
// HandoffRequest lets a repartition target ask the source replica to
// (re)announce its handoff checkpoint, and PlanStatus closes the loop
// from the target back to the RepartitionCoordinator once the moved
// range is installed. The bulk state itself rides the existing
// recovery::SnapshotRequest/Chunk/Done transfer, not new messages.
#pragma once

#include <cstdint>
#include <utility>

#include "common/bytes.h"
#include "common/message.h"
#include "common/types.h"

namespace mrp::reconfig {

struct RoutingUpdate final : Message<RoutingUpdate, MsgKind::kRoutingUpdate> {
  std::uint64_t version = 0;
  Bytes config;  // RingConfiguration::Encode()

  RoutingUpdate() = default;
  RoutingUpdate(std::uint64_t v, Bytes c) : version(v), config(std::move(c)) {}
  MRP_FIELDS(version, config)
};

struct HandoffRequest final : Message<HandoffRequest, MsgKind::kHandoffRequest> {
  std::uint64_t plan_id = 0;
  GroupId target_group = 0;

  HandoffRequest() = default;
  HandoffRequest(std::uint64_t id, GroupId target)
      : plan_id(id), target_group(target) {}
  MRP_FIELDS(plan_id, target_group)
};

struct PlanStatus final : Message<PlanStatus, MsgKind::kPlanStatus> {
  std::uint64_t plan_id = 0;
  bool ok = false;

  PlanStatus() = default;
  PlanStatus(std::uint64_t id, bool okay) : plan_id(id), ok(okay) {}
  MRP_FIELDS(plan_id, ok)
};

}  // namespace mrp::reconfig
