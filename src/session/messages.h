// Wire messages of the client-session control plane (docs/SESSIONS.md):
// coordinator read leases granted to a replica, lease-local linearizable
// reads, and admission-control rejections. Session open/close and the
// session-stamped commands themselves ride inside smr::Command payloads
// on the ordered atomic-multicast stream, so they need no messages here.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/message.h"
#include "common/types.h"

namespace mrp::session {

// Grantor -> replica: the replica may serve local reads for `group`
// until `expires_at` (sim time, same clock in the simulator; a real
// deployment would subtract a clock-skew bound). A read is linearizable
// only once the replica's applied frontier covers `grant_point` — every
// command decided before the grant is visible to the read.
struct LeaseGrant final : Message<LeaseGrant, MsgKind::kLeaseGrant> {
  GroupId group = 0;
  std::uint64_t epoch = 0;     // bumps on revoke/holder change; renewals keep it
  NodeId holder = kNoNode;
  InstanceId grant_point = 0;  // grantor's decided frontier at grant time
  TimePoint expires_at{0};

  LeaseGrant() = default;
  LeaseGrant(GroupId g, std::uint64_t e, NodeId h, InstanceId gp, TimePoint exp)
      : group(g), epoch(e), holder(h), grant_point(gp), expires_at(exp) {}
  MRP_FIELDS(group, epoch, holder, grant_point, expires_at)
};

// Replica -> grantor: the grant was adopted.
struct LeaseAck final : Message<LeaseAck, MsgKind::kLeaseAck> {
  GroupId group = 0;
  std::uint64_t epoch = 0;

  LeaseAck() = default;
  LeaseAck(GroupId g, std::uint64_t e) : group(g), epoch(e) {}
  MRP_FIELDS(group, epoch)
};

// Grantor -> replica: stop serving local reads immediately. Carries the
// epoch being invalidated; grants with a higher epoch re-establish.
struct LeaseRevoke final : Message<LeaseRevoke, MsgKind::kLeaseRevoke> {
  GroupId group = 0;
  std::uint64_t epoch = 0;

  LeaseRevoke() = default;
  LeaseRevoke(GroupId g, std::uint64_t e) : group(g), epoch(e) {}
  MRP_FIELDS(group, epoch)
};

// Client -> lease-holding replica: serve [kmin, kmax] locally, without
// going through the rings.
struct SessionRead final : Message<SessionRead, MsgKind::kSessionRead> {
  std::uint64_t session_id = 0;
  std::uint64_t req_id = 0;
  std::uint64_t kmin = 0, kmax = 0;

  SessionRead() = default;
  SessionRead(std::uint64_t sid, std::uint64_t rid, std::uint64_t lo,
              std::uint64_t hi)
      : session_id(sid), req_id(rid), kmin(lo), kmax(hi) {}
  MRP_FIELDS(session_id, req_id, kmin, kmax)
};

// Replica -> client. kNoLease tells the client to fall back to a
// through-the-ring read (lease lost, expired, or never granted here).
struct SessionReadRep final : Message<SessionReadRep, MsgKind::kSessionReadRep> {
  enum Status : std::uint8_t { kOk = 0, kNoLease = 1 };

  std::uint64_t req_id = 0;
  GroupId partition = 0;
  std::uint8_t status = kOk;
  std::vector<std::pair<std::uint64_t, std::string>> rows;

  SessionReadRep() = default;
  SessionReadRep(std::uint64_t rid, GroupId p, std::uint8_t st,
                 std::vector<std::pair<std::uint64_t, std::string>> r = {})
      : req_id(rid), partition(p), status(st), rows(std::move(r)) {}
  MRP_FIELDS(req_id, partition, wire::Enum(status, std::uint8_t{kNoLease}), rows)
};

// Gateway -> client: the submission was shed instead of enqueued
// (admission control, docs/SESSIONS.md). The client retries the same
// session seqno with exponential backoff.
struct Rejected final : Message<Rejected, MsgKind::kSessionRejected> {
  enum Code : std::uint8_t { kOverload = 0 };

  std::uint64_t session_id = 0;
  std::uint64_t req_id = 0;
  std::uint8_t code = kOverload;

  Rejected() = default;
  Rejected(std::uint64_t sid, std::uint64_t rid, std::uint8_t c)
      : session_id(sid), req_id(rid), code(c) {}
  MRP_FIELDS(session_id, req_id, code)
};

}  // namespace mrp::session
