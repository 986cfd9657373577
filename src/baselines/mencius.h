// Mencius (Mao, Junqueira, Marzullo, OSDI 2008): multi-leader
// state-machine replication, discussed in the paper's related work as
// the closest skip-instance design. The consensus instance space is
// statically partitioned round-robin over the n servers; server i is
// the "coordinated" proposer of instances i, i+n, i+2n, ... and can
// propose there directly (its round-0 ownership is pre-agreed). A
// server with no client load proposes no-ops ("skips") for its owed
// instances when it observes other servers advancing past them, so the
// in-order delivery stream never stalls on an idle leader — the same
// idea Multi-Ring Paxos applies per ring, but within ONE total order:
// Mencius has no group abstraction, so it cannot scale with partitions
// (reproduced by bench/ext_scalability's comparison section and the
// Mencius tests).
//
// Scope: the failure-free data path (simple consensus per instance with
// majority acks of the owner's proposal; leader revocation is out of
// scope, as for the other baselines).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/env.h"
#include "common/instance_window.h"
#include "common/stats.h"
#include "common/types.h"
#include "paxos/value.h"

namespace mrp::baselines {

struct MenciusConfig {
  std::vector<NodeId> servers;  // instance i owned by servers[i % n]
  ChannelId data_channel = 120;
  std::size_t batch_bytes = 8 * 1024;
  Duration batch_timeout = Millis(1);
  // An idle server proposes no-ops for its owed instances this often.
  Duration skip_interval = Millis(1);
};

// Client -> any server.
struct MenciusSubmit final : Message<MenciusSubmit, MsgKind::kMenciusSubmit> {
  paxos::ClientMsg msg;

  MenciusSubmit() = default;
  explicit MenciusSubmit(paxos::ClientMsg m) : msg(std::move(m)) {}
  MRP_FIELDS(msg)
};

// Owner -> all servers (ip-multicast): the owner's proposal for one of
// its instances (round 0 is pre-owned; no Phase 1 needed).
struct MenciusPropose final : Message<MenciusPropose, MsgKind::kMenciusPropose> {
  InstanceId instance = 0;
  paxos::Value value;

  MenciusPropose() = default;
  MenciusPropose(InstanceId i, paxos::Value v) : instance(i), value(std::move(v)) {}
  MRP_FIELDS(instance, value)
};

// Server -> owner: acceptance of the proposal.
struct MenciusAck final : Message<MenciusAck, MsgKind::kMenciusAck> {
  InstanceId instance = 0;

  MenciusAck() = default;
  explicit MenciusAck(InstanceId i) : instance(i) {}
  MRP_FIELDS(instance)
};

// Owner -> all servers: the instance is chosen (piggy-backing kept
// simple: one small multicast per decided instance batch).
struct MenciusCommit final : Message<MenciusCommit, MsgKind::kMenciusCommit> {
  std::vector<InstanceId> instances;

  MenciusCommit() = default;
  explicit MenciusCommit(std::vector<InstanceId> is) : instances(std::move(is)) {}
  MRP_FIELDS(instances)
};

class MenciusServer final : public Protocol {
 public:
  using DeliverFn = std::function<void(InstanceId, const paxos::Value&)>;

  MenciusServer(MenciusConfig cfg, DeliverFn on_deliver = nullptr)
      : cfg_(std::move(cfg)), on_deliver_(std::move(on_deliver)) {}

  void OnStart(Env& env) override;
  void OnMessage(Env& env, NodeId from, const MessagePtr& m) override;

  // ---- Stats ----
  Histogram& latency() { return latency_; }
  RateMeter& delivered() { return delivered_; }
  std::uint64_t delivered_msgs() const { return delivered_.total_count(); }
  std::uint64_t noops_proposed() const { return noops_; }
  InstanceId next_delivery() const { return window_.next(); }

 private:
  struct Proposal {
    paxos::Value value;
    std::size_t acks = 0;
    bool committed = false;
  };

  std::size_t MyIndex() const { return my_idx_; }
  InstanceId NextOwned(InstanceId at_least) const;
  void SkipPump(Env& env);
  void ProposeOwned(Env& env, paxos::Value value);
  void FlushBatch(Env& env);
  void MaybeSkipOwed(Env& env);
  void Deliver(Env& env);

  MenciusConfig cfg_;
  DeliverFn on_deliver_;
  std::size_t my_idx_ = 0;
  NodeId self_ = kNoNode;

  // Proposer state (own instances).
  std::deque<paxos::ClientMsg> pending_;
  std::size_t pending_bytes_ = 0;
  InstanceId next_own_ = 0;  // next instance this server will propose in
  std::map<InstanceId, Proposal> in_flight_;
  TimerId batch_timer_ = kNoTimer;

  // Acceptor/learner state (all instances).
  InstanceWindow<paxos::Value> window_;
  std::set<InstanceId> committed_others_;  // commits for non-owned instances
  InstanceId highest_seen_ = 0;  // highest proposed instance observed
  std::uint64_t noops_ = 0;
  Histogram latency_;
  RateMeter delivered_;
};

}  // namespace mrp::baselines
