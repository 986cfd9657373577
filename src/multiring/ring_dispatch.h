// RingDispatch: hosts several ring-scoped protocols on one node and
// routes each RingMessage to the protocol handling its ring. This is how
// spare acceptors are shared by multiple rings (Section IV-C, after
// Cheap Paxos): the same physical node is a spare in every ring's
// universe and runs one (idle until recruited) RingNode per ring.
#pragma once

#include <map>
#include <memory>
#include <utility>

#include "common/env.h"
#include "ringpaxos/messages.h"

namespace mrp::multiring {

class RingDispatch final : public Protocol {
 public:
  void AddRing(RingId ring, std::unique_ptr<Protocol> protocol) {
    rings_.emplace(ring, std::move(protocol));
  }

  template <typename T>
  T* ring_protocol(RingId ring) {
    auto it = rings_.find(ring);
    return it == rings_.end() ? nullptr : dynamic_cast<T*>(it->second.get());
  }

  void OnStart(Env& env) override {
    for (auto& [ring, protocol] : rings_) protocol->OnStart(env);
  }

  void OnMessage(Env& env, NodeId from, const MessagePtr& m) override {
    if (const auto* rm = ringpaxos::AsRingMessage(m)) {
      auto it = rings_.find(rm->ring);
      if (it != rings_.end()) it->second->OnMessage(env, from, m);
      return;
    }
    // Non-ring messages go to every hosted protocol.
    for (auto& [ring, protocol] : rings_) protocol->OnMessage(env, from, m);
  }

 private:
  std::map<RingId, std::unique_ptr<Protocol>> rings_;
};

}  // namespace mrp::multiring
