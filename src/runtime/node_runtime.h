// NodeRuntime: hosts one protocol object on a real event loop + real
// transport, implementing the same Env interface the simulator provides.
// LocalCluster wires a whole multi-node deployment inside one process
// (one loop thread per node), over either the in-process bus or UDP.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/env.h"
#include "runtime/event_loop.h"
#include "runtime/inproc.h"
#include "runtime/transport.h"
#include "runtime/udp.h"

namespace mrp::runtime {

class FileStorage;

class NodeRuntime final : public Env {
 public:
  NodeRuntime(NodeId self, std::unique_ptr<Protocol> protocol, Transport& transport)
      : self_(self), protocol_(std::move(protocol)), transport_(transport),
        rng_(0x5eed0000ULL + self) {
    transport_.SetReceiver([this](NodeId from, MessagePtr msg) {
      loop_.Post([this, from, msg = std::move(msg)] {
        protocol_->OnMessage(*this, from, msg);
      });
    });
  }

  // ---- Env ----
  NodeId self() const override { return self_; }
  TimePoint now() const override { return loop_.now(); }
  void Send(NodeId to, MessagePtr m) override { transport_.Send(to, std::move(m)); }
  void Multicast(ChannelId channel, MessagePtr m) override {
    transport_.Multicast(channel, std::move(m));
  }
  TimerId SetTimer(Duration delay, std::function<void()> cb) override {
    return loop_.SetTimer(delay, std::move(cb));
  }
  void CancelTimer(TimerId id) override { loop_.CancelTimer(id); }
  Rng& rng() override { return rng_; }

  // ---- Lifecycle ----
  // OnStart is the first task the loop runs: messages that arrived
  // before Start() wait in the queue behind it.
  void Start() {
    loop_.Start([this] { protocol_->OnStart(*this); });
  }
  void Stop() { loop_.Stop(); }

  Protocol* protocol() { return protocol_.get(); }
  template <typename T>
  T* protocol_as() {
    return dynamic_cast<T*>(protocol_.get());
  }
  EventLoop& loop() { return loop_; }

  // Runs `fn` on the node's loop thread and waits for completion.
  void RunOnLoop(std::function<void()> fn);

  // Periodically runs FileStorage::MaybeCompact(min_bytes) on the node's
  // loop thread (where all storage access happens), every `interval`.
  // `storage` must outlive the runtime. Call before or after Start().
  void EnableLogCompaction(FileStorage& storage, Duration interval,
                           std::uint64_t min_bytes = 1 << 20);

 private:
  NodeId self_;
  std::unique_ptr<Protocol> protocol_;
  Transport& transport_;
  EventLoop loop_;
  Rng rng_;
};

// A whole cluster in one process. Transport is either the lossless
// in-proc bus or UDP sockets on loopback (with real ip-multicast).
class LocalCluster {
 public:
  enum class Kind { kInProc, kUdp };

  explicit LocalCluster(Kind kind, UdpConfig udp = {}) : kind_(kind), udp_cfg_(udp) {}
  ~LocalCluster() { Stop(); }

  // Adds a node; returns its id. Subscriptions must be registered before
  // Start().
  NodeId AddNode(std::unique_ptr<Protocol> protocol,
                 const std::vector<ChannelId>& subscriptions = {});

  NodeRuntime& node(NodeId id) { return *nodes_.at(id); }
  std::size_t size() const { return nodes_.size(); }

  void Start();
  void Stop();

 private:
  Kind kind_;
  UdpConfig udp_cfg_;
  InProcBus bus_;
  std::vector<std::unique_ptr<UdpTransport>> udp_;
  std::vector<std::unique_ptr<NodeRuntime>> nodes_;
  bool started_ = false;
};

}  // namespace mrp::runtime
