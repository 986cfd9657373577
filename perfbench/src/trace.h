// Per-layer timing taken from outside the program. Two decorators sit
// on the repository's public seams and time the calls that cross them:
//
//  * TracedProtocol wraps a Protocol and hands it itself as the Env, so
//    it sees every handler and timer callback (self time = duration
//    minus the time spent inside Send/Multicast) and every outgoing
//    message (counts and WireSize bytes by TypeName, P2A batch shape).
//  * TracedTransport wraps a runtime Transport: time inside the real
//    send call, and the receive-callback timestamp that the node's
//    TracedProtocol turns into event-loop queue wait.
//
// Spans (name, start, end, parent, message key) go to a bounded
// in-memory log that is written out when the run ends. All spans of one
// client message share the key (group, proposer, seq); a P2A's spans
// carry the (ring, instance) key, and a link record maps it to the
// message keys it carries.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/env.h"
#include "paxos/value.h"
#include "runtime/transport.h"

namespace perfbench {

enum class Role : std::uint8_t {
  kCoordinator, kAcceptor, kLearner, kClient, kReplica, kOther
};

struct Span {
  const char* name;
  std::int32_t parent;  // index in the node's span log, -1 for a root
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t key;  // MsgKey / InstKey, 0 when unkeyed
};

std::uint64_t MsgKey(mrp::GroupId group, mrp::NodeId proposer, std::uint64_t seq);
std::uint64_t InstKey(mrp::RingId ring, mrp::InstanceId instance);

// Timings and counts of one node. Written only from the node's
// execution context (and its transport's receive thread, for the
// atomics); read by the main thread after the run.
struct NodeStats {
  Role role = Role::kOther;
  mrp::NodeId node = mrp::kNoNode;
  std::int64_t handler_self_ns = 0;
  std::int64_t timer_self_ns = 0;
  std::int64_t busy_ns = 0;  // handlers + timers, inclusive
  std::uint64_t handlers = 0;
  std::uint64_t timers = 0;
  std::int64_t env_send_ns = 0;  // inside Env::Send / Multicast
  std::uint64_t env_sends = 0;
  std::uint64_t sent_bytes = 0;  // WireSize
  // Keyed by TypeName(), which returns string literals.
  std::map<const char*, std::pair<std::uint64_t, std::uint64_t>> sent_by_type;
  // Handler count and self time by incoming message type.
  std::map<const char*, std::pair<std::uint64_t, std::int64_t>> rx_by_type;
  // Coordinator P2A shape (first transmissions only).
  std::uint64_t batches = 0, batch_msgs = 0, underfull = 0, skips = 0;
  std::uint64_t learn_reqs = 0;
  std::vector<double> queue_wait_us;
  std::vector<double> timer_late_us;
  std::vector<double> hold_us;
  // Transport side.
  std::int64_t transport_send_ns = 0;
  std::uint64_t transport_sends = 0;
  std::atomic<std::uint64_t> rx_msgs{0};
  std::uint64_t expected_rx = 0;  // receipts this node's sends should cause
  std::vector<Span> spans;
};

class Tracer {
 public:
  // kCount only tallies P2A batch shape (cheap enough to leave on in
  // untraced runs for the batch-timer self-check); kFull times
  // everything and records spans.
  enum class Mode { kCount, kFull };

  explicit Tracer(Mode mode, std::size_t batch_bytes)
      : mode_(mode), batch_bytes_(batch_bytes) {}

  Mode mode() const { return mode_; }
  std::size_t batch_bytes() const { return batch_bytes_; }
  NodeStats& AddNode(mrp::NodeId node, Role role);
  std::vector<std::unique_ptr<NodeStats>>& nodes() { return nodes_; }

  // Aggregation runs only while measuring.
  void SetMeasuring(bool on) { measuring_.store(on); }
  bool measuring() const { return measuring_.load(std::memory_order_relaxed); }

  // Channel subscriptions (for expected multicast receipts).
  void NoteSubscribe(mrp::ChannelId ch, mrp::NodeId node);
  std::size_t ReceiversOf(mrp::ChannelId ch, mrp::NodeId sender);

  // Sample of outgoing messages for the codec replay.
  void Capture(const mrp::MessagePtr& m);
  std::vector<mrp::MessagePtr> TakeCaptured();

  // Spans are kept up to a budget shared by all nodes.
  bool TakeSpanSlot() { return span_budget_.fetch_sub(1) > 0; }

  // Links a P2A's (ring, instance) key to the message keys it carries.
  void Link(std::uint64_t inst_key, std::vector<std::uint64_t> msg_keys);

  void WriteSpans(std::ostream& os);

 private:
  Mode mode_;
  std::size_t batch_bytes_;
  std::atomic<bool> measuring_{false};
  std::atomic<std::int64_t> span_budget_{200'000};
  std::vector<std::unique_ptr<NodeStats>> nodes_;
  std::mutex mu_;  // guards everything below
  std::map<mrp::ChannelId, std::vector<mrp::NodeId>> subs_;
  std::vector<mrp::MessagePtr> captured_;
  std::uint64_t capture_tick_ = 0;
  std::vector<std::pair<std::uint64_t, std::vector<std::uint64_t>>> links_;
};

// Receive timestamps handed from a TracedTransport to the TracedProtocol
// of the same node. Event loops run posted tasks in FIFO order, so the
// front entry belongs to the next message the protocol sees.
class RxStamps {
 public:
  void Push(const void* msg, std::int64_t t);
  // Receive time of `msg` if it is at the front; -1 otherwise.
  std::int64_t Pop(const void* msg);

 private:
  std::mutex mu_;
  std::deque<std::pair<const void*, std::int64_t>> q_;
};

class TracedProtocol final : public mrp::Protocol, public mrp::Env {
 public:
  TracedProtocol(std::unique_ptr<mrp::Protocol> inner, Tracer& tracer,
                 NodeStats& stats, RxStamps* rx = nullptr);

  // Fired inside the learner's delivery tap: closes the message's
  // decision-seen -> delivered hold and records an on_deliver span.
  void NoteDelivered(const mrp::paxos::ClientMsg& m);

  // Optional taps on every outgoing / incoming message, in any mode.
  std::function<void(const mrp::MessagePtr&)> on_send;
  std::function<void(const mrp::MessagePtr&)> on_receive;

  // ---- Protocol ----
  void OnStart(mrp::Env& env) override;
  void OnMessage(mrp::Env& env, mrp::NodeId from, const mrp::MessagePtr& m) override;

  // ---- Env (forwarded to the hosting environment) ----
  mrp::NodeId self() const override { return outer_->self(); }
  mrp::TimePoint now() const override { return outer_->now(); }
  void Send(mrp::NodeId to, mrp::MessagePtr m) override;
  void Multicast(mrp::ChannelId channel, mrp::MessagePtr m) override;
  mrp::TimerId SetTimer(mrp::Duration delay, std::function<void()> cb) override;
  void CancelTimer(mrp::TimerId id) override { outer_->CancelTimer(id); }
  mrp::Rng& rng() override { return outer_->rng(); }
  mrp::MetricsRegistry& metrics() override { return outer_->metrics(); }

 private:
  bool full() const { return tracer_.mode() == Tracer::Mode::kFull; }
  void Observe(const mrp::MessagePtr& m, bool multicast);
  std::int32_t OpenSpan(const char* name, std::uint64_t key, std::int64_t t);
  void CloseSpan(std::int32_t idx, std::int64_t t);
  void LearnerSees(const mrp::MessagePtr& m);

  std::unique_ptr<mrp::Protocol> inner_;
  Tracer& tracer_;
  NodeStats& st_;
  RxStamps* rx_;
  mrp::Env* outer_ = nullptr;
  int depth_ = 0;
  std::int64_t child_ns_ = 0;
  std::int32_t open_span_ = -1;

  // Learner bookkeeping for the hold metric: per (ring, instance) when
  // the value and the decision were first seen, and the messages the
  // value carries; then per message when its decision became known.
  struct InstSeen {
    std::int64_t value_t = -1;
    std::int64_t decided_t = -1;
    std::vector<std::uint64_t> msgs;
  };
  std::unordered_map<std::uint64_t, InstSeen> inst_seen_;
  std::unordered_map<std::uint64_t, std::int64_t> decided_at_;
  std::uint64_t prune_tick_ = 0;
  // Next unseen logical instance per ring: tells first P2A
  // transmissions from retransmissions.
  std::map<mrp::RingId, mrp::InstanceId> next_instance_;
};

class TracedTransport final : public mrp::runtime::Transport {
 public:
  TracedTransport(mrp::runtime::Transport& inner, Tracer& tracer,
                  NodeStats& stats, RxStamps& rx)
      : inner_(inner), tracer_(tracer), st_(stats), rx_(rx) {}

  void Send(mrp::NodeId to, mrp::MessagePtr msg) override;
  void Multicast(mrp::ChannelId channel, mrp::MessagePtr msg) override;
  void Subscribe(mrp::ChannelId channel) override;
  void SetReceiver(RxFn rx) override;

 private:
  mrp::runtime::Transport& inner_;
  Tracer& tracer_;
  NodeStats& st_;
  RxStamps& rx_;
  std::map<mrp::ChannelId, std::size_t> receivers_;  // loop thread only
};

// Codec replay over captured messages.
struct CodecReplay {
  double encode_ns_per_kb = 0;
  double decode_ns_per_kb = 0;
  double wiresize_drift_frac = 0;  // sum |encoded - WireSize| / sum WireSize
  std::size_t messages = 0;
};
CodecReplay ReplayCodec(const std::vector<mrp::MessagePtr>& msgs);

}  // namespace perfbench
