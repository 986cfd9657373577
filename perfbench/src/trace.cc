#include "trace.h"

#include <algorithm>
#include <cmath>

#include "net/codec.h"
#include "ringpaxos/messages.h"
#include "stats.h"

namespace perfbench {

using mrp::MessagePtr;
using mrp::NodeId;
namespace rp = mrp::ringpaxos;

namespace {

constexpr std::size_t kMaxLinks = 50'000;
constexpr std::size_t kMaxCaptured = 4096;
constexpr std::uint64_t kCaptureEvery = 16;
constexpr std::int64_t kPruneAfterNs = 2'000'000'000;

const char* RoleName(Role r) {
  switch (r) {
    case Role::kCoordinator: return "coordinator";
    case Role::kAcceptor: return "acceptor";
    case Role::kLearner: return "learner";
    case Role::kClient: return "client";
    case Role::kReplica: return "replica";
    case Role::kOther: break;
  }
  return "other";
}

std::uint64_t KeyOf(const MessagePtr& m) {
  if (const auto* s = mrp::Cast<rp::Submit>(m)) {
    return MsgKey(s->msg.group, s->msg.proposer, s->msg.seq);
  }
  if (const auto* p = mrp::Cast<rp::P2A>(m)) return InstKey(p->ring, p->instance);
  if (const auto* p = mrp::Cast<rp::P2B>(m)) return InstKey(p->ring, p->instance);
  return 0;
}

}  // namespace

std::uint64_t MsgKey(mrp::GroupId group, NodeId proposer, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(group & 0x7fff) << 48) |
         (static_cast<std::uint64_t>(proposer & 0xffff) << 32) | (seq & 0xffffffffULL);
}

std::uint64_t InstKey(mrp::RingId ring, mrp::InstanceId instance) {
  return (1ULL << 63) | (static_cast<std::uint64_t>(ring & 0x7fff) << 48) |
         (instance & 0xffffffffffffULL);
}

// --------------------------------------------------------------- Tracer

NodeStats& Tracer::AddNode(NodeId node, Role role) {
  nodes_.push_back(std::make_unique<NodeStats>());
  nodes_.back()->node = node;
  nodes_.back()->role = role;
  return *nodes_.back();
}

void Tracer::NoteSubscribe(mrp::ChannelId ch, NodeId node) {
  std::scoped_lock lock(mu_);
  subs_[ch].push_back(node);
}

std::size_t Tracer::ReceiversOf(mrp::ChannelId ch, NodeId sender) {
  std::scoped_lock lock(mu_);
  const auto& s = subs_[ch];
  return s.size() - static_cast<std::size_t>(std::count(s.begin(), s.end(), sender));
}

void Tracer::Capture(const MessagePtr& m) {
  std::scoped_lock lock(mu_);
  if (captured_.size() < kMaxCaptured && capture_tick_++ % kCaptureEvery == 0) {
    captured_.push_back(m);
  }
}

std::vector<MessagePtr> Tracer::TakeCaptured() {
  std::scoped_lock lock(mu_);
  return std::move(captured_);
}

void Tracer::Link(std::uint64_t inst_key, std::vector<std::uint64_t> msg_keys) {
  std::scoped_lock lock(mu_);
  if (links_.size() < kMaxLinks) links_.emplace_back(inst_key, std::move(msg_keys));
}

void Tracer::WriteSpans(std::ostream& os) {
  for (const auto& n : nodes_) {
    for (std::size_t i = 0; i < n->spans.size(); ++i) {
      const Span& s = n->spans[i];
      os << "{\"node\":" << n->node << ",\"role\":\"" << RoleName(n->role)
         << "\",\"span\":" << i << ",\"name\":\"" << s.name
         << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
         << ",\"parent\":" << s.parent << ",\"key\":" << s.key << "}\n";
    }
  }
  std::scoped_lock lock(mu_);
  for (const auto& [inst, msgs] : links_) {
    os << "{\"link\":" << inst << ",\"msgs\":[";
    for (std::size_t i = 0; i < msgs.size(); ++i) os << (i ? "," : "") << msgs[i];
    os << "]}\n";
  }
}

// -------------------------------------------------------------- RxStamps

void RxStamps::Push(const void* msg, std::int64_t t) {
  std::scoped_lock lock(mu_);
  q_.emplace_back(msg, t);
}

std::int64_t RxStamps::Pop(const void* msg) {
  std::scoped_lock lock(mu_);
  if (q_.empty()) return -1;
  const auto [ptr, t] = q_.front();
  q_.pop_front();
  return ptr == msg ? t : -1;
}

// -------------------------------------------------------- TracedProtocol

TracedProtocol::TracedProtocol(std::unique_ptr<mrp::Protocol> inner,
                               Tracer& tracer, NodeStats& stats, RxStamps* rx)
    : inner_(std::move(inner)), tracer_(tracer), st_(stats), rx_(rx) {}

std::int32_t TracedProtocol::OpenSpan(const char* name, std::uint64_t key,
                                      std::int64_t t) {
  if (!tracer_.TakeSpanSlot()) return -1;
  st_.spans.push_back(Span{name, open_span_, t, t, key});
  return static_cast<std::int32_t>(st_.spans.size() - 1);
}

void TracedProtocol::CloseSpan(std::int32_t idx, std::int64_t t) {
  if (idx >= 0) st_.spans[static_cast<std::size_t>(idx)].end_ns = t;
}

void TracedProtocol::OnStart(mrp::Env& env) {
  outer_ = &env;
  inner_->OnStart(*this);
}

void TracedProtocol::OnMessage(mrp::Env& env, NodeId from, const MessagePtr& m) {
  // NodeRuntime::Start runs the loop before it posts OnStart, so a
  // message received in between is handled first: bind here too.
  outer_ = &env;
  if (on_receive) on_receive(m);
  if (!full()) {
    inner_->OnMessage(*this, from, m);
    return;
  }
  const std::int64_t t0 = NowNs();
  const std::int64_t rx_at = rx_ != nullptr ? rx_->Pop(m.get()) : -1;
  if (!tracer_.measuring()) {
    inner_->OnMessage(*this, from, m);
    return;
  }
  if (rx_at >= 0) st_.queue_wait_us.push_back(static_cast<double>(t0 - rx_at) / 1e3);
  const std::int32_t span = OpenSpan(m->TypeName(), KeyOf(m), t0);
  open_span_ = span;
  child_ns_ = 0;
  ++depth_;
  if (st_.role == Role::kLearner) LearnerSees(m);
  inner_->OnMessage(*this, from, m);
  --depth_;
  const std::int64_t t1 = NowNs();
  const std::int64_t self = (t1 - t0) - child_ns_;
  CloseSpan(span, t1);
  open_span_ = -1;
  st_.handler_self_ns += self;
  st_.busy_ns += t1 - t0;
  ++st_.handlers;
  auto& by = st_.rx_by_type[m->TypeName()];
  ++by.first;
  by.second += self;
}

mrp::TimerId TracedProtocol::SetTimer(mrp::Duration delay, std::function<void()> cb) {
  if (!full()) return outer_->SetTimer(delay, std::move(cb));
  const mrp::TimePoint due = outer_->now() + delay;
  return outer_->SetTimer(delay, [this, due, cb = std::move(cb)] {
    if (!tracer_.measuring()) {
      cb();
      return;
    }
    const std::int64_t t0 = NowNs();
    st_.timer_late_us.push_back(
        static_cast<double>((outer_->now() - due).count()) / 1e3);
    const std::int32_t span = OpenSpan("timer", 0, t0);
    open_span_ = span;
    child_ns_ = 0;
    ++depth_;
    cb();
    --depth_;
    const std::int64_t t1 = NowNs();
    CloseSpan(span, t1);
    open_span_ = -1;
    st_.timer_self_ns += (t1 - t0) - child_ns_;
    st_.busy_ns += t1 - t0;
    ++st_.timers;
  });
}

void TracedProtocol::Observe(const MessagePtr& m, bool multicast) {
  if (multicast && st_.role == Role::kCoordinator) {
    if (const auto* p = mrp::Cast<rp::P2A>(m)) {
      auto& next = next_instance_[p->ring];
      if (p->instance >= next) {
        next = p->instance + p->value.LogicalInstances();
        if (p->value.is_skip()) {
          ++st_.skips;
        } else {
          std::size_t bytes = 0;
          for (const auto& c : p->value.msgs) bytes += c.WireSize();
          ++st_.batches;
          st_.batch_msgs += p->value.msgs.size();
          if (bytes < tracer_.batch_bytes()) ++st_.underfull;
          if (full()) {
            std::vector<std::uint64_t> keys;
            keys.reserve(p->value.msgs.size());
            for (const auto& c : p->value.msgs) keys.push_back(MsgKey(c.group, c.proposer, c.seq));
            tracer_.Link(InstKey(p->ring, p->instance), std::move(keys));
          }
        }
      }
    }
  }
  if (!full()) return;
  if (!multicast && st_.role == Role::kLearner && mrp::Cast<rp::LearnReq>(m) != nullptr) {
    ++st_.learn_reqs;
  }
  auto& by = st_.sent_by_type[m->TypeName()];
  ++by.first;
  by.second += m->WireSize();
  st_.sent_bytes += m->WireSize();
  tracer_.Capture(m);
}

void TracedProtocol::Send(NodeId to, MessagePtr m) {
  if (on_send) on_send(m);
  if (!tracer_.measuring()) {
    outer_->Send(to, std::move(m));
    return;
  }
  Observe(m, false);
  if (!full()) {
    outer_->Send(to, std::move(m));
    return;
  }
  const std::int64_t t0 = NowNs();
  outer_->Send(to, std::move(m));
  const std::int64_t d = NowNs() - t0;
  if (depth_ > 0) child_ns_ += d;
  st_.env_send_ns += d;
  ++st_.env_sends;
}

void TracedProtocol::Multicast(mrp::ChannelId channel, MessagePtr m) {
  if (on_send) on_send(m);
  if (!tracer_.measuring()) {
    outer_->Multicast(channel, std::move(m));
    return;
  }
  Observe(m, true);
  if (!full()) {
    outer_->Multicast(channel, std::move(m));
    return;
  }
  const std::int64_t t0 = NowNs();
  outer_->Multicast(channel, std::move(m));
  const std::int64_t d = NowNs() - t0;
  if (depth_ > 0) child_ns_ += d;
  st_.env_send_ns += d;
  ++st_.env_sends;
}

void TracedProtocol::LearnerSees(const MessagePtr& m) {
  const std::int64_t now = outer_->now().count();
  auto mark = [&](std::uint64_t key, bool value, const mrp::paxos::Value* v) {
    InstSeen& s = inst_seen_[key];
    if (value && s.value_t < 0) {
      s.value_t = now;
      if (v != nullptr && !v->is_skip()) {
        for (const auto& c : v->msgs) s.msgs.push_back(MsgKey(c.group, c.proposer, c.seq));
      }
    }
    if (!value && s.decided_t < 0) s.decided_t = now;
    if (s.value_t >= 0 && s.decided_t >= 0) {
      const std::int32_t span = OpenSpan("learner.decided", key, NowNs());
      CloseSpan(span, NowNs());
      for (std::uint64_t k : s.msgs) decided_at_[k] = now;
      inst_seen_.erase(key);
    }
  };
  if (const auto* p = mrp::Cast<rp::P2A>(m)) {
    mark(InstKey(p->ring, p->instance), true, &p->value);
    for (const auto& d : p->decided) mark(InstKey(p->ring, d.instance), false, nullptr);
  } else if (const auto* d = mrp::Cast<rp::DecisionMsg>(m)) {
    for (const auto& e : d->decided) mark(InstKey(d->ring, e.instance), false, nullptr);
  } else if (const auto* r = mrp::Cast<rp::LearnRep>(m)) {
    for (const auto& e : r->entries) {
      mark(InstKey(r->ring, e.instance), true, &e.value);
      mark(InstKey(r->ring, e.instance), false, nullptr);
    }
  }
  if (++prune_tick_ % 65536 == 0) {
    std::erase_if(inst_seen_, [&](const auto& kv) {
      return now - std::max(kv.second.value_t, kv.second.decided_t) > kPruneAfterNs;
    });
    std::erase_if(decided_at_,
                  [&](const auto& kv) { return now - kv.second > kPruneAfterNs; });
  }
}

void TracedProtocol::NoteDelivered(const mrp::paxos::ClientMsg& m) {
  if (!full() || !tracer_.measuring()) return;
  const std::uint64_t key = MsgKey(m.group, m.proposer, m.seq);
  const std::int32_t span = OpenSpan("on_deliver", key, NowNs());
  CloseSpan(span, NowNs());
  auto it = decided_at_.find(key);
  if (it == decided_at_.end()) return;
  st_.hold_us.push_back(static_cast<double>(outer_->now().count() - it->second) / 1e3);
  decided_at_.erase(it);
}

// ------------------------------------------------------- TracedTransport

void TracedTransport::Send(NodeId to, MessagePtr msg) {
  if (!tracer_.measuring()) {
    inner_.Send(to, std::move(msg));
    return;
  }
  ++st_.expected_rx;
  const std::int64_t t0 = NowNs();
  inner_.Send(to, std::move(msg));
  st_.transport_send_ns += NowNs() - t0;
  ++st_.transport_sends;
}

void TracedTransport::Multicast(mrp::ChannelId channel, MessagePtr msg) {
  if (!tracer_.measuring()) {
    inner_.Multicast(channel, std::move(msg));
    return;
  }
  auto it = receivers_.find(channel);
  if (it == receivers_.end()) {
    it = receivers_.emplace(channel, tracer_.ReceiversOf(channel, st_.node)).first;
  }
  st_.expected_rx += it->second;
  const std::int64_t t0 = NowNs();
  inner_.Multicast(channel, std::move(msg));
  st_.transport_send_ns += NowNs() - t0;
  ++st_.transport_sends;
}

void TracedTransport::Subscribe(mrp::ChannelId channel) {
  tracer_.NoteSubscribe(channel, st_.node);
  inner_.Subscribe(channel);
}

void TracedTransport::SetReceiver(RxFn rx) {
  inner_.SetReceiver([this, rx = std::move(rx)](NodeId from, MessagePtr msg) {
    rx_.Push(msg.get(), NowNs());
    if (tracer_.measuring()) st_.rx_msgs.fetch_add(1, std::memory_order_relaxed);
    rx(from, std::move(msg));
  });
}

// ----------------------------------------------------------- CodecReplay

CodecReplay ReplayCodec(const std::vector<MessagePtr>& msgs) {
  CodecReplay out;
  std::vector<mrp::Bytes> frames;
  double wire = 0, drift = 0, kb = 0;
  for (const auto& m : msgs) {
    mrp::Bytes f = mrp::net::EncodeMessage(*m);
    if (f.empty()) continue;
    wire += static_cast<double>(m->WireSize());
    drift += std::abs(static_cast<double>(f.size()) - static_cast<double>(m->WireSize()));
    kb += static_cast<double>(f.size()) / 1024.0;
    frames.push_back(std::move(f));
  }
  out.messages = frames.size();
  if (frames.empty()) return out;
  out.wiresize_drift_frac = drift / wire;
  std::vector<const mrp::MessageBase*> encodable;
  for (const auto& m : msgs) {
    if (!mrp::net::EncodeMessage(*m).empty()) encodable.push_back(m.get());
  }
  // Repeat until each side has run for at least 50 ms.
  std::int64_t enc_ns = 0, dec_ns = 0;
  int enc_reps = 0, dec_reps = 0;
  std::size_t sink = 0;
  for (; enc_ns < 50'000'000; ++enc_reps) {
    const std::int64_t t0 = NowNs();
    for (const auto* m : encodable) sink += mrp::net::EncodeMessage(*m).size();
    enc_ns += NowNs() - t0;
  }
  for (; dec_ns < 50'000'000; ++dec_reps) {
    const std::int64_t t0 = NowNs();
    for (const auto& f : frames) sink += mrp::net::DecodeMessage(f) != nullptr;
    dec_ns += NowNs() - t0;
  }
  if (sink == 0) out.messages = 0;
  out.encode_ns_per_kb = static_cast<double>(enc_ns) / (kb * enc_reps);
  out.decode_ns_per_kb = static_cast<double>(dec_ns) / (kb * dec_reps);
  return out;
}

}  // namespace perfbench
