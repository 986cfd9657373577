#include "client.h"

#include <cstring>
#include <utility>

#include "common/rand.h"
#include "ringpaxos/messages.h"
#include "workload/arrival.h"

namespace perfbench {

using mrp::Env;
using mrp::MessagePtr;
using mrp::NodeId;

namespace {

std::uint64_t Mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint16_t PickTarget(mrp::Rng& rng, const std::vector<double>& cumulative) {
  const double u = rng.uniform() * cumulative.back();
  std::size_t i = 0;
  while (i + 1 < cumulative.size() && u >= cumulative[i]) ++i;
  return static_cast<std::uint16_t>(i);
}

}  // namespace

std::uint64_t PayloadTag(std::uint64_t key, std::uint64_t seq) {
  return Mix(key ^ (seq * 0xd6e8feb86659fd93ULL));
}

ClientPlan OpenLoopPlan(std::uint64_t seed, std::vector<ClientTarget> targets,
                        const std::vector<double>& weights, double rate_per_sec,
                        std::int64_t duration_ns, std::uint32_t payload_size) {
  ClientPlan plan;
  plan.targets = std::move(targets);
  plan.payload_size = payload_size;
  plan.payload_key = Mix(seed);
  mrp::Rng rng(seed);
  std::vector<double> cumulative;
  double acc = 0;
  for (double w : weights) cumulative.push_back(acc += w);
  mrp::workload::ArrivalSpec spec;
  spec.kind = mrp::workload::ArrivalKind::kPoisson;
  spec.rate_per_sec = rate_per_sec;
  mrp::workload::ArrivalProcess arrivals(&spec);
  plan.target_of.push_back(0);  // the probe
  for (mrp::TimePoint t = arrivals.Next(mrp::kTimeZero, rng);
       t.count() < duration_ns; t = arrivals.Next(t, rng)) {
    plan.due_ns.push_back(t.count());
    plan.target_of.push_back(PickTarget(rng, cumulative));
  }
  return plan;
}

ClientPlan ClosedLoopPlan(std::uint64_t seed, std::vector<ClientTarget> targets,
                          std::size_t window, std::uint64_t capacity,
                          std::uint32_t payload_size) {
  ClientPlan plan;
  plan.payload_size = payload_size;
  plan.payload_key = Mix(seed);
  plan.window = window;
  mrp::Rng rng(seed);
  std::vector<double> cumulative;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    cumulative.push_back(static_cast<double>(i + 1));
  }
  plan.targets = std::move(targets);
  plan.target_of.assign(capacity, 0);
  for (auto& t : plan.target_of) t = PickTarget(rng, cumulative);
  return plan;
}

mrp::paxos::ClientMsg MakeClientMsg(const ClientPlan& plan, NodeId self,
                                    std::uint64_t seq, std::int64_t sent_at_ns) {
  mrp::paxos::ClientMsg m;
  m.group = plan.targets[plan.target_of[seq]].group;
  m.proposer = self;
  m.seq = seq;
  m.sent_at = mrp::Duration(sent_at_ns);
  m.payload_size = plan.payload_size;
  if (plan.sim) return m;
  mrp::Bytes bytes(plan.payload_size, static_cast<std::uint8_t>(seq));
  const std::uint64_t tag = PayloadTag(plan.payload_key, seq);
  std::memcpy(bytes.data(), &tag, std::min<std::size_t>(8, bytes.size()));
  m.payload = mrp::PayloadBuf(std::move(bytes));
  return m;
}

// ------------------------------------------------------------- LoadBook

LoadBook::LoadBook(const ClientPlan& plan, NodeId client, std::size_t windows,
                   std::int64_t window_ns, std::function<std::int64_t()> clock)
    : plan_(plan),
      client_(client),
      window_ns_(window_ns),
      clock_(std::move(clock)),
      ledger_(plan.capacity()),
      windows_(windows) {}

int LoadBook::WindowAt(std::int64_t now_ns) const {
  const std::int64_t start = measure_start_.load(std::memory_order_relaxed);
  if (start < 0 || now_ns < start) return -1;
  const std::int64_t w = (now_ns - start) / window_ns_;
  return w < static_cast<std::int64_t>(windows_.size()) ? static_cast<int>(w) : -1;
}

void LoadBook::OnDeliver(const mrp::paxos::ClientMsg& m) {
  const std::int64_t now = Now();
  std::uint64_t tag = 0;
  if (m.payload.size() >= 8) std::memcpy(&tag, m.payload.data(), 8);
  const bool payload_ok =
      plan_.sim ? m.payload.empty()
                : m.payload.size() == m.payload_size &&
                      (m.payload_size < 8 || tag == PayloadTag(plan_.payload_key, m.seq));
  const bool known = m.proposer == client_ && m.seq < ledger_.capacity() &&
                     m.payload_size == plan_.payload_size && payload_ok &&
                     m.group == plan_.targets[plan_.target_of[m.seq]].group;
  if (!known || !ledger_.NoteDelivered(m.seq)) {
    unknown_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (ledger_.delivered(m.seq) != 1) return;
  if (m.seq == 0) {
    probe_delivered_.store(true);
    return;
  }
  distinct_.fetch_add(1, std::memory_order_relaxed);
  const int w = WindowAt(now);
  if (w < 0) return;
  windows_.delivered[w]++;
  windows_.lat_us[w].push_back(static_cast<double>(now - m.sent_at.count()) / 1e3);
}

std::vector<std::string> LedgerViolations(LoadBook& book, std::uint64_t launched) {
  std::vector<std::string> out;
  const auto t = book.ledger().Count(1, launched + 1);
  if (book.unknown() > 0) {
    out.push_back("unknown message delivered (" + std::to_string(book.unknown()) + ")");
  }
  if (t.phantom > 0) {
    out.push_back("message delivered more often than sent (" +
                  std::to_string(t.phantom) + ")");
  }
  if (t.unsent > 0) out.push_back("never-sent sequence delivered");
  const double delivered = static_cast<double>(t.attempted - t.lost);
  if (t.attempted == 0 || delivered < 0.99 * static_cast<double>(t.attempted)) {
    out.push_back("delivered below 99% of offered after the drain (" +
                  std::to_string(t.attempted - t.lost) + "/" + std::to_string(t.attempted) + ")");
  }
  return out;
}

// ---------------------------------------------------------- BenchClient

std::int64_t BenchClient::Clock() const {
  return plan_.sim ? env_->now().count() : NowNs();
}

void BenchClient::OnStart(Env& env) {
  env_ = &env;
  Launch(0, Clock());  // the set-up probe
  env.SetTimer(plan_.retry_tick, [this] { OnRetryTick(); });
}

void BenchClient::Transmit(std::uint64_t seq, std::int64_t sent_at) {
  const ClientTarget& t = plan_.targets[plan_.target_of[seq]];
  env_->Send(t.coordinator,
             mrp::MakeMessage<mrp::ringpaxos::Submit>(
                 t.ring, MakeClientMsg(plan_, env_->self(), seq, sent_at)));
  book_.ledger().NoteSent(seq);
  ++transmissions_;
}

void BenchClient::Launch(std::uint64_t seq, std::int64_t sent_at) {
  inflight_[seq] = InFlight{sent_at, Clock()};
  outstanding_count_.store(inflight_.size(), std::memory_order_relaxed);
  Transmit(seq, sent_at);
}

void BenchClient::Begin(std::int64_t start_ns) {
  begun_ = true;
  start_ = plan_.sim ? env_->now().count() : start_ns;
  if (plan_.open_loop()) {
    OnDue();
    return;
  }
  for (std::size_t i = 0; i < plan_.window && next_seq_ < plan_.capacity(); ++i) {
    Launch(next_seq_++, Clock());
  }
}

void BenchClient::OnDue() {
  if (stop_.load(std::memory_order_relaxed)) return;
  const std::int64_t now = Clock();
  while (next_seq_ < plan_.capacity() &&
         start_ + plan_.due_ns[next_seq_ - 1] <= now) {
    // Open-loop latency runs from when the message was due.
    const std::int64_t due = start_ + plan_.due_ns[next_seq_ - 1];
    if (!plan_.sim) gen_lag_us_.push_back(static_cast<double>(now - due) / 1e3);
    Launch(next_seq_++, due);
  }
  SampleBacklog();
  if (next_seq_ < plan_.capacity()) {
    const std::int64_t wait = start_ + plan_.due_ns[next_seq_ - 1] - Clock();
    env_->SetTimer(mrp::Duration(std::max<std::int64_t>(wait, 0)), [this] { OnDue(); });
  }
}

void BenchClient::SampleBacklog() {
  const int w = book_.WindowAt(book_.Now());
  if (w > sampled_window_) {
    sampled_window_ = w;
    backlog_.push_back(inflight_.size());
  }
}

void BenchClient::OnMessage(Env& /*env*/, NodeId /*from*/, const MessagePtr& m) {
  const auto* ack = mrp::Cast<mrp::ringpaxos::DeliveryAck>(m);
  if (ack == nullptr) return;
  auto it = inflight_.find(ack->seq);
  if (it == inflight_.end()) return;  // ack of a retransmitted duplicate
  inflight_.erase(it);
  outstanding_count_.store(inflight_.size(), std::memory_order_relaxed);
  const int w = book_.WindowAt(book_.Now());
  if (w >= 0 && ack->seq != 0) book_.windows().completed[w]++;
  if (begun_ && !plan_.open_loop() && !stop_.load(std::memory_order_relaxed) &&
      next_seq_ < plan_.capacity()) {
    Launch(next_seq_++, Clock());
  }
  SampleBacklog();
}

void BenchClient::OnRetryTick() {
  const std::int64_t now = Clock();
  for (auto& [seq, f] : inflight_) {
    if (now - f.last_send >= plan_.retry_timeout.count()) {
      f.last_send = now;
      ++retransmits_;
      Transmit(seq, f.sent_at);
    }
  }
  env_->SetTimer(plan_.retry_tick, [this] { OnRetryTick(); });
}

}  // namespace perfbench
