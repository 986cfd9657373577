// The bench-owned load generator and the ledger it shares with the
// merge learner's delivery tap. The client speaks only wire messages —
// ringpaxos::Submit out, ringpaxos::DeliveryAck back — so the same
// object runs unchanged on the simulator and on a real NodeRuntime. It
// never decides what to send: the whole schedule (arrival times, target
// ring, payload bytes) is generated from the workload seed before the
// deployment starts. Unacknowledged messages are retransmitted on a
// timeout, like a real client; every retransmission is counted.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/types.h"
#include "paxos/value.h"
#include "stats.h"

namespace perfbench {

struct ClientTarget {
  mrp::RingId ring = 0;
  mrp::GroupId group = 0;
  mrp::NodeId coordinator = mrp::kNoNode;
};

// Everything the client sends, fixed before the run. Sequence 0 is the
// set-up probe; the schedule proper uses sequences 1..capacity-1.
struct ClientPlan {
  std::vector<ClientTarget> targets;
  std::uint32_t payload_size = 1024;
  std::uint64_t payload_key = 0;
  // Open loop: due time of sequence i+1 in ns after Begin(). Empty
  // means closed loop with `window` messages in flight.
  std::vector<std::int64_t> due_ns;
  // Target index of every sequence (size = capacity).
  std::vector<std::uint16_t> target_of;
  std::size_t window = 0;
  mrp::Duration retry_timeout = mrp::Millis(200);
  mrp::Duration retry_tick = mrp::Millis(20);
  // Simulator mode: schedule and stamp on the Env clock (simulated time)
  // instead of the bench's steady clock, and send payload_size without
  // payload bytes, as the simulator's own workloads do (it charges
  // bandwidth and CPU for the size; the bytes would only be copied).
  bool sim = false;

  std::uint64_t capacity() const { return target_of.size(); }
  bool open_loop() const { return !due_ns.empty(); }
};

// Builds a plan from `seed`: Poisson arrivals at `rate_per_sec` for
// `duration_ns` split over targets by `weights` (open loop), or a
// closed loop of `window` over at most `capacity` sequences.
ClientPlan OpenLoopPlan(std::uint64_t seed, std::vector<ClientTarget> targets,
                        const std::vector<double>& weights, double rate_per_sec,
                        std::int64_t duration_ns, std::uint32_t payload_size);
ClientPlan ClosedLoopPlan(std::uint64_t seed, std::vector<ClientTarget> targets,
                          std::size_t window, std::uint64_t capacity,
                          std::uint32_t payload_size);

// First 8 payload bytes of sequence `seq` (the rest is filler); empty
// payload in simulator mode.
std::uint64_t PayloadTag(std::uint64_t key, std::uint64_t seq);
mrp::paxos::ClientMsg MakeClientMsg(const ClientPlan& plan, mrp::NodeId self,
                                    std::uint64_t seq, std::int64_t sent_at_ns);

// Shared between the client (sends, acks), the learner's delivery tap
// and the main thread. Each array has one writer thread; the main
// thread reads after the cluster is stopped.
class LoadBook {
 public:
  // `clock` is the bench clock in ns: the steady clock on the runtime,
  // simulated time on the simulator.
  LoadBook(const ClientPlan& plan, mrp::NodeId client, std::size_t windows,
           std::int64_t window_ns, std::function<std::int64_t()> clock = NowNs);

  std::int64_t Now() const { return clock_(); }

  // Learner-side delivery tap (MergeLearner::Options::on_deliver).
  void OnDeliver(const mrp::paxos::ClientMsg& m);

  // Starts sampling: deliveries at [start, start + windows*window_ns)
  // land in windows; others are counted but not sampled.
  void StartMeasuring(std::int64_t start_ns) { measure_start_.store(start_ns); }
  int WindowAt(std::int64_t now_ns) const;

  bool probe_delivered() const { return probe_delivered_.load(); }
  std::uint64_t unknown() const { return unknown_.load(); }
  std::uint64_t distinct_delivered() const { return distinct_.load(); }

  ExactlyOnceLedger& ledger() { return ledger_; }
  Windows& windows() { return windows_; }

 private:
  const ClientPlan& plan_;
  mrp::NodeId client_;
  std::int64_t window_ns_;
  std::function<std::int64_t()> clock_;
  ExactlyOnceLedger ledger_;
  Windows windows_;
  std::atomic<std::int64_t> measure_start_{-1};
  std::atomic<bool> probe_delivered_{false};
  std::atomic<std::uint64_t> unknown_{0};
  std::atomic<std::uint64_t> distinct_{0};
};

// Self-check of a finished run over sequences 1..launched: unknown or
// phantom deliveries, and deliveries below 99% of what was sent after
// the drain. Returns one line per violation (empty when clean).
std::vector<std::string> LedgerViolations(LoadBook& book, std::uint64_t launched);

class BenchClient final : public mrp::Protocol {
 public:
  BenchClient(const ClientPlan& plan, LoadBook& book) : plan_(plan), book_(book) {}

  void OnStart(mrp::Env& env) override;
  void OnMessage(mrp::Env& env, mrp::NodeId from, const mrp::MessagePtr& m) override;

  // Starts the schedule at bench time `start_ns` (runtime) or at the
  // current simulated time. Call on the client's execution context.
  void Begin(std::int64_t start_ns);
  // Stops issuing new sequences; retransmission continues (the drain).
  void StopIssuing() { stop_.store(true); }

  std::size_t outstanding() const { return outstanding_count_.load(); }
  std::uint64_t transmissions() const { return transmissions_; }
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t launched() const { return next_seq_ - 1; }
  const std::vector<double>& gen_lag_us() const { return gen_lag_us_; }
  // Outstanding sequences sampled at each window boundary.
  const std::vector<std::size_t>& backlog() const { return backlog_; }

 private:
  struct InFlight {
    std::int64_t sent_at = 0;    // stamp carried in the message
    std::int64_t last_send = 0;  // client clock
  };

  std::int64_t Clock() const;
  void Transmit(std::uint64_t seq, std::int64_t sent_at);
  void Launch(std::uint64_t seq, std::int64_t sent_at);
  void OnDue();
  void OnRetryTick();
  void SampleBacklog();

  const ClientPlan& plan_;
  LoadBook& book_;
  mrp::Env* env_ = nullptr;
  std::atomic<bool> stop_{false};
  bool begun_ = false;
  std::int64_t start_ = 0;
  std::uint64_t next_seq_ = 1;
  std::map<std::uint64_t, InFlight> inflight_;
  std::atomic<std::size_t> outstanding_count_{0};
  std::uint64_t transmissions_ = 0;
  std::uint64_t retransmits_ = 0;
  std::vector<double> gen_lag_us_;
  std::vector<std::size_t> backlog_;
  int sampled_window_ = -1;
};

}  // namespace perfbench
