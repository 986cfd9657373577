#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <thread>
#include <utility>

#include "client.h"
#include "multiring/merge_learner.h"
#include "multiring/sim_deployment.h"
#include "ringpaxos/config.h"
#include "ringpaxos/ring_node.h"
#include "runtime/inproc.h"
#include "runtime/node_runtime.h"
#include "runtime/udp.h"
#include "session/client.h"
#include "session/lease.h"
#include "session/messages.h"
#include "smr/command.h"
#include "smr/replica.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

using mrp::Duration;
using mrp::Millis;
using mrp::NodeId;
namespace rp = mrp::ringpaxos;
namespace rt = mrp::runtime;

// ------------------------------------------------------------ constants

// Runtime workloads: one ring of two acceptors, one merge learner, one
// client — four event-loop threads, the machine's core count.
constexpr std::size_t kBatchBytes = 8 * 1024;
constexpr std::uint32_t kRuntimePayload = 1024;
constexpr std::size_t kUdpWindow = 64;
// Sequence budget of the closed loop, far above what one ring reaches.
constexpr double kClosedLoopMaxRate = 200'000;
constexpr double kInprocRate = 16'000;  // msgs/s, open loop
constexpr double kRuntimeWarmupS = 0.5;
constexpr double kWindowS = 0.25;
constexpr int kRuntimeSetups = 15;
// Acceptor log retention. Values decoded from UDP frames keep their
// whole receive buffer alive, so the default 50k-instance retention
// would hold gigabytes; 512 instances is ~90 ms of history at 46k msgs/s.
constexpr std::size_t kRuntimeTrimKeep = 512;
constexpr double kDrainS = 3.0;
// A runtime workload whose batches mostly close on the batch timer
// measures the 1 ms timeout, not the code.
constexpr double kMaxUnderfullFrac = 0.5;

// sim_merge16: 16 rings, one merge learner on all 16 groups.
constexpr int kMergeRings = 16;
constexpr std::uint32_t kMergePayload = 128;
constexpr double kMergeBaseRate = 16'000;  // msgs/s per cold ring (sim time)
constexpr double kMergeHotFactor = 1.5;
// Instances/s, above every ring's own rate: with an 8 KiB batch (53
// messages) and a 5 ms batch timer that also closes a partial batch
// after each full one, the hot ring proposes ~600 instances/s and the
// cold rings ~400. Every ring skips up to lambda, so none outruns the
// merge and the learner's backlog stays flat.
constexpr double kMergeLambda = 1000;
constexpr Duration kMergeBatchTimeout = Millis(5);
constexpr Duration kMergeEpisode = Millis(400);
constexpr Duration kSimDrain = Millis(300);
// Acceptor log retention in the simulator. Host memory contention slows
// cache-missing code most, so a working set that the default 50k-
// instance logs would grow is kept small instead.
constexpr std::size_t kSimTrimKeep = 256;

// sim_kv: the partitioned KV service on one ring.
constexpr int kKvClients = 16;
constexpr std::size_t kKvWindow = 4;
constexpr std::uint64_t kKvOpsPerClient = 8000;
constexpr Duration kKvDeadline = mrp::Seconds(20);

const char* kFailedNote = "failed = attempted - completed exactly once";

// ---------------------------------------------------------- measurement

struct Measurement {
  double delivered_per_s = 0;
  double ops_per_s = 0;
  double lat_p50_us = 0;
  double lat_p99_us = 0;
  double lat_p999_us = 0;
  std::size_t lat_samples = 0;
  double setup_s = 0;
  double cpu_us_per_msg = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::string> log;
  std::map<std::string, double> layers;  // traced runs only
};

void Check(Measurement& m, bool ok, const std::string& what) {
  if (!ok) m.failures.push_back(what);
}

void Log(Measurement& m, const char* fmt, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, fmt, args...);
  m.log.emplace_back(buf);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void SleepUntil(std::int64_t t_ns) {
  const std::int64_t now = NowNs();
  if (t_ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Shared end-of-run ledger checks for the three multicast workloads.
void CheckLedger(Measurement& m, LoadBook& book, const BenchClient& client) {
  const auto t = book.ledger().Count(1, client.launched() + 1);
  m.attempted += t.attempted;
  m.failed += t.attempted - t.exactly_once;
  for (auto& v : LedgerViolations(book, client.launched())) m.failures.push_back(std::move(v));
  Log(m, "ledger: attempted=%llu exactly_once=%llu lost=%llu duplicated=%llu "
         "retransmits=%llu failed_frac=%.6f (%s)",
      static_cast<unsigned long long>(t.attempted),
      static_cast<unsigned long long>(t.exactly_once),
      static_cast<unsigned long long>(t.lost),
      static_cast<unsigned long long>(t.duplicated),
      static_cast<unsigned long long>(client.retransmits()),
      FailedFrac(t.attempted, t.exactly_once), kFailedNote);
}

// ---------------------------------------------------------- layer report

struct LayerInputs {
  Tracer* tracer = nullptr;
  double delivered = 0;   // distinct messages (or KV ops) in the traced span
  double measured_s = 0;  // wall length of the traced span
  bool sim = false;
  bool runtime = false;
  std::uint64_t sim_events = 0;
  double sim_run_ns = 0;
  std::vector<rt::UdpTransport*> udp;
  double writes_applied = 0;
  double client_retry_frac = 0;
  double gen_lag_p99_us = 0;
};

std::map<std::string, double> LayerMetrics(const LayerInputs& in) {
  std::map<std::string, double> L;
  double coord = 0, acc = 0, learner = 0, all_self = 0, busy = 0, sends = 0;
  double send_ns = 0, tsend_ns = 0, tsends = 0, sent_msgs = 0, sent_bytes = 0;
  double batches = 0, batch_msgs = 0, underfull = 0, skips = 0, learnreqs = 0;
  double expected = 0, received = 0, replica_ring_self = 0, read_self = 0;
  double reads = 0, client_self = 0, max_busy = 0;
  std::vector<double> qwait, late, hold;
  for (const auto& n : in.tracer->nodes()) {
    const double self = static_cast<double>(n->handler_self_ns + n->timer_self_ns);
    all_self += self;
    busy += static_cast<double>(n->busy_ns);
    max_busy = std::max(max_busy, static_cast<double>(n->busy_ns));
    if (n->role == Role::kCoordinator) coord += self;
    if (n->role == Role::kAcceptor) acc += self;
    if (n->role == Role::kLearner) learner += self;
    if (n->role == Role::kClient) client_self += self;
    if (n->role == Role::kReplica) {
      for (const auto& [type, cs] : n->rx_by_type) {
        if (std::string(type) == "session.SessionRead") {
          read_self += static_cast<double>(cs.second);
          reads += static_cast<double>(cs.first);
        } else if (std::string(type).rfind("ring.", 0) == 0) {
          replica_ring_self += static_cast<double>(cs.second);
        }
      }
    }
    sends += static_cast<double>(n->env_sends);
    send_ns += static_cast<double>(n->env_send_ns);
    tsend_ns += static_cast<double>(n->transport_send_ns);
    tsends += static_cast<double>(n->transport_sends);
    for (const auto& [type, cb] : n->sent_by_type) {
      sent_msgs += static_cast<double>(cb.first);
      sent_bytes += static_cast<double>(cb.second);
    }
    batches += static_cast<double>(n->batches);
    batch_msgs += static_cast<double>(n->batch_msgs);
    underfull += static_cast<double>(n->underfull);
    skips += static_cast<double>(n->skips);
    learnreqs += static_cast<double>(n->learn_reqs);
    expected += static_cast<double>(n->expected_rx);
    received += static_cast<double>(n->rx_msgs.load());
    qwait.insert(qwait.end(), n->queue_wait_us.begin(), n->queue_wait_us.end());
    late.insert(late.end(), n->timer_late_us.begin(), n->timer_late_us.end());
    hold.insert(hold.end(), n->hold_us.begin(), n->hold_us.end());
  }
  const double d = in.delivered;
  L["ringpaxos.coord_ns_per_msg"] = Ratio(coord, d);
  L["ringpaxos.acceptor_ns_per_msg"] = Ratio(acc, d);
  L["ringpaxos.msgs_per_batch"] = Ratio(batch_msgs, batches);
  L["ringpaxos.underfull_batch_frac"] = Ratio(underfull, batches);
  L["ringpaxos.skip_frac"] = Ratio(skips, batches + skips);
  L["ringpaxos.sent_msgs_per_msg"] = Ratio(sent_msgs, d);
  L["ringpaxos.sent_bytes_per_msg"] = Ratio(sent_bytes, d);
  L["multiring.learner_ns_per_msg"] = Ratio(learner, d);
  L["multiring.hold_us_p50"] = Percentile(hold, 50);
  L["multiring.hold_us_p99"] = Percentile(hold, 99);
  L["multiring.learnreq_per_kmsg"] = Ratio(1000 * learnreqs, d);
  if (in.runtime) {
    L["runtime.queue_wait_us_p50"] = Percentile(qwait, 50);
    L["runtime.queue_wait_us_p99"] = Percentile(qwait, 99);
    L["runtime.timer_late_us_p99"] = Percentile(late, 99);
    L["runtime.busiest_node_busy_frac"] = Ratio(max_busy, in.measured_s * 1e9);
    L["net.send_call_ns"] = Ratio(tsend_ns, tsends);
    L["net.frame_loss_frac"] = expected > 0 ? std::max(0.0, 1 - received / expected) : 0;
  }
  double txf = 0, txb = 0, rxf = 0, rxb = 0;
  for (auto* u : in.udp) {
    txf += static_cast<double>(u->tx_frames());
    txb += static_cast<double>(u->tx_batches());
    rxf += static_cast<double>(u->rx_frames());
    rxb += static_cast<double>(u->rx_batches());
  }
  L["net.tx_frames_per_batch"] = Ratio(txf, txb);
  L["net.rx_frames_per_batch"] = Ratio(rxf, rxb);
  const CodecReplay codec = ReplayCodec(in.tracer->TakeCaptured());
  L["net.encode_ns_per_kb"] = codec.encode_ns_per_kb;
  L["net.decode_ns_per_kb"] = codec.decode_ns_per_kb;
  L["net.wiresize_drift_frac"] = codec.wiresize_drift_frac;
  if (in.sim) {
    L["sim.events_per_msg"] = Ratio(static_cast<double>(in.sim_events), d);
    L["sim.sched_ns_per_event"] =
        Ratio(std::max(0.0, in.sim_run_ns - busy), static_cast<double>(in.sim_events));
    L["sim.net_call_ns_per_send"] = Ratio(send_ns, sends);
    L["sim.handler_ns_per_msg"] = Ratio(all_self, d);
  }
  if (in.writes_applied > 0) {
    L["smr.apply_ns_per_write"] = Ratio(replica_ring_self, in.writes_applied);
    L["smr.local_read_ns"] = Ratio(read_self, reads);
    L["session.client_ns_per_op"] = Ratio(client_self, d);
  }
  L["client.retry_frac"] = in.client_retry_frac;
  L["client.gen_lag_p99_us"] = in.gen_lag_p99_us;
  return L;
}

void WriteSpans(Tracer& tracer, const RunOptions& o) {
  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);
  const std::string path =
      o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed) + ".spans.jsonl";
  std::ofstream os(path);
  if (os) tracer.WriteSpans(os);
}

std::unique_ptr<mrp::Protocol> Wrap(std::unique_ptr<mrp::Protocol> p, Tracer& tracer,
                                    NodeId id, Role role, RxStamps* rx,
                                    TracedProtocol** out = nullptr) {
  auto tp = std::make_unique<TracedProtocol>(std::move(p), tracer,
                                             tracer.AddNode(id, role), rx);
  if (out != nullptr) *out = tp.get();
  return tp;
}

// ------------------------------------------------------ runtime workloads

// One ring (nodes 0 and 1), a merge learner (2) and the bench client (3)
// on real event loops. Untraced it is a LocalCluster, with only the
// coordinator wrapped (in counting mode, for the batch-timer check);
// traced, every node is a NodeRuntime over a TracedTransport.
class RuntimeRig {
 public:
  RuntimeRig(bool udp, bool traced, const ClientPlan& plan, std::size_t windows,
             std::uint16_t port_base)
      : traced_(traced),
        udp_(udp),
        tracer_(traced ? Tracer::Mode::kFull : Tracer::Mode::kCount, kBatchBytes),
        book_(plan, 3, windows, static_cast<std::int64_t>(kWindowS * 1e9)) {
    udp_cfg_.base_port = port_base;
    udp_cfg_.mcast_port_base = static_cast<std::uint16_t>(port_base + 100);
    if (!traced) {
      cluster_ = std::make_unique<rt::LocalCluster>(
          udp ? rt::LocalCluster::Kind::kUdp : rt::LocalCluster::Kind::kInProc, udp_cfg_);
    }
    rp::RingConfig cfg;
    cfg.ring = 0;
    cfg.group = 0;
    cfg.ring_members = {0, 1};
    cfg.data_channel = 0;
    cfg.control_channel = 1;
    cfg.batch_bytes = kBatchBytes;
    cfg.trim_keep = kRuntimeTrimKeep;
    const std::vector<mrp::ChannelId> ring_channels = {0, 1};
    Add(std::make_unique<rp::RingNode>(cfg), ring_channels, Role::kCoordinator);
    Add(std::make_unique<rp::RingNode>(cfg), ring_channels, Role::kAcceptor);
    mrp::multiring::MergeLearner::Options lo;
    rp::LearnerOptions g;
    g.ring = cfg;
    lo.groups.push_back(g);
    lo.send_delivery_acks = true;
    lo.on_deliver = [this](mrp::GroupId, const mrp::paxos::ClientMsg& m) {
      book_.OnDeliver(m);
      if (learner_tp_ != nullptr) learner_tp_->NoteDelivered(m);
    };
    Add(std::make_unique<mrp::multiring::MergeLearner>(std::move(lo)), ring_channels,
        Role::kLearner, &learner_tp_);
    auto client = std::make_unique<BenchClient>(plan, book_);
    client_ = client.get();
    Add(std::move(client), {}, Role::kClient);
  }

  ~RuntimeRig() { Stop(); }

  void Start() {
    if (cluster_) {
      cluster_->Start();
      return;
    }
    for (auto& u : udp_transports_) u->Start();
    for (auto& n : nodes_) n->Start();
  }

  void Stop() {
    if (cluster_) {
      cluster_->Stop();
      return;
    }
    for (auto& n : nodes_) n->Stop();
    for (auto& u : udp_transports_) u->Stop();
  }

  rt::NodeRuntime& node(NodeId id) { return cluster_ ? cluster_->node(id) : *nodes_[id]; }
  Tracer& tracer() { return tracer_; }
  LoadBook& book() { return book_; }
  BenchClient& client() { return *client_; }
  std::vector<rt::UdpTransport*> udp_transports() {
    std::vector<rt::UdpTransport*> out;
    for (auto& u : udp_transports_) out.push_back(u.get());
    return out;
  }

 private:
  void Add(std::unique_ptr<mrp::Protocol> p, const std::vector<mrp::ChannelId>& subs,
           Role role, TracedProtocol** tp = nullptr) {
    const NodeId id = next_id_++;
    if (!traced_) {
      if (role == Role::kCoordinator) p = Wrap(std::move(p), tracer_, id, role, nullptr);
      cluster_->AddNode(std::move(p), subs);
      return;
    }
    rt::Transport* inner = nullptr;
    if (udp_) {
      udp_transports_.push_back(std::make_unique<rt::UdpTransport>(id, udp_cfg_));
      inner = udp_transports_.back().get();
    } else {
      inner = &bus_.AddEndpoint(id);
    }
    stamps_.push_back(std::make_unique<RxStamps>());
    auto wrapped = Wrap(std::move(p), tracer_, id, role, stamps_.back().get(), tp);
    NodeStats& st = *tracer_.nodes().back();
    transports_.push_back(
        std::make_unique<TracedTransport>(*inner, tracer_, st, *stamps_.back()));
    for (mrp::ChannelId ch : subs) transports_.back()->Subscribe(ch);
    nodes_.push_back(
        std::make_unique<rt::NodeRuntime>(id, std::move(wrapped), *transports_.back()));
  }

  bool traced_;
  bool udp_;
  Tracer tracer_;
  LoadBook book_;
  rt::UdpConfig udp_cfg_;
  BenchClient* client_ = nullptr;
  TracedProtocol* learner_tp_ = nullptr;
  NodeId next_id_ = 0;
  // Traced assembly; nodes are declared last so they stop and die first.
  rt::InProcBus bus_;
  std::vector<std::unique_ptr<rt::UdpTransport>> udp_transports_;
  std::vector<std::unique_ptr<RxStamps>> stamps_;
  std::vector<std::unique_ptr<TracedTransport>> transports_;
  std::vector<std::unique_ptr<rt::NodeRuntime>> nodes_;
  std::unique_ptr<rt::LocalCluster> cluster_;
};

Measurement RunRuntime(const RunOptions& o, bool udp, bool traced, double seconds) {
  Measurement m;
  const bool open_loop = !udp;
  const std::vector<ClientTarget> targets = {ClientTarget{0, 0, 0}};
  const double span_s = kRuntimeWarmupS + seconds;
  const ClientPlan plan =
      open_loop ? OpenLoopPlan(o.seed, targets, {1.0}, kInprocRate,
                               static_cast<std::int64_t>(span_s * 1e9), kRuntimePayload)
                : ClosedLoopPlan(o.seed, targets, kUdpWindow,
                                 static_cast<std::uint64_t>(kClosedLoopMaxRate * (span_s + 1)),
                                 kRuntimePayload);
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds / kWindowS + 0.5));
  // Per-process ports, so concurrent runs on one host do not cross-talk.
  const auto port_base = static_cast<std::uint16_t>(20000 + (getpid() % 400) * 100);

  std::vector<double> setups;
  std::unique_ptr<RuntimeRig> rig;
  for (int k = 0; k < kRuntimeSetups; ++k) {
    rig.reset();
    const std::int64_t t0 = NowNs();
    rig = std::make_unique<RuntimeRig>(udp, traced, plan, windows,
                                       static_cast<std::uint16_t>(port_base + 10 * k));
    rig->Start();
    while (!rig->book().probe_delivered() && NowNs() - t0 < 10'000'000'000LL) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    if (!rig->book().probe_delivered()) {
      Check(m, false, "set-up never delivered its first message");
      return m;
    }
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  m.setup_s = Median(setups);

  BenchClient& client = rig->client();
  const std::int64_t start = NowNs() + 2'000'000;
  rig->node(3).loop().Post([&client, start] { client.Begin(start); });
  const std::int64_t mstart = start + static_cast<std::int64_t>(kRuntimeWarmupS * 1e9);
  rig->book().StartMeasuring(mstart);
  SleepUntil(mstart);
  rig->tracer().SetMeasuring(true);
  // Process CPU time per window (all threads), sampled at the window
  // boundaries.
  std::vector<double> cpu_ns(windows, 0);
  std::int64_t cpu_prev = ProcessCpuNs();
  for (std::size_t i = 0; i < windows; ++i) {
    SleepUntil(mstart + static_cast<std::int64_t>((i + 1) * kWindowS * 1e9));
    const std::int64_t c = ProcessCpuNs();
    cpu_ns[i] = static_cast<double>(c - cpu_prev);
    cpu_prev = c;
  }
  rig->tracer().SetMeasuring(false);
  client.StopIssuing();
  const std::int64_t drain_end = NowNs() + static_cast<std::int64_t>(kDrainS * 1e9);
  while (client.outstanding() > 0 && NowNs() < drain_end) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rig->Stop();

  Windows& w = rig->book().windows();
  for (auto& s : w.seconds) s = kWindowS;
  m.delivered_per_s = Quantile(w.Rates(w.delivered), kRateQuantile);
  m.ops_per_s = Quantile(w.Rates(w.completed), kRateQuantile);
  m.lat_p50_us = Quantile(w.Percentiles(50), kTimeQuantile);
  m.lat_p99_us = Quantile(w.Percentiles(99), kTimeQuantile);
  const auto window_total =
      std::accumulate(w.delivered.begin(), w.delivered.end(), std::uint64_t{0});
  std::vector<double> cpu_per_msg;
  for (std::size_t i = 0; i < windows; ++i) {
    if (w.delivered[i] > 0) {
      cpu_per_msg.push_back(cpu_ns[i] / 1e3 / static_cast<double>(w.delivered[i]));
    }
  }
  m.cpu_us_per_msg = Quantile(cpu_per_msg, kTimeQuantile);
  const std::vector<double> all = w.AllLatencies();
  m.lat_samples = all.size();
  m.lat_p999_us = Percentile(all, 99.9);
  CheckLedger(m, rig->book(), client);

  // Batch shape from the coordinator's decorator (counting in any mode).
  const NodeStats& coord = *rig->tracer().nodes().front();
  const double underfull = Ratio(static_cast<double>(coord.underfull),
                                 static_cast<double>(coord.batches));
  Check(m, coord.batches > 0 && underfull <= kMaxUnderfullFrac,
        "batch-timer paced: underfull_batch_frac=" + std::to_string(underfull));
  const double gen_lag_p99 = Percentile(client.gen_lag_us(), 99);
  if (open_loop) {
    const auto& b = client.backlog();
    if (b.size() >= 3) {
      std::vector<double> first(b.begin(), b.begin() + static_cast<long>(b.size() / 3));
      const double head = Median(first);
      const double tail = static_cast<double>(*std::max_element(
          b.end() - static_cast<long>(b.size() / 3), b.end()));
      Check(m, tail <= std::max(2 * head, 0.05 * kInprocRate),
            "open-loop backlog grows: " + std::to_string(head) + " -> " +
                std::to_string(tail));
    }
  }
  {
    std::string rates;
    for (std::size_t i = 0; i < w.size(); ++i) {
      rates += std::to_string(static_cast<long long>(
                   static_cast<double>(w.delivered[i]) / kWindowS)) + " ";
    }
    Log(m, "window rates (msgs/s): %s", rates.c_str());
  }
  Log(m, "latency: samples=%zu p50=%.1fus p99=%.1fus p99.9=%.1fus (10th percentile "
         "over %zu windows of %.2fs; p99.9 over all samples)",
      m.lat_samples, m.lat_p50_us, m.lat_p99_us, m.lat_p999_us, w.size(), kWindowS);
  Log(m, "batches: %llu, msgs/batch %.2f, underfull %.3f; gen_lag_p99=%.1fus; "
         "setups=%d median %.4fs",
      static_cast<unsigned long long>(coord.batches),
      Ratio(static_cast<double>(coord.batch_msgs), static_cast<double>(coord.batches)),
      underfull, gen_lag_p99, kRuntimeSetups, m.setup_s);

  if (traced) {
    LayerInputs in;
    in.tracer = &rig->tracer();
    in.delivered = static_cast<double>(window_total);
    in.measured_s = static_cast<double>(windows) * kWindowS;
    in.runtime = true;
    in.udp = rig->udp_transports();
    in.client_retry_frac = Ratio(static_cast<double>(client.retransmits()),
                                 static_cast<double>(client.transmissions()));
    in.gen_lag_p99_us = gen_lag_p99;
    m.layers = LayerMetrics(in);
    WriteSpans(rig->tracer(), o);
  }
  return m;
}

// ---------------------------------------------------------- sim workloads

// One fixed-size simulator run. Its throughput and latency are in
// simulated time, fixed by the seed; its cost is the simulating thread's
// CPU time.
struct Episode {
  double setup_s = 0;
  double sim_s = 0;  // simulated seconds the load ran
  double cpu_s = 0;  // simulating thread's CPU seconds
  std::uint64_t delivered = 0;
  std::uint64_t ops = 0;
  std::uint64_t events = 0;
  double lat_p50_us = 0, lat_p99_us = 0, lat_p999_us = 0;
  std::size_t lat_samples = 0;
  std::uint64_t client_retries = 0;
  std::uint64_t client_transmissions = 0;
  double writes_applied = 0;

  void SetLatencies(const std::vector<double>& us) {
    lat_p50_us = Percentile(us, 50);
    lat_p99_us = Percentile(us, 99);
    lat_p999_us = Percentile(us, 99.9);
    lat_samples = us.size();
  }
};

// Node spec for load generators: clients are never the bottleneck.
mrp::sim::NodeSpec ClientSpec() {
  mrp::sim::NodeSpec spec;
  spec.infinite_cpu = true;
  return spec;
}

// Runs `d` in 1 ms steps until `done()`; false on timeout.
bool RunUntil(mrp::multiring::SimDeployment& d, const std::function<bool()>& done,
              Duration limit) {
  for (Duration t{0}; t < limit; t += Millis(1)) {
    if (done()) return true;
    d.RunFor(Millis(1));
  }
  return done();
}

Episode MergeEpisode(const RunOptions& o, const ClientPlan& plan, Tracer& tracer,
                     bool traced, Measurement& m) {
  Episode e;
  const std::int64_t t0 = NowNs();
  mrp::multiring::DeploymentOptions dopts;
  dopts.n_rings = kMergeRings;
  dopts.ring_size = 2;
  dopts.lambda_per_sec = kMergeLambda;
  dopts.batch_bytes = kBatchBytes;
  dopts.batch_timeout = kMergeBatchTimeout;
  dopts.trim_keep = kSimTrimKeep;
  dopts.net.seed = o.seed;
  mrp::multiring::SimDeployment d(dopts);
  if (traced) {
    for (int r = 0; r < kMergeRings; ++r) {
      for (int i = 0; i < 2; ++i) {
        auto* node = d.acceptor_node(r, i);
        node->BindProtocol(Wrap(std::make_unique<rp::RingNode>(d.ring(r)), tracer,
                                node->self(), i == 0 ? Role::kCoordinator : Role::kAcceptor,
                                nullptr));
      }
    }
  }
  // Node ids: 2 per ring, then the learner, then the client.
  const NodeId client_id = static_cast<NodeId>(2 * kMergeRings + 1);
  LoadBook book(plan, client_id, 1, INT64_MAX / 4, [&d] { return d.net().now().count(); });
  TracedProtocol* learner_tp = nullptr;
  {
    mrp::multiring::MergeLearner::Options lo;
    auto& node = d.net().AddNode();
    for (int r = 0; r < kMergeRings; ++r) {
      rp::LearnerOptions g;
      g.ring = d.ring(r);
      lo.groups.push_back(g);
      d.net().Subscribe(node.self(), d.ring(r).data_channel);
      d.net().Subscribe(node.self(), d.ring(r).control_channel);
    }
    lo.send_delivery_acks = true;
    lo.on_deliver = [&book, &learner_tp](mrp::GroupId, const mrp::paxos::ClientMsg& msg) {
      book.OnDeliver(msg);
      if (learner_tp != nullptr) learner_tp->NoteDelivered(msg);
    };
    std::unique_ptr<mrp::Protocol> p =
        std::make_unique<mrp::multiring::MergeLearner>(std::move(lo));
    if (traced) p = Wrap(std::move(p), tracer, node.self(), Role::kLearner, nullptr, &learner_tp);
    node.BindProtocol(std::move(p));
  }
  auto client_owned = std::make_unique<BenchClient>(plan, book);
  BenchClient& client = *client_owned;
  {
    auto& node = d.net().AddNode(ClientSpec());
    if (node.self() != client_id) Check(m, false, "unexpected client node id");
    std::unique_ptr<mrp::Protocol> p = std::move(client_owned);
    if (traced) p = Wrap(std::move(p), tracer, node.self(), Role::kClient, nullptr);
    node.BindProtocol(std::move(p));
  }
  d.Start();
  if (!RunUntil(d, [&] { return book.probe_delivered(); }, mrp::Seconds(5))) {
    Check(m, false, "set-up never delivered its first message");
    return e;
  }
  e.setup_s = static_cast<double>(NowNs() - t0) / 1e9;

  auto& sched = d.net().scheduler();
  const std::uint64_t ev0 = sched.events_run();
  client.Begin(0);
  book.StartMeasuring(book.Now());
  tracer.SetMeasuring(true);
  const std::int64_t c0 = ThreadCpuNs();
  d.RunFor(kMergeEpisode);
  client.StopIssuing();
  d.RunFor(kSimDrain);
  e.cpu_s = static_cast<double>(ThreadCpuNs() - c0) / 1e9;
  tracer.SetMeasuring(false);
  e.sim_s = mrp::ToSeconds(kMergeEpisode);
  e.events = sched.events_run() - ev0;
  e.delivered = book.distinct_delivered();
  e.ops = book.windows().completed[0];
  e.SetLatencies(book.windows().lat_us[0]);
  e.client_retries = client.retransmits();
  e.client_transmissions = client.transmissions();
  CheckLedger(m, book, client);
  return e;
}

// Latency of KV operations in simulated time, taken at the client's
// wire: from the first Submit/SessionRead carrying a request id to its
// reply.
class KvOpTimer {
 public:
  KvOpTimer(std::vector<double>& sink, mrp::sim::SimNetwork& net) : sink_(sink), net_(net) {}

  void OnSend(const mrp::MessagePtr& m) {
    std::uint64_t req = 0;
    if (const auto* s = mrp::Cast<rp::Submit>(m)) {
      const auto cmd = mrp::smr::Command::Decode(s->msg.payload.view());
      if (!cmd || cmd->op == mrp::smr::Command::Op::kSessionOpen) return;
      req = cmd->req_id;
    } else if (const auto* r = mrp::Cast<mrp::session::SessionRead>(m)) {
      req = r->req_id;
    } else {
      return;
    }
    started_.emplace(req, net_.now().count());
  }

  void OnReceive(const mrp::MessagePtr& m) {
    std::uint64_t req = 0;
    if (const auto* r = mrp::Cast<mrp::smr::Response>(m)) {
      req = r->req_id;
    } else if (const auto* s = mrp::Cast<mrp::session::SessionReadRep>(m)) {
      if (s->status != mrp::session::SessionReadRep::kOk) return;
      req = s->req_id;
    } else {
      return;
    }
    auto it = started_.find(req);
    if (it == started_.end()) return;
    sink_.push_back(static_cast<double>(net_.now().count() - it->second) / 1e3);
    started_.erase(it);
  }

 private:
  std::vector<double>& sink_;
  mrp::sim::SimNetwork& net_;
  std::map<std::uint64_t, std::int64_t> started_;
};

Episode KvEpisode(const RunOptions& o, Tracer& tracer, bool traced, Measurement& m) {
  Episode e;
  const std::int64_t t0 = NowNs();
  mrp::multiring::DeploymentOptions dopts;
  dopts.n_rings = 1;
  dopts.lambda_per_sec = 8000;
  dopts.trim_keep = kSimTrimKeep;
  dopts.net.seed = o.seed;
  mrp::multiring::SimDeployment d(dopts);
  if (traced) {
    for (int i = 0; i < 2; ++i) {
      auto* node = d.acceptor_node(0, i);
      node->BindProtocol(Wrap(std::make_unique<rp::RingNode>(d.ring(0)), tracer,
                              node->self(), i == 0 ? Role::kCoordinator : Role::kAcceptor,
                              nullptr));
    }
  }
  std::set<std::pair<std::uint64_t, std::uint64_t>> applied;
  std::uint64_t dup_applies = 0;
  mrp::smr::Replica* replica = nullptr;
  NodeId replica_id = mrp::kNoNode;
  {
    auto& node = d.net().AddNode();
    replica_id = node.self();
    mrp::smr::ReplicaConfig rc;
    rc.partition = 0;
    rc.partition_ring.ring = d.ring(0);
    rc.sessions = true;
    rc.serve_local_reads = true;
    rc.on_session_apply = [&](std::uint64_t sid, std::uint64_t seq) {
      if (!applied.emplace(sid, seq).second) ++dup_applies;
    };
    auto rep = std::make_unique<mrp::smr::Replica>(rc);
    replica = rep.get();
    std::unique_ptr<mrp::Protocol> p = std::move(rep);
    if (traced) p = Wrap(std::move(p), tracer, node.self(), Role::kReplica, nullptr);
    node.BindProtocol(std::move(p));
    d.net().Subscribe(node.self(), d.ring(0).data_channel);
    d.net().Subscribe(node.self(), d.ring(0).control_channel);
  }
  {
    auto& node = d.net().AddNode();
    mrp::session::LeaseGrantorConfig lc;
    lc.ring = d.ring(0).ring;
    lc.group = d.ring(0).group;
    lc.holder = replica_id;
    node.BindProtocol(std::make_unique<mrp::session::LeaseGrantor>(lc));
    d.net().Subscribe(node.self(), d.ring(0).data_channel);
    d.net().Subscribe(node.self(), d.ring(0).control_channel);
  }
  std::vector<mrp::session::SessionClient*> clients;
  std::vector<std::unique_ptr<KvOpTimer>> timers;
  std::vector<double> lat_us;
  for (int c = 0; c < kKvClients; ++c) {
    auto& node = d.net().AddNode(ClientSpec());
    mrp::session::SessionClientConfig sc;
    sc.session_id = static_cast<std::uint64_t>(c + 1);
    sc.ring = d.ring(0);
    sc.read_replica = replica_id;
    sc.window = kKvWindow;
    sc.read_ratio = 0.5;
    sc.ops_limit = kKvOpsPerClient;
    auto cl = std::make_unique<mrp::session::SessionClient>(sc);
    clients.push_back(cl.get());
    // The op timer rides on a decorator in every mode; only traced runs
    // time the handlers as well.
    TracedProtocol* tp = nullptr;
    auto p = Wrap(std::move(cl), tracer, node.self(), Role::kClient, nullptr, &tp);
    timers.push_back(std::make_unique<KvOpTimer>(lat_us, d.net()));
    KvOpTimer* t = timers.back().get();
    tp->on_send = [t](const mrp::MessagePtr& msg) { t->OnSend(msg); };
    tp->on_receive = [t](const mrp::MessagePtr& msg) { t->OnReceive(msg); };
    node.BindProtocol(std::move(p));
  }
  d.Start();
  if (!RunUntil(d, [&] { return replica->merge().total_delivered() > 0; },
                mrp::Seconds(5))) {
    Check(m, false, "set-up never delivered its first message");
    return e;
  }
  e.setup_s = static_cast<double>(NowNs() - t0) / 1e9;

  auto& sched = d.net().scheduler();
  const std::uint64_t ev0 = sched.events_run();
  const std::uint64_t del0 = replica->merge().total_delivered();
  tracer.SetMeasuring(true);
  const mrp::TimePoint sim0 = d.net().now();
  const std::int64_t c0 = ThreadCpuNs();
  auto completed = [&] {
    std::uint64_t n = 0;
    for (auto* c : clients) n += c->completed();
    return n;
  };
  const std::uint64_t target = kKvClients * kKvOpsPerClient;
  RunUntil(d, [&] { return completed() >= target; }, kKvDeadline);
  e.cpu_s = static_cast<double>(ThreadCpuNs() - c0) / 1e9;
  tracer.SetMeasuring(false);
  e.sim_s = mrp::ToSeconds(d.net().now() - sim0);
  e.events = sched.events_run() - ev0;
  e.delivered = replica->merge().total_delivered() - del0;
  e.ops = completed();
  e.writes_applied = static_cast<double>(replica->applied());
  e.SetLatencies(lat_us);

  std::uint64_t retries = 0, rejected = 0, local = 0, fallback = 0, ring_reads = 0;
  for (auto* c : clients) {
    retries += c->retries();
    rejected += c->rejected();
    local += c->local_reads();
    fallback += c->fallback_reads();
    ring_reads += c->ring_reads();
  }
  e.client_retries = retries;
  m.attempted += target;
  m.failed += target - std::min(target, e.ops);
  Check(m, dup_applies == 0,
        "session command applied twice (" + std::to_string(dup_applies) + ")");
  Check(m, e.ops >= 0.99 * static_cast<double>(target),
        "completed below 99% of offered ops after the drain (" + std::to_string(e.ops) +
            "/" + std::to_string(target) + ")");
  const double reads = static_cast<double>(local + fallback + ring_reads);
  m.layers["session.local_read_frac"] += Ratio(static_cast<double>(local), reads);
  m.layers["session.retry_frac"] += Ratio(static_cast<double>(retries), static_cast<double>(target));
  m.layers["session.reject_frac"] += Ratio(static_cast<double>(rejected), static_cast<double>(target));
  return e;
}

Measurement RunSim(const RunOptions& o, bool kv, bool traced, double seconds) {
  Measurement m;
  Tracer tracer(traced ? Tracer::Mode::kFull : Tracer::Mode::kCount, kBatchBytes);
  ClientPlan plan;
  if (!kv) {
    std::vector<ClientTarget> targets;
    std::vector<double> weights;
    for (int r = 0; r < kMergeRings; ++r) {
      // Coordinator of ring r is its first member: node 2r.
      targets.push_back(ClientTarget{static_cast<mrp::RingId>(r),
                                     static_cast<mrp::GroupId>(r),
                                     static_cast<NodeId>(2 * r)});
      weights.push_back(r == 0 ? kMergeHotFactor : 1.0);
    }
    const double rate = kMergeBaseRate * (kMergeRings - 1 + kMergeHotFactor);
    plan = OpenLoopPlan(o.seed, targets, weights, rate, kMergeEpisode.count(), kMergePayload);
    plan.sim = true;
  }

  std::vector<Episode> eps;
  const std::int64_t begin = NowNs();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  while (eps.size() < 3 || NowNs() - begin < budget) {
    const std::size_t failures_before = m.failures.size();
    eps.push_back(kv ? KvEpisode(o, tracer, traced, m)
                     : MergeEpisode(o, plan, tracer, traced, m));
    if (m.failures.size() > failures_before) break;
    // The simulator is deterministic: every episode of one seed must
    // repeat the first one's counts exactly.
    const Episode& first = eps.front();
    const Episode& last = eps.back();
    if (last.delivered != first.delivered || last.events != first.events) {
      Check(m, false, "episode counts differ within one seed: delivered " +
                          std::to_string(first.delivered) + " vs " +
                          std::to_string(last.delivered) + ", events " +
                          std::to_string(first.events) + " vs " +
                          std::to_string(last.events));
      break;
    }
    if (last.client_retries > 0) {
      Check(m, false, "client retry in a simulator workload (" +
                          std::to_string(last.client_retries) + ")");
      break;
    }
    if (NowNs() - begin > 4 * budget + 30'000'000'000LL) break;
  }
  if (!m.failures.empty()) return m;

  // Throughput and latency are simulated-time figures, the same for every
  // episode of a seed; set-up and CPU cost are medians over episodes.
  const Episode& first = eps.front();
  m.delivered_per_s = static_cast<double>(first.delivered) / first.sim_s;
  m.ops_per_s = static_cast<double>(first.ops) / first.sim_s;
  m.lat_p50_us = first.lat_p50_us;
  m.lat_p99_us = first.lat_p99_us;
  m.lat_p999_us = first.lat_p999_us;
  m.lat_samples = first.lat_samples;
  std::vector<double> setup, cpu;
  double cpu_s = 0;
  for (const Episode& e : eps) {
    setup.push_back(e.setup_s);
    cpu.push_back(e.cpu_s * 1e6 / static_cast<double>(kv ? e.ops : e.delivered));
    cpu_s += e.cpu_s;
  }
  m.setup_s = Median(setup);
  m.cpu_us_per_msg = Median(cpu);
  {
    std::string rates;
    for (const Episode& e : eps) {
      rates += std::to_string(static_cast<long long>(
                   static_cast<double>(kv ? e.ops : e.delivered) / e.cpu_s)) + " ";
    }
    Log(m, "episode rates per CPU-second of the simulating thread: %s", rates.c_str());
  }
  Log(m, "episodes=%zu delivered=%llu ops=%llu events=%llu (per episode, fixed by the "
         "seed) cpu/episode mean %.3fs",
      eps.size(), static_cast<unsigned long long>(first.delivered),
      static_cast<unsigned long long>(first.ops),
      static_cast<unsigned long long>(first.events), cpu_s / static_cast<double>(eps.size()));
  Log(m, "counts: delivered=%llu events=%llu",
      static_cast<unsigned long long>(first.delivered),
      static_cast<unsigned long long>(first.events));
  Log(m, "simulated latency per episode: samples=%zu p50=%.1fus p99=%.1fus p99.9=%.1fus; "
         "setup median %.4fs; cpu_us_per_msg median %.3f",
      m.lat_samples, m.lat_p50_us, m.lat_p99_us, m.lat_p999_us, m.setup_s,
      m.cpu_us_per_msg);

  const double n_eps = static_cast<double>(eps.size());
  if (kv) {
    for (const char* k : {"session.local_read_frac", "session.retry_frac", "session.reject_frac"}) {
      m.layers[k] /= n_eps;
    }
  }
  if (traced) {
    LayerInputs in;
    in.tracer = &tracer;
    in.sim = true;
    double delivered = 0, events = 0, run_ns = 0, writes = 0, retries = 0, tx = 0;
    for (const Episode& e : eps) {
      delivered += static_cast<double>(kv ? e.ops : e.delivered);
      events += static_cast<double>(e.events);
      run_ns += e.cpu_s * 1e9;
      writes += e.writes_applied;
      retries += static_cast<double>(e.client_retries);
      tx += static_cast<double>(e.client_transmissions);
    }
    in.delivered = delivered;
    in.measured_s = run_ns / 1e9;
    in.sim_events = static_cast<std::uint64_t>(events);
    in.sim_run_ns = run_ns;
    in.writes_applied = writes;
    in.client_retry_frac = kv ? 0 : Ratio(retries, tx);
    auto layers = LayerMetrics(in);
    for (auto& [k, v] : layers) {
      if (!m.layers.count(k)) m.layers[k] = v;
    }
    WriteSpans(tracer, o);
  }
  return m;
}

Measurement Measure(const RunOptions& o, bool traced, double seconds) {
  if (o.workload == "udp_closed") return RunRuntime(o, true, traced, seconds);
  if (o.workload == "inproc_open") return RunRuntime(o, false, traced, seconds);
  if (o.workload == "sim_merge16") return RunSim(o, false, traced, seconds);
  return RunSim(o, true, traced, seconds);
}

// The per-layer metric names, in report order, with units.
const std::vector<std::pair<std::string, std::string>>& LayerNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"ringpaxos.coord_ns_per_msg", "ns/msg"},
      {"ringpaxos.acceptor_ns_per_msg", "ns/msg"},
      {"ringpaxos.msgs_per_batch", "msgs"},
      {"ringpaxos.underfull_batch_frac", "ratio"},
      {"ringpaxos.skip_frac", "ratio"},
      {"ringpaxos.sent_msgs_per_msg", "msgs/msg"},
      {"ringpaxos.sent_bytes_per_msg", "B/msg"},
      {"multiring.learner_ns_per_msg", "ns/msg"},
      {"multiring.hold_us_p50", "us"},
      {"multiring.hold_us_p99", "us"},
      {"multiring.learnreq_per_kmsg", "count/kmsg"},
      {"runtime.queue_wait_us_p50", "us"},
      {"runtime.queue_wait_us_p99", "us"},
      {"runtime.timer_late_us_p99", "us"},
      {"runtime.busiest_node_busy_frac", "ratio"},
      {"net.encode_ns_per_kb", "ns/KiB"},
      {"net.decode_ns_per_kb", "ns/KiB"},
      {"net.send_call_ns", "ns"},
      {"net.tx_frames_per_batch", "frames"},
      {"net.rx_frames_per_batch", "frames"},
      {"net.frame_loss_frac", "ratio"},
      {"net.wiresize_drift_frac", "ratio"},
      {"sim.events_per_msg", "events/msg"},
      {"sim.sched_ns_per_event", "ns/event"},
      {"sim.net_call_ns_per_send", "ns"},
      {"sim.handler_ns_per_msg", "ns/msg"},
      {"smr.apply_ns_per_write", "ns"},
      {"smr.local_read_ns", "ns"},
      {"session.client_ns_per_op", "ns/op"},
      {"session.local_read_frac", "ratio"},
      {"session.retry_frac", "ratio"},
      {"session.reject_frac", "ratio"},
      {"client.retry_frac", "ratio"},
      {"client.gen_lag_p99_us", "us"},
      {"client.lat_p99_us", "us"},
      {"trace.overhead_delivered_per_s", "msgs/s"},
      {"trace.overhead_lat_p50_us", "us"},
      {"trace.overhead_cpu_us_per_msg", "us"},
      {"cpu.us_per_msg", "us"},
  };
  return names;
}

void Finish(RunResult& r, Measurement& m) {
  r.attempted += m.attempted;
  r.failed += m.failed;
  for (auto& f : m.failures) r.failures.push_back(f);
  for (auto& l : m.log) r.log.push_back(l);
  if (!m.failures.empty()) r.correct = false;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"udp_closed", "inproc_open",
                                                 "sim_merge16", "sim_kv"};
  return names;
}

RunResult RunWorkload(const RunOptions& o) {
  RunResult r;
  if (!o.trace) {
    Measurement m = Measure(o, false, o.seconds);
    Finish(r, m);
    r.metrics = {
        {"delivered_per_s", "msgs/s", m.delivered_per_s},
        {"ops_per_s", "ops/s", m.ops_per_s},
        {"lat_p50_us", "us", m.lat_p50_us},
        {"setup_s", "s", m.setup_s},
        {"peak_rss_mb", "MiB", PeakRssMb()},
    };
    return r;
  }
  // Traced mode: half the time untraced, half traced; the difference is
  // the tracing overhead.
  Measurement plain = Measure(o, false, o.seconds / 2);
  Measurement traced = Measure(o, true, o.seconds / 2);
  Finish(r, plain);
  Finish(r, traced);
  traced.layers["trace.overhead_delivered_per_s"] =
      traced.delivered_per_s - plain.delivered_per_s;
  traced.layers["trace.overhead_lat_p50_us"] = traced.lat_p50_us - plain.lat_p50_us;
  traced.layers["trace.overhead_cpu_us_per_msg"] = traced.cpu_us_per_msg - plain.cpu_us_per_msg;
  traced.layers["cpu.us_per_msg"] = plain.cpu_us_per_msg;
  traced.layers["client.lat_p99_us"] = plain.lat_p99_us;
  for (const auto& [name, unit] : LayerNames()) {
    auto it = traced.layers.find(name);
    r.metrics.push_back({name, unit, it == traced.layers.end() ? 0.0 : it->second});
  }
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "tracing overhead: delivered_per_s %.1f -> %.1f, lat_p50_us %.1f -> %.1f",
                plain.delivered_per_s, traced.delivered_per_s, plain.lat_p50_us,
                traced.lat_p50_us);
  r.log.emplace_back(buf);
  return r;
}

}  // namespace perfbench
