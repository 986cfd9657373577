// Micro-benchmarks of the simulator substrate: raw scheduler event
// throughput, end-to-end simulated message cost, and the measurement
// primitives (histogram record, instance window).
#include <benchmark/benchmark.h>

#include <memory>

#include "common/instance_window.h"
#include "common/stats.h"
#include "sim/network.h"
#include "sim/scheduler.h"

namespace {

using namespace mrp;  // NOLINT

void BM_SchedulerEventChurn(benchmark::State& state) {
  sim::Scheduler sched;
  std::int64_t events = 0;
  std::function<void()> tick = [&] {
    ++events;
    sched.After(Micros(1), tick);
  };
  sched.After(Micros(1), tick);
  for (auto _ : state) {
    sched.RunOne();
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_SchedulerEventChurn);

// 128 wire bytes: the kind byte, then filler.
struct PingMsg final : Message<PingMsg, TestKind(4)> {
  wire::Pad pad{127};
  MRP_FIELDS(pad)
};

class PingPong final : public Protocol {
 public:
  explicit PingPong(NodeId peer) : peer_(peer) {}
  void OnStart(Env& env) override { env.Send(peer_, MakeMessage<PingMsg>()); }
  void OnMessage(Env& env, NodeId from, const MessagePtr&) override {
    ++count;
    env.Send(from, MakeMessage<PingMsg>());
  }
  NodeId peer_;
  std::uint64_t count = 0;
};

void BM_SimulatedMessageRoundtrip(benchmark::State& state) {
  sim::SimNetwork net;
  auto& a = net.AddNode();
  auto& b = net.AddNode();
  a.BindProtocol(std::make_unique<PingPong>(b.self()));
  b.BindProtocol(std::make_unique<PingPong>(a.self()));
  net.StartAll();
  std::int64_t msgs = 0;
  for (auto _ : state) {
    net.RunFor(Millis(10));
    msgs += 2 * 10;  // ~1 roundtrip per ~0.25ms simulated
  }
  state.SetItemsProcessed(msgs);
}
BENCHMARK(BM_SimulatedMessageRoundtrip);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  std::uint64_t v = 12345;
  for (auto _ : state) {
    h.RecordValue(v);
    v = v * 6364136223846793005ULL + 1;
    v >>= 34;
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(h.count()));
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramQuantile(benchmark::State& state) {
  Histogram h;
  std::uint64_t v = 12345;
  for (int i = 0; i < 100000; ++i) {
    h.RecordValue(v % 1000000);
    v = v * 6364136223846793005ULL + 1;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.Quantile(0.99));
  }
}
BENCHMARK(BM_HistogramQuantile);

void BM_InstanceWindowInOrder(benchmark::State& state) {
  InstanceWindow<int> w;
  InstanceId next = 0;
  for (auto _ : state) {
    w.Insert(next, 1);
    benchmark::DoNotOptimize(w.Pop());
    ++next;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(next));
}
BENCHMARK(BM_InstanceWindowInOrder);

void BM_InstanceWindowOutOfOrder(benchmark::State& state) {
  InstanceWindow<int> w;
  InstanceId base = 0;
  const std::size_t kBatch = 64;
  for (auto _ : state) {
    // Insert a reversed batch, then drain.
    for (std::size_t i = kBatch; i-- > 0;) {
      w.Insert(base + i, static_cast<int>(i));
    }
    while (w.Peek() != nullptr) benchmark::DoNotOptimize(w.Pop());
    base += kBatch;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(base));
}
BENCHMARK(BM_InstanceWindowOutOfOrder);

}  // namespace

BENCHMARK_MAIN();
