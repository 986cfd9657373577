// Focused RingNode behaviour tests: leadership hand-off rules, value-ID
// uniqueness across rounds, decided-watermark trimming, batch-timeout
// partial batches, recoverable-mode fail-over, LearnRep size limits, and
// proposer window accounting under think-time jitter.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "multiring/sim_deployment.h"
#include "ringpaxos/learner.h"
#include "ringpaxos/proposer.h"
#include "ringpaxos/ring_node.h"

namespace mrp::ringpaxos {
namespace {

using multiring::DeploymentOptions;
using multiring::SimDeployment;

TEST(RingNode, StepsDownWhenObservingAHigherRound) {
  DeploymentOptions opts;
  opts.lambda_per_sec = 0;
  opts.ring_size = 2;
  opts.n_spares = 1;
  opts.suspect_after = Millis(50);
  SimDeployment d(opts);
  auto* learner = d.AddRingLearner(0, true);
  ProposerConfig pc;
  pc.max_outstanding = 4;
  d.AddProposer(0, pc);
  d.Start();
  d.RunFor(Millis(500));
  auto* old_coord = d.coordinator(0);
  ASSERT_TRUE(old_coord->is_coordinator());

  // Pause the coordinator long enough for a takeover, then revive it:
  // observing the successor's higher round it must stay a follower.
  d.coordinator_node(0)->SetDown(true);
  d.RunFor(Seconds(1));
  int leaders = 0;
  for (int i = 1; i < 3; ++i) {
    leaders += d.acceptor_node(0, i)->protocol_as<RingNode>()->is_coordinator();
  }
  ASSERT_EQ(leaders, 1) << "takeover did not happen";
  d.coordinator_node(0)->SetDown(false);
  d.RunFor(Seconds(1));
  EXPECT_FALSE(old_coord->is_coordinator()) << "zombie leader";
  leaders = 0;
  for (int i = 0; i < 3; ++i) {
    leaders += d.acceptor_node(0, i)->protocol_as<RingNode>()->is_coordinator();
  }
  EXPECT_EQ(leaders, 1);
  EXPECT_GT(learner->delivered_msgs(), 100u);
}

TEST(RingNode, PartialBatchProposedOnTimeout) {
  DeploymentOptions opts;
  opts.lambda_per_sec = 0;
  opts.batch_timeout = Millis(2);
  SimDeployment d(opts);
  auto* learner = d.AddRingLearner(0, true);
  // One tiny message, far below batch_bytes: only the timeout can
  // propose it.
  ProposerConfig pc;
  pc.max_outstanding = 1;
  pc.payload_size = 64;
  auto* prop = d.AddProposer(0, pc);
  d.Start();
  d.RunFor(Millis(100));
  EXPECT_GT(prop->acked_seq(), 0u) << "partial batch never proposed";
  EXPECT_GT(learner->delivered_msgs(), 5u);
}

TEST(RingNode, DecidedWatermarkTrimsAcceptorState) {
  DeploymentOptions opts;
  opts.lambda_per_sec = 0;
  opts.trim_keep = 100;
  SimDeployment d(opts);
  d.AddRingLearner(0, true);
  ProposerConfig pc;
  pc.max_outstanding = 8;
  d.AddProposer(0, pc);
  d.Start();
  d.RunFor(Seconds(1));
  auto* coord = d.coordinator(0);
  ASSERT_GT(coord->decided_instances(), 1000u);
  // The acceptor log holds roughly trim_keep records, not thousands.
  EXPECT_LT(coord->config().trim_keep + 200, coord->decided_instances());
}

TEST(RingNode, RecoverableModeSurvivesCoordinatorFailover) {
  DeploymentOptions opts;
  opts.lambda_per_sec = 0;
  opts.disk = true;
  opts.ring_size = 2;
  opts.n_spares = 1;
  opts.suspect_after = Millis(50);
  SimDeployment d(opts);
  auto* learner = d.AddRingLearner(0, true);
  ProposerConfig pc;
  pc.max_outstanding = 4;
  d.AddProposer(0, pc);
  d.Start();
  d.RunFor(Seconds(1));
  const auto before = learner->delivered_msgs();
  ASSERT_GT(before, 50u);
  d.coordinator_node(0)->SetDown(true);
  d.RunFor(Seconds(2));
  EXPECT_GT(learner->delivered_msgs(), before + 50)
      << "disk-mode fail-over did not resume delivery";
}

TEST(RingNode, VidsUniqueAcrossRoundsAndInstances) {
  // Collect vids from every P2A a learner-side snooper observes across
  // a fail-over; they must never repeat (value-ID consensus relies on
  // it).
  class VidSnooper final : public Protocol {
   public:
    void OnStart(Env&) override {}
    void OnMessage(Env&, NodeId, const MessagePtr& m) override {
      if (const auto* p2a = Cast<P2A>(m)) {
        // The same (instance, vid) may be retransmitted; a DIFFERENT
        // instance reusing a vid would be a bug.
        auto [it, fresh] = seen.emplace(p2a->vid, p2a->instance);
        if (!fresh) {
          EXPECT_EQ(it->second, p2a->instance) << "vid reused across instances";
        }
      }
    }
    std::map<ValueId, InstanceId> seen;
  };

  DeploymentOptions opts;
  opts.lambda_per_sec = 1000;
  opts.ring_size = 2;
  opts.n_spares = 1;
  opts.suspect_after = Millis(50);
  SimDeployment d(opts);
  auto& snoop_node = d.net().AddNode();
  auto* snooper = new VidSnooper();
  snoop_node.BindProtocol(std::unique_ptr<Protocol>(snooper));
  d.net().Subscribe(snoop_node.self(), d.ring(0).data_channel);
  d.AddRingLearner(0, true);
  ProposerConfig pc;
  pc.max_outstanding = 4;
  d.AddProposer(0, pc);
  d.Start();
  d.RunFor(Seconds(1));
  d.coordinator_node(0)->SetDown(true);  // force a new round's vids
  d.RunFor(Seconds(1));
  EXPECT_GT(snooper->seen.size(), 500u);
}

// Asks an acceptor for decided instances from `from` on, one LearnReq
// of `max_values` at a time, until `count` instances are covered.
class LearnProbe final : public Protocol {
 public:
  LearnProbe(RingId ring, NodeId acceptor, std::uint32_t max_values, std::size_t count)
      : ring_(ring), acceptor_(acceptor), max_values_(max_values), count_(count) {}

  void OnStart(Env& env) override { Ask(env, 0); }
  void OnMessage(Env& env, NodeId, const MessagePtr& m) override {
    const auto* rep = Cast<LearnRep>(m);
    if (rep == nullptr) return;
    reply_sizes.push_back(rep->WireSize());
    reply_entries.push_back(rep->entries.size());
    for (const auto& e : rep->entries) covered.push_back(e.instance);
    if (!rep->entries.empty() && covered.size() < count_) {
      Ask(env, rep->entries.back().instance + 1);
    }
  }

  std::vector<std::size_t> reply_sizes;
  std::vector<std::size_t> reply_entries;
  std::vector<InstanceId> covered;

 private:
  void Ask(Env& env, InstanceId from) {
    env.Send(acceptor_, MakeMessage<LearnReq>(ring_, from, max_values_));
  }

  RingId ring_;
  NodeId acceptor_;
  std::uint32_t max_values_;
  std::size_t count_;
};

TEST(RingNode, LearnRepsFitOneWireMessage) {
  // 8 KiB values: a full 32-entry reply would be ~264 KiB, far over what
  // one UDP datagram carries. Each reply must stop at the limit, and
  // asking again from the last entry must still reach every instance.
  DeploymentOptions opts;
  opts.lambda_per_sec = 0;
  SimDeployment d(opts);
  d.AddRingLearner(0, true);
  ProposerConfig pc;
  pc.max_outstanding = 4;
  pc.payload_size = 8 * 1024;
  d.AddProposer(0, pc);
  d.Start();
  d.RunFor(Millis(200));
  ASSERT_GE(d.coordinator(0)->decided_instances(), 40u);

  constexpr std::size_t kInstances = 40;
  auto& node = d.net().AddNode();
  auto probe = std::make_unique<LearnProbe>(d.ring(0).ring, d.coordinator_node(0)->self(),
                                            /*max_values=*/32, kInstances);
  auto* raw = probe.get();
  node.BindProtocol(std::move(probe));
  node.Start();
  d.RunFor(Millis(100));

  ASSERT_GE(raw->covered.size(), kInstances);
  for (std::size_t i = 0; i < raw->reply_sizes.size(); ++i) {
    EXPECT_LE(raw->reply_sizes[i], kMaxWireMessage) << "reply " << i;
    EXPECT_GE(raw->reply_entries[i], 1u) << "reply " << i;
    EXPECT_LT(raw->reply_entries[i], 32u) << "reply " << i << " was not capped";
  }
  for (std::size_t i = 1; i < raw->covered.size(); ++i) {
    EXPECT_EQ(raw->covered[i], raw->covered[i - 1] + 1) << "gap after entry " << i;
  }
}

TEST(Proposer, WindowNeverExceededWithThinkJitter) {
  DeploymentOptions opts;
  opts.lambda_per_sec = 0;
  SimDeployment d(opts);
  d.AddRingLearner(0, true);
  ProposerConfig pc;
  pc.max_outstanding = 5;
  pc.think_jitter = Micros(500);
  auto* prop = d.AddProposer(0, pc);
  d.Start();
  for (int i = 0; i < 50; ++i) {
    d.RunFor(Millis(20));
    EXPECT_LE(prop->outstanding(), 5u);
  }
  EXPECT_GT(prop->acked_seq(), 100u);
}

TEST(Proposer, ResendsOutstandingToNewCoordinator) {
  DeploymentOptions opts;
  opts.lambda_per_sec = 0;
  opts.ring_size = 2;
  opts.n_spares = 1;
  opts.suspect_after = Millis(50);
  SimDeployment d(opts);
  auto* learner = d.AddRingLearner(0, true);
  ProposerConfig pc;
  pc.max_outstanding = 4;
  pc.retry_timeout = Seconds(30);  // retries off: only the hand-off path
  auto* prop = d.AddProposer(0, pc);
  d.Start();
  d.RunFor(Millis(500));
  const auto acked_before = prop->acked_seq();
  ASSERT_GT(acked_before, 10u);
  d.coordinator_node(0)->SetDown(true);
  d.RunFor(Seconds(2));
  // Progress resumed purely via heartbeat-triggered resubmission.
  EXPECT_GT(prop->acked_seq(), acked_before);
  EXPECT_GT(learner->delivered_msgs(), 0u);
}

}  // namespace
}  // namespace mrp::ringpaxos
