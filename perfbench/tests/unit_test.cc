// Unit tests of the benchmark's own arithmetic and self-checks.
#include <gtest/gtest.h>

#include <vector>

#include "client.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRank) {
  const auto v = OneTo(100);
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 99.9), 100);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile(v, 0), 1);
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Percentile({7}, 99), 7);
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(Quantile({4, 1, 3, 2}, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(Quantile({4, 1, 3, 2}, 0.75), 3.25);
  EXPECT_DOUBLE_EQ(Median({5, 1, 3}), 3);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

TEST(FailedFrac, CountsEverythingNotExactlyOnce) {
  EXPECT_DOUBLE_EQ(FailedFrac(10, 10), 0);
  EXPECT_DOUBLE_EQ(FailedFrac(10, 9), 0.1);
  EXPECT_DOUBLE_EQ(FailedFrac(4, 0), 1);
  EXPECT_DOUBLE_EQ(FailedFrac(0, 0), 1);  // nothing attempted is a failure
}

TEST(Windows, SampleCountsAndRates) {
  Windows w(2);
  w.seconds = {0.5, 0.5};
  w.delivered = {100, 300};
  w.lat_us[0] = {1, 2, 3};
  w.lat_us[1] = {10, 20};
  EXPECT_EQ(w.AllLatencies().size(), 5u);
  EXPECT_EQ(w.Rates(w.delivered), (std::vector<double>{200, 600}));
  EXPECT_EQ(w.Percentiles(50), (std::vector<double>{2, 10}));
}

TEST(Ledger, TalliesLostDuplicatedAndPhantom) {
  ExactlyOnceLedger l(10);
  for (int s = 1; s <= 5; ++s) l.NoteSent(s);
  l.NoteSent(4);  // one retransmission
  for (int s : {1, 2, 3, 4, 4, 5, 5}) EXPECT_TRUE(l.NoteDelivered(s));
  EXPECT_TRUE(l.NoteDelivered(7));   // never sent
  EXPECT_FALSE(l.NoteDelivered(10)); // beyond the plan
  const auto t = l.Count(1, 10);
  EXPECT_EQ(t.attempted, 5u);
  EXPECT_EQ(t.exactly_once, 3u);
  EXPECT_EQ(t.duplicated, 2u);  // 4 (retransmitted) and 5 (not)
  EXPECT_EQ(t.phantom, 1u);     // 5: delivered twice, sent once
  EXPECT_EQ(t.unsent, 1u);
  EXPECT_EQ(t.lost, 0u);
}

class BookTest : public ::testing::Test {
 protected:
  BookTest()
      : plan_(ClosedLoopPlan(42, {ClientTarget{0, 0, 0}}, 4, 100, 64)),
        book_(plan_, /*client=*/3, /*windows=*/1, /*window_ns=*/1'000'000'000'000) {}

  void SendAndDeliver(std::uint64_t seq) {
    book_.ledger().NoteSent(seq);
    book_.OnDeliver(MakeClientMsg(plan_, 3, seq, NowNs()));
  }

  ClientPlan plan_;
  LoadBook book_;
};

TEST_F(BookTest, CleanRunPasses) {
  book_.StartMeasuring(NowNs());
  for (std::uint64_t s = 1; s <= 50; ++s) SendAndDeliver(s);
  EXPECT_TRUE(LedgerViolations(book_, 50).empty());
  EXPECT_EQ(book_.windows().lat_us[0].size(), 50u);
  EXPECT_EQ(book_.distinct_delivered(), 50u);
}

TEST_F(BookTest, InjectedDuplicateTrips) {
  for (std::uint64_t s = 1; s <= 50; ++s) SendAndDeliver(s);
  book_.OnDeliver(MakeClientMsg(plan_, 3, 17, NowNs()));  // sent once, delivered twice
  const auto v = LedgerViolations(book_, 50);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("more often than sent"), std::string::npos);
}

TEST_F(BookTest, UnknownMessageTrips) {
  for (std::uint64_t s = 1; s <= 50; ++s) SendAndDeliver(s);
  auto m = MakeClientMsg(plan_, 3, 9, NowNs());
  m.payload = mrp::PayloadBuf(mrp::Bytes(64, 0));  // wrong payload tag
  book_.OnDeliver(m);
  auto foreign = MakeClientMsg(plan_, /*self=*/5, 9, NowNs());  // other proposer
  book_.OnDeliver(foreign);
  EXPECT_EQ(book_.unknown(), 2u);
  EXPECT_FALSE(LedgerViolations(book_, 50).empty());
}

TEST_F(BookTest, LossBelowNinetyNinePercentTrips) {
  for (std::uint64_t s = 1; s <= 50; ++s) {
    if (s == 20) {
      book_.ledger().NoteSent(s);  // sent, never delivered
    } else {
      SendAndDeliver(s);
    }
  }
  const auto v = LedgerViolations(book_, 50);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("below 99%"), std::string::npos);
}

TEST(Plans, SameSeedSameSchedule) {
  const std::vector<ClientTarget> t = {ClientTarget{0, 0, 0}, ClientTarget{1, 1, 2}};
  const auto a = OpenLoopPlan(7, t, {1.5, 1}, 10'000, 100'000'000, 128);
  const auto b = OpenLoopPlan(7, t, {1.5, 1}, 10'000, 100'000'000, 128);
  const auto c = OpenLoopPlan(8, t, {1.5, 1}, 10'000, 100'000'000, 128);
  EXPECT_EQ(a.due_ns, b.due_ns);
  EXPECT_EQ(a.target_of, b.target_of);
  EXPECT_NE(a.due_ns, c.due_ns);
  // ~1000 arrivals in 100 ms at 10k/s, the hot target taking ~60%.
  EXPECT_NEAR(static_cast<double>(a.due_ns.size()), 1000, 150);
  std::size_t hot = 0;
  for (auto x : a.target_of) hot += x == 0;
  EXPECT_NEAR(static_cast<double>(hot) / static_cast<double>(a.target_of.size()), 0.6, 0.06);
}

}  // namespace
}  // namespace perfbench
