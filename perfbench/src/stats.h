// Arithmetic shared by every workload: percentiles, medians over
// measurement windows, the exactly-once ledger and failed_frac. Kept
// header-only and free of protocol types so tests/unit_test.cc can pin
// it down in isolation.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <utility>
#include <vector>

namespace perfbench {

// Steady-clock nanoseconds since the first call in this process: the
// bench's one clock, shared by every thread of a runtime cluster.
inline std::int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

// CPU time consumed so far by the calling thread / by the whole process.
// Paravirtualised kernels exclude time stolen by the hypervisor, so rates
// per CPU-second stay put on a shared host where wall-clock rates swing.
inline std::int64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
inline std::int64_t ThreadCpuNs() { return CpuNs(CLOCK_THREAD_CPUTIME_ID); }
inline std::int64_t ProcessCpuNs() { return CpuNs(CLOCK_PROCESS_CPUTIME_ID); }

// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 for
// an empty sample.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

// Quantile q in [0, 1] with linear interpolation between order
// statistics; 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// Host contention (other tenants on the same machine) only ever slows a
// window down, and on a shared host it comes and goes within seconds.
// The runtime workloads' end-to-end figures therefore take, over a run's
// wall-clock windows, the decile contention touches least: the 90th
// percentile of rates and the 10th percentile of times.
constexpr double kRateQuantile = 0.9;
constexpr double kTimeQuantile = 0.1;

// Share of attempted operations that did not complete exactly once.
inline double FailedFrac(std::uint64_t attempted, std::uint64_t exactly_once) {
  if (attempted == 0) return 1.0;
  const std::uint64_t ok = std::min(attempted, exactly_once);
  return static_cast<double>(attempted - ok) / static_cast<double>(attempted);
}

// Per-sequence ledger of transmissions (client side) and deliveries
// (learner side). A message delivered more often than it was sent is a
// protocol fault; one delivered twice after a client retransmission is
// an at-least-once duplicate and counts as a failed operation.
class ExactlyOnceLedger {
 public:
  explicit ExactlyOnceLedger(std::uint64_t capacity)
      : sent_(capacity, 0), delivered_(capacity, 0) {}

  std::uint64_t capacity() const { return sent_.size(); }

  void NoteSent(std::uint64_t seq) { Bump(sent_[seq]); }

  // False for a sequence number the client never generated.
  bool NoteDelivered(std::uint64_t seq) {
    if (seq >= delivered_.size()) return false;
    Bump(delivered_[seq]);
    return true;
  }

  std::uint8_t delivered(std::uint64_t seq) const { return delivered_[seq]; }

  struct Tally {
    std::uint64_t attempted = 0;     // sequences sent at least once
    std::uint64_t exactly_once = 0;  // ... delivered exactly once
    std::uint64_t lost = 0;          // ... never delivered
    std::uint64_t duplicated = 0;    // delivered twice after a retransmit
    std::uint64_t phantom = 0;       // delivered more often than sent
    std::uint64_t unsent = 0;        // delivered but never sent
  };

  // Counts over sequences [from, to).
  Tally Count(std::uint64_t from, std::uint64_t to) const {
    Tally t;
    to = std::min<std::uint64_t>(to, sent_.size());
    for (std::uint64_t s = from; s < to; ++s) {
      const unsigned sent = sent_[s];
      const unsigned got = delivered_[s];
      if (sent == 0) {
        if (got > 0) ++t.unsent;
        continue;
      }
      ++t.attempted;
      if (got > sent) ++t.phantom;
      if (got == 0) {
        ++t.lost;
      } else if (got == 1) {
        ++t.exactly_once;
      } else {
        ++t.duplicated;
      }
    }
    return t;
  }

 private:
  static void Bump(std::uint8_t& c) {
    if (c < 255) ++c;
  }
  std::vector<std::uint8_t> sent_;
  std::vector<std::uint8_t> delivered_;
};

// Samples split into consecutive measurement windows; each end-to-end
// figure is a quantile over windows of the per-window value (see
// kRateQuantile), so slow stretches of a run move it less.
struct Windows {
  std::vector<std::vector<double>> lat_us;  // per window
  std::vector<std::uint64_t> delivered;     // per window
  std::vector<std::uint64_t> completed;     // per window (client side)
  std::vector<double> seconds;              // per window wall length

  explicit Windows(std::size_t n = 0)
      : lat_us(n), delivered(n, 0), completed(n, 0), seconds(n, 0) {}

  std::size_t size() const { return seconds.size(); }

  std::vector<double> Rates(const std::vector<std::uint64_t>& counts) const {
    std::vector<double> r;
    for (std::size_t i = 0; i < size(); ++i) {
      if (seconds[i] > 0) r.push_back(static_cast<double>(counts[i]) / seconds[i]);
    }
    return r;
  }

  std::vector<double> Percentiles(double p) const {
    std::vector<double> r;
    for (const auto& w : lat_us) {
      if (!w.empty()) r.push_back(Percentile(w, p));
    }
    return r;
  }

  std::vector<double> AllLatencies() const {
    std::vector<double> all;
    for (const auto& w : lat_us) all.insert(all.end(), w.begin(), w.end());
    return all;
  }
};

}  // namespace perfbench
