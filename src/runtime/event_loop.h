// Single-threaded event loop: tasks posted from any thread plus one-shot
// timers, executed on the loop thread. One loop per node gives the same
// run-to-completion semantics as the simulator, on real threads.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "common/types.h"

namespace mrp::runtime {

class EventLoop {
 public:
  EventLoop() : epoch_(std::chrono::steady_clock::now()) {}
  ~EventLoop() { Stop(); }

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // `first`, if set, runs ahead of every task posted before or after.
  void Start(std::function<void()> first = nullptr) {
    std::scoped_lock lock(mu_);
    if (running_) return;
    running_ = true;
    if (first) tasks_.push_front(std::move(first));
    thread_ = std::thread([this] { Run(); });
  }

  void Stop() {
    {
      std::scoped_lock lock(mu_);
      if (!running_) return;
      running_ = false;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  // Monotonic time since the loop's construction.
  TimePoint now() const {
    return std::chrono::duration_cast<Duration>(std::chrono::steady_clock::now() -
                                                epoch_);
  }

  void Post(std::function<void()> fn) {
    {
      std::scoped_lock lock(mu_);
      tasks_.push_back(std::move(fn));
    }
    cv_.notify_one();
  }

  TimerId SetTimer(Duration delay, std::function<void()> fn) {
    std::scoped_lock lock(mu_);
    const TimerId id = ++next_timer_;
    timers_.emplace(std::make_pair(now() + delay, id), std::move(fn));
    cv_.notify_one();
    return id;
  }

  void CancelTimer(TimerId id) {
    std::scoped_lock lock(mu_);
    for (auto it = timers_.begin(); it != timers_.end(); ++it) {
      if (it->first.second == id) {
        timers_.erase(it);
        return;
      }
    }
  }

  bool on_loop_thread() const { return std::this_thread::get_id() == thread_.get_id(); }

 private:
  void Run() {
    std::unique_lock lock(mu_);
    while (running_) {
      // Run due timers.
      while (!timers_.empty() && timers_.begin()->first.first <= now()) {
        auto fn = std::move(timers_.begin()->second);
        timers_.erase(timers_.begin());
        lock.unlock();
        fn();
        lock.lock();
      }
      if (!tasks_.empty()) {
        auto fn = std::move(tasks_.front());
        tasks_.pop_front();
        lock.unlock();
        fn();
        lock.lock();
        continue;
      }
      if (timers_.empty()) {
        cv_.wait(lock, [this] {
          return !running_ || !tasks_.empty() || !timers_.empty();
        });
      } else {
        const auto wake = epoch_ + timers_.begin()->first.first;
        cv_.wait_until(lock, wake, [this] { return !running_ || !tasks_.empty(); });
      }
    }
  }

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
  bool running_ = false;
  std::deque<std::function<void()>> tasks_;
  std::map<std::pair<TimePoint, TimerId>, std::function<void()>> timers_;
  TimerId next_timer_ = 0;
};

}  // namespace mrp::runtime
