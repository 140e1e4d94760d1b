// Coroutine synchronization primitives for the simulator.
//
// All primitives are single-threaded (the simulator owns one logical
// thread of control); "blocking" means suspending the calling coroutine
// until another coroutine releases/pushes/signals. Waiters are resumed
// through the event loop (ResumeSoon) so native stacks stay shallow and
// wakeup order is deterministic FIFO.
//
// WaitGroup and OneShotEvent only ever wake all their waiters at once, so
// they keep them in a std::vector: an idle one allocates nothing (a
// std::deque allocates its first node on construction). A Semaphore hands
// waiters out one at a time from the front and keeps a deque.
// A Semaphore waiter is an EventFn, so besides a coroutine it can be a
// deferred start of a queued record (AcquireThen).
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "sim/check.h"
#include "sim/event_fn.h"
#include "sim/simulator.h"

namespace zstor::sim {

/// Counting semaphore.
class Semaphore {
 public:
  Semaphore(Simulator& s, std::uint64_t initial)
      : sim_(s), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  struct Awaiter {
    Semaphore& sem;
    bool await_ready() { return sem.TryAcquire(); }
    void await_suspend(std::coroutine_handle<> h) {
      sem.waiters_.emplace_back(h);
    }
    void await_resume() const noexcept {}
  };

  /// Suspends until one unit is available, then takes it.
  Awaiter Acquire() { return Awaiter{*this}; }

  /// Runs `then` holding one unit: right away when one is available,
  /// otherwise as a fresh event once a unit is handed over (FIFO with the
  /// coroutine waiters). Lets a queued record wait without a frame.
  void AcquireThen(EventFn then) {
    if (TryAcquire()) {
      then();
    } else {
      waiters_.push_back(std::move(then));
    }
  }

  /// Returns one unit, waking the longest-waiting acquirer if any.
  void Release() {
    if (!waiters_.empty()) {
      // The released unit transfers to this waiter.
      sim_.ScheduleIn(0, std::move(waiters_.front()));
      waiters_.pop_front();
    } else {
      ++count_;
    }
  }

  std::uint64_t available() const { return count_; }
  std::size_t waiting() const { return waiters_.size(); }

 private:
  bool TryAcquire() {
    if (count_ == 0) return false;
    --count_;
    return true;
  }

  Simulator& sim_;
  std::uint64_t count_;
  std::deque<EventFn> waiters_;
};

/// Wait for a group of processes to finish: Add() before spawning each,
/// Done() at the end of each, co_await Wait() to join them all.
class WaitGroup {
 public:
  explicit WaitGroup(Simulator& s) : sim_(s) {}
  WaitGroup(const WaitGroup&) = delete;
  WaitGroup& operator=(const WaitGroup&) = delete;

  void Add(std::uint64_t n = 1) { count_ += n; }

  void Done() {
    ZSTOR_CHECK(count_ > 0);
    if (--count_ == 0) {
      for (auto h : waiters_) sim_.ResumeSoon(h);
      waiters_.clear();
    }
  }

  struct Awaiter {
    WaitGroup& wg;
    bool await_ready() const { return wg.count_ == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      wg.waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };
  Awaiter Wait() { return Awaiter{*this}; }

  std::uint64_t count() const { return count_; }

 private:
  Simulator& sim_;
  std::uint64_t count_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// One-shot event: waiters suspend until Set() is called once. Waiting on
/// an already-set event does not suspend.
class OneShotEvent {
 public:
  explicit OneShotEvent(Simulator& s) : sim_(s) {}
  OneShotEvent(const OneShotEvent&) = delete;
  OneShotEvent& operator=(const OneShotEvent&) = delete;

  void Set() {
    if (set_) return;
    set_ = true;
    for (auto h : waiters_) sim_.ResumeSoon(h);
    waiters_.clear();
  }

  struct Awaiter {
    OneShotEvent& e;
    bool await_ready() const { return e.set_; }
    void await_suspend(std::coroutine_handle<> h) { e.waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };
  Awaiter Wait() { return Awaiter{*this}; }
  bool is_set() const { return set_; }

 private:
  Simulator& sim_;
  bool set_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace zstor::sim
