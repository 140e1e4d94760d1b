// Served resources: the building blocks for device-internal contention.
//
// FifoResource models a server pool (e.g. a NAND die, a DMA engine) with a
// fixed number of slots and FIFO admission. Its waiters are EventFns: a
// suspended coroutine's handle, or a deferred start that runs code for a
// queued record only once the slot is granted (nand::FlashArray queues
// its page operations this way, with no coroutine frame per waiting op).
// PriorityResource adds strict
// priority classes — the ZNS firmware command processor uses it so that
// host I/O commands always bypass queued background (reset) work, which is
// the mechanism behind the paper's Observations 12 and 13.
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

/// RAII slot ownership for resources. Releases on destruction.
template <typename R>
class [[nodiscard]] SlotGuard {
 public:
  SlotGuard() = default;
  explicit SlotGuard(R* r) : res_(r) {}
  SlotGuard(SlotGuard&& o) noexcept : res_(std::exchange(o.res_, nullptr)) {}
  SlotGuard& operator=(SlotGuard&& o) noexcept {
    Release();
    res_ = std::exchange(o.res_, nullptr);
    return *this;
  }
  SlotGuard(const SlotGuard&) = delete;
  SlotGuard& operator=(const SlotGuard&) = delete;
  ~SlotGuard() { Release(); }

  void Release() {
    if (res_ != nullptr) std::exchange(res_, nullptr)->Release();
  }

 private:
  R* res_ = nullptr;
};

/// Multi-slot server with FIFO admission.
class FifoResource {
 public:
  using Guard = SlotGuard<FifoResource>;

  FifoResource(Simulator& s, std::uint32_t slots) : sim_(s), free_(slots) {
    ZSTOR_CHECK(slots > 0);
  }
  FifoResource(const FifoResource&) = delete;
  FifoResource& operator=(const FifoResource&) = delete;

  struct Awaiter {
    FifoResource& r;
    bool await_ready() { return r.TryAcquire(); }
    void await_suspend(std::coroutine_handle<> h) {
      r.waiters_.emplace_back(h);
    }
    Guard await_resume() { return Guard{&r}; }
  };

  /// Suspends until a slot is free; the returned guard holds the slot.
  Awaiter Acquire() { return Awaiter{*this}; }

  /// Runs `then` holding a slot: right away when one is free, otherwise
  /// as a fresh event once a slot is handed over (FIFO with the
  /// coroutine waiters). `then` owns the slot and must Release() it.
  void AcquireThen(EventFn then) {
    if (TryAcquire()) {
      then();
    } else {
      waiters_.push_back(std::move(then));
    }
  }

  void Release() {
    if (!waiters_.empty()) {
      // The slot transfers to the waiter.
      sim_.ScheduleIn(0, std::move(waiters_.front()));
      waiters_.pop_front();
    } else {
      ++free_;
    }
  }

  std::uint32_t free_slots() const { return free_; }
  std::size_t queue_length() const { return waiters_.size(); }

 private:
  bool TryAcquire() {
    if (free_ == 0) return false;
    --free_;
    return true;
  }

  Simulator& sim_;
  std::uint32_t free_;
  std::deque<EventFn> waiters_;
};

/// Multi-slot server with strict priority classes (0 = highest). Within a
/// class, admission is FIFO. A freed slot always goes to the highest
/// waiting class; there is no preemption of work already in service.
class PriorityResource {
 public:
  using Guard = SlotGuard<PriorityResource>;

  PriorityResource(Simulator& s, std::uint32_t slots,
                   std::uint32_t priority_levels = 2)
      : sim_(s), free_(slots), waiters_(priority_levels) {
    ZSTOR_CHECK(slots > 0);
    ZSTOR_CHECK(priority_levels > 0);
  }
  PriorityResource(const PriorityResource&) = delete;
  PriorityResource& operator=(const PriorityResource&) = delete;

  struct Awaiter {
    PriorityResource& r;
    std::uint32_t prio;
    bool await_ready() {
      if (r.free_ == 0) return false;
      // A free slot with waiters pending can only happen transiently; slots
      // are handed to waiters directly in Release(), so free_>0 implies no
      // queue and we may take the slot immediately.
      --r.free_;
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) {
      r.waiters_[prio].push_back(h);
    }
    Guard await_resume() { return Guard{&r}; }
  };

  /// Suspends until a slot is granted to priority class `priority`.
  Awaiter Acquire(std::uint32_t priority) {
    ZSTOR_CHECK(priority < waiters_.size());
    return Awaiter{*this, priority};
  }

  void Release() {
    for (auto& q : waiters_) {
      if (!q.empty()) {
        auto h = q.front();
        q.pop_front();
        sim_.ResumeSoon(h);
        return;
      }
    }
    ++free_;
  }

  std::uint32_t free_slots() const { return free_; }
  std::size_t queue_length(std::uint32_t priority) const {
    return waiters_[priority].size();
  }
  std::size_t total_queued() const {
    std::size_t n = 0;
    for (const auto& q : waiters_) n += q.size();
    return n;
  }

 private:
  Simulator& sim_;
  std::uint32_t free_;
  std::vector<std::deque<std::coroutine_handle<>>> waiters_;
};

}  // namespace zstor::sim
