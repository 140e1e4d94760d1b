// Host storage stacks: the software between the benchmark and the device.
//
// The paper uses two stacks (§III-A) and shows their costs matter:
//   * SPDK — polled userspace queue pairs, no scheduler, lowest overhead
//     (Obs. 2). One in-flight write per zone is the caller's problem.
//   * Linux kernel (io_uring, submission-queue polling) with either no
//     scheduler or mq-deadline. mq-deadline buffers writes per zone,
//     merges contiguous ones and dispatches them serially — the mechanism
//     behind Obs. 7's 293 KIOPS intra-zone write throughput.
// A fourth choice, blocking psync, is the slowest path of the paper's
// storage-API references. HostStack (host_stack.h) implements all four.
#pragma once

#include <cstdint>

#include "nvme/queue_pair.h"
#include "nvme/types.h"
#include "sim/task.h"
#include "sim/time.h"
#include "telemetry/telemetry.h"

namespace zstor::hostif {

/// Which host software stack services submissions (§III-A, plus the
/// blocking psync path of the paper's storage-API references).
enum class StackChoice { kSpdk, kKernelNone, kKernelMq, kPsync };

constexpr const char* ToString(StackChoice k) {
  switch (k) {
    case StackChoice::kSpdk: return "spdk";
    case StackChoice::kKernelNone: return "kernel-none";
    case StackChoice::kKernelMq: return "kernel-mq-deadline";
    case StackChoice::kPsync: return "psync";
  }
  return "?";
}

/// A host I/O stack. Latency reported by TimedCompletion spans host
/// submission through host completion (the application-observed latency).
class Stack {
 public:
  virtual ~Stack() = default;
  /// Issues one command through the stack and suspends to its completion.
  virtual sim::Task<nvme::TimedCompletion> Submit(nvme::Command cmd) = 0;
  virtual const nvme::NamespaceInfo& info() const = 0;
  /// Enables host-side tracing/metrics (non-owning; null disables).
  /// Implementations forward to their queue pair as well.
  virtual void AttachTelemetry(telemetry::Telemetry* t) { telem_ = t; }

 protected:
  /// The tracer to emit into, or nullptr when telemetry is disabled —
  /// call sites guard on this one pointer and cost nothing otherwise.
  telemetry::Tracer* trace() const {
    return telem_ != nullptr ? &telem_->tracer() : nullptr;
  }

  telemetry::Telemetry* telem_ = nullptr;
};

}  // namespace zstor::hostif
