// HostStack: the one host stack, for every StackChoice.
//
// The paper's host stacks (§III-A) differ in two ways only (Obs. 2 and
// Obs. 7): each pays its own per-command host cost, and mq-deadline
// stages zoned writes per zone and merges them. So one class serves every
// choice, and the choice picks a row of kStackCosts.
//
// mq-deadline semantics for zoned writes (as in the Linux block layer):
// writes to a zone are staged per zone, contiguous staged writes are
// merged into one larger request, and a zone has at most one write in
// flight — which both preserves the sequential-write rule and produces
// the dramatic intra-zone write throughput of Obs. 7 (merged 4 KiB
// writes reach the device's bandwidth limit instead of its per-command
// rate).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <unordered_map>
#include <vector>

#include "hostif/stack.h"
#include "nvme/controller.h"
#include "nvme/queue_pair.h"
#include "sim/simulator.h"
#include "sim/sync.h"

namespace zstor::hostif {

/// One stack choice's host-side behaviour.
struct StackCosts {
  /// Delays the command before it reaches the device.
  sim::Time submit = 0;
  /// Delays the caller after the device completes the command.
  sim::Time complete = 0;
  /// The I/O scheduler's per-command cost, paid on submission.
  sim::Time scheduler = 0;
  /// Zoned writes are staged per zone and merged (mq-deadline).
  bool stage_zoned_writes = false;
};

/// Indexed by StackChoice. SPDK is calibrated so a 4 KiB write lands at
/// the paper's 11.36 us (device-internal 10.35 us + ~1.01 us host);
/// kernel-none at 12.62 us and mq-deadline 1.85 us above it (Obs. 2).
/// psync is the blocking pread/pwrite path the paper's storage-API
/// references measure as the slowest ([14], [82]): a full syscall round
/// trip and the kernel block layer each way.
inline constexpr StackCosts kStackCosts[] = {
    /*kSpdk=*/{.submit = sim::Microseconds(0.6),
               .complete = sim::Microseconds(0.41)},
    /*kKernelNone=*/{.submit = sim::Microseconds(1.2),
                     .complete = sim::Microseconds(1.07)},
    /*kKernelMq=*/{.submit = sim::Microseconds(1.2),
                   .complete = sim::Microseconds(1.07),
                   .scheduler = sim::Microseconds(1.85),
                   .stage_zoned_writes = true},
    /*kPsync=*/{.submit = sim::Microseconds(2.6),
                .complete = sim::Microseconds(2.3)},
};
static_assert(std::size(kStackCosts) ==
              static_cast<std::size_t>(StackChoice::kPsync) + 1);

/// The block layer's maximum merged-request size.
inline constexpr std::uint64_t kMaxMergeBytes = 128 * 1024;

struct SchedulerStats {
  std::uint64_t staged_writes = 0;     // writes that entered the scheduler
  std::uint64_t dispatched_writes = 0; // requests sent to the device
  std::uint64_t merged_writes = 0;     // writes coalesced into another
  double MergedFraction() const {
    return staged_writes == 0
               ? 0.0
               : static_cast<double>(merged_writes) /
                     static_cast<double>(staged_writes);
  }

  /// Exports scheduler counters under the "sched." prefix (the shared
  /// Describe protocol; see telemetry/metrics.h).
  void Describe(telemetry::MetricsRegistry& m) const {
    m.GetCounter("sched.staged_writes").Set(staged_writes);
    m.GetCounter("sched.dispatched_writes").Set(dispatched_writes);
    m.GetCounter("sched.merged_writes").Set(merged_writes);
    m.GetGauge("sched.merged_fraction").Set(MergedFraction());
  }
};

class HostStack : public Stack {
 public:
  /// `qp_depth` bounds device-visible in-flight commands; workloads
  /// normally control concurrency themselves, so the default is generous.
  HostStack(sim::Simulator& s, nvme::Controller& ctrl,
            StackChoice choice = StackChoice::kSpdk,
            std::uint32_t qp_depth = 4096)
      : sim_(s),
        ctrl_(ctrl),
        qp_(s, ctrl, qp_depth),
        costs_(kStackCosts[static_cast<std::size_t>(choice)]) {}

  sim::Task<nvme::TimedCompletion> Submit(nvme::Command cmd) override {
    telemetry::Tracer* tr = trace();
    if (tr != nullptr && cmd.trace_id == 0) {
      cmd.trace_id = tr->NextId();
    }
    sim::Time start = sim_.now();
    co_await sim_.Delay(costs_.submit + costs_.scheduler);
    if (tr != nullptr) {
      tr->Span(start, sim_.now(), cmd.trace_id, telemetry::Layer::kHost,
               "host.submit", static_cast<std::int64_t>(cmd.opcode),
               static_cast<std::int64_t>(cmd.nlb));
    }
    nvme::TimedCompletion tc;
    if (costs_.stage_zoned_writes && cmd.opcode == nvme::Opcode::kWrite &&
        info().zoned) {
      sim::Time staged_at = sim_.now();
      tc.completion = co_await StageZonedWrite(cmd);
      tc.trace_id = cmd.trace_id;
      if (tr != nullptr) {
        // The whole scheduler round trip: staging, possibly merging into a
        // neighbor's request, device service of the dispatched batch.
        tr->Span(staged_at, sim_.now(), cmd.trace_id,
                 telemetry::Layer::kHost, "sched.wait",
                 static_cast<std::int64_t>(ZoneOf(cmd.slba)));
      }
    } else {
      tc = co_await qp_.Issue(cmd);
    }
    sim::Time device_done = sim_.now();
    co_await sim_.Delay(costs_.complete);
    tc.submitted = start;
    tc.completed = sim_.now();
    if (tr != nullptr) {
      tr->Span(device_done, tc.completed, cmd.trace_id,
               telemetry::Layer::kHost, "host.complete");
      telem_->metrics().GetHistogram("host.latency_ns").Record(tc.latency());
    }
    co_return tc;
  }

  const nvme::NamespaceInfo& info() const override { return ctrl_.info(); }
  const SchedulerStats& scheduler_stats() const { return sched_stats_; }

  void AttachTelemetry(telemetry::Telemetry* t) override {
    telem_ = t;
    qp_.AttachTelemetry(t);
  }

 private:
  /// One staged write. Owned by the coroutine frame of the waiter in
  /// StageZonedWrite — it outlives every queue/batch reference because the
  /// waiter only returns after `done` fires.
  struct Request {
    nvme::Command cmd;
    nvme::Completion completion;
    sim::OneShotEvent done;
    explicit Request(sim::Simulator& s, nvme::Command c)
        : cmd(c), done(s) {}
  };

  struct ZoneQueue {
    std::deque<Request*> staged;
    bool in_flight = false;
  };

  std::uint32_t ZoneOf(nvme::Lba lba) const {
    return static_cast<std::uint32_t>(lba / info().zone_size_lbas);
  }

  sim::Task<nvme::Completion> StageZonedWrite(nvme::Command cmd) {
    std::uint32_t zid = ZoneOf(cmd.slba);
    Request req(sim_, cmd);  // lives in this coroutine frame
    zones_[zid].staged.push_back(&req);
    sched_stats_.staged_writes++;
    MaybeDispatch(zid);
    co_await req.done.Wait();
    co_return req.completion;
  }

  void MaybeDispatch(std::uint32_t zid) {
    ZoneQueue& zq = zones_[zid];
    if (zq.in_flight || zq.staged.empty()) return;
    // Merge the longest contiguous run from the head, bounded by the
    // block layer's maximum request size. The merged command carries the
    // head's payload tag, which the device stores as tag + i at LBA
    // slba + i, so a tagged write joins only when its tag continues that
    // sequence (and an untagged one only an untagged batch).
    std::vector<Request*> batch;
    batch.push_back(zq.staged.front());
    zq.staged.pop_front();
    const nvme::Command& head = batch[0]->cmd;
    const std::uint32_t lba_bytes = info().format.lba_bytes;
    nvme::Lba end = head.slba + head.nlb;
    std::uint64_t bytes = static_cast<std::uint64_t>(head.nlb) * lba_bytes;
    while (!zq.staged.empty()) {
      Request& next = *zq.staged.front();
      std::uint64_t next_bytes =
          static_cast<std::uint64_t>(next.cmd.nlb) * lba_bytes;
      const std::uint64_t tag_wanted =
          head.payload_tag == 0 ? 0 : head.payload_tag + (end - head.slba);
      if (next.cmd.slba != end || bytes + next_bytes > kMaxMergeBytes ||
          next.cmd.payload_tag != tag_wanted) {
        break;
      }
      end += next.cmd.nlb;
      bytes += next_bytes;
      sched_stats_.merged_writes++;
      batch.push_back(zq.staged.front());
      zq.staged.pop_front();
    }
    zq.in_flight = true;
    sched_stats_.dispatched_writes++;
    sim::Spawn(DispatchBatch(zid, std::move(batch)));
  }

  sim::Task<> DispatchBatch(std::uint32_t zid,
                            std::vector<Request*> batch) {
    nvme::Command merged = batch.front()->cmd;
    std::uint32_t nlb = 0;
    for (const Request* r : batch) nlb += r->cmd.nlb;
    merged.nlb = nlb;
    if (telemetry::Tracer* tr = trace(); tr != nullptr) {
      // The merged request is a new device-visible command; give it its
      // own id so device spans aren't misattributed to the head write.
      merged.trace_id = tr->NextId();
      tr->Instant(sim_.now(), merged.trace_id, telemetry::Layer::kHost,
                  "sched.dispatch", static_cast<std::int64_t>(zid),
                  static_cast<std::int64_t>(batch.size()));
    }
    nvme::TimedCompletion tc = co_await qp_.Issue(merged);
    for (Request* r : batch) {
      r->completion = tc.completion;
      r->done.Set();
    }
    zones_[zid].in_flight = false;
    MaybeDispatch(zid);
  }

  sim::Simulator& sim_;
  nvme::Controller& ctrl_;
  nvme::QueuePair qp_;
  StackCosts costs_;
  std::unordered_map<std::uint32_t, ZoneQueue> zones_;
  SchedulerStats sched_stats_;
};

}  // namespace zstor::hostif
