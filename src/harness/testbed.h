// The one-stop experiment facade: a Testbed owns a simulator, one or
// more devices (ZNS, possibly striped; or conventional), a host stack
// and — optionally — a telemetry bundle, wired together so benches and
// tests stop copy-pasting the same construction boilerplate.
//
//   auto tb = zstor::TestbedBuilder()
//                 .WithZnsProfile(zns::Zn540Profile())
//                 .WithStack(zstor::StackChoice::kSpdk)
//                 .WithTelemetry({.trace_path = "run.jsonl"})
//                 .Build();
//   auto r = tb.RunJob(spec);        // described into tb's metrics
//   tb.Finish();                     // flush trace, write metrics JSON
//
// Multi-device: .WithDevices(n) builds n identical ZNS devices, each with
// its own host stack, striped into one logical namespace by
// hostif::StripedStack (logical zone z -> device z % n). Log pages and
// FillZones aggregate/route across devices transparently.
//
// When no explicit telemetry config is given, Build() consults the
// process-wide BenchEnv (see bench_flags.h): a bench invoked with
// --trace=FILE / --metrics=FILE gets tracing on every testbed it builds,
// all sharing one JSONL sink, with per-testbed metrics snapshots written
// at exit.
//
// Lanes (DESIGN.md §12): every testbed runs on a sim::ParallelSimulator.
// By default it has one lane, which holds every device, the host stack
// and the workload; a run is then one unbounded window, exactly the
// classic single-simulator schedule. .WithSimThreads(n >= 1) (or the
// --sim-threads=N flag) on a multi-device ZNS testbed gives device d its
// own lane 1 + d with its host stack; lane 0 keeps the host side
// (StripedStack over MailboxStack proxies, ResilientStack, workload
// workers that cannot shard), and workers whose zones all live on one
// device run inside that device's lane against a StripeLaneView
// (hostif/lane_stacks.h). Output — results, trace, timeline, metrics —
// is byte-identical for every n >= 1.
//
// Faults (DESIGN.md §8): every device owns its fault plan, seeded
// seed + 0x9E3779B97F4A7C15 * d, whatever the lane layout.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "ftl/conv_device.h"
#include "hostif/host_stack.h"
#include "hostif/lane_stacks.h"
#include "hostif/resilient_stack.h"
#include "hostif/stack.h"
#include "hostif/striped_stack.h"
#include "nvme/log_page.h"
#include "sim/parallel_sim.h"
#include "sim/simulator.h"
#include "telemetry/sampler.h"
#include "telemetry/telemetry.h"
#include "workload/job.h"
#include "workload/runner.h"
#include "zns/profile.h"
#include "zns/zns_device.h"

namespace zstor {

/// Which host software stack services submissions (§III-A). The enum and
/// its ToString live with the stacks (hostif/stack.h) and are re-exported
/// here for the many call sites that spell them zstor::StackChoice.
using StackChoice = hostif::StackChoice;
using hostif::ToString;

/// How a testbed's telemetry is surfaced. All fields optional; an
/// all-default config still enables metrics collection (no trace sink).
struct TelemetryConfig {
  /// Append trace events to this JSONL file ("" = no file sink).
  std::string trace_path;
  /// Keep the last N events in an in-memory ring instead (tests and
  /// post-hoc inspection). Takes precedence over trace_path.
  std::size_t ring_capacity = 0;
  /// Write a metrics-snapshot JSON object here on Finish().
  std::string metrics_path;
  /// Append timeline records (DESIGN.md §10) to this JSONL file and run
  /// a telemetry::MetricSampler at `sample_interval` ("" = no timeline).
  std::string timeline_path;
  /// Capture timeline records into this string instead of a file (tests;
  /// takes precedence over timeline_path). Non-owning.
  std::string* timeline_capture = nullptr;
  /// Virtual-time cadence of the timeline's periodic metric samples.
  sim::Time sample_interval = sim::Milliseconds(100);
};

class TestbedBuilder;

/// Owns one experiment's worth of simulated hardware + host stack.
/// Movable (members are heap-allocated, so internal references stay
/// valid); destruction runs Finish() if the caller didn't.
class Testbed {
 public:
  Testbed(Testbed&&) = default;
  Testbed& operator=(Testbed&&) = default;
  ~Testbed();

  /// The host-side simulator: lane 0 of the testbed's engine.
  sim::Simulator& sim() { return psim_->lane(0); }
  hostif::Stack& stack() { return *stack_; }
  /// The parallel engine; null when the testbed has one lane.
  sim::ParallelSimulator* parallel_sim() {
    return lanes_.size() > 1 ? psim_.get() : nullptr;
  }
  /// Resolved worker-thread count for the parallel engine (>= 1), or 0
  /// when the testbed has one lane.
  int sim_threads() const { return sim_threads_; }
  /// Device 0 as its generic NVMe face (the only device unless
  /// WithDevices(n > 1) was used).
  nvme::Controller& controller();
  /// Concrete device accessors; null when the testbed holds the other
  /// kind. zns() is device 0; zns(d) indexes the striped set.
  zns::ZnsDevice* zns() { return zns_devs_.empty() ? nullptr : zns_devs_.front().get(); }
  zns::ZnsDevice* zns(std::size_t d) { return zns_devs_[d].get(); }
  std::size_t num_devices() const {
    return conv_ != nullptr ? 1 : zns_devs_.size();
  }
  ftl::ConvDevice* conv() { return conv_.get(); }
  /// The zone-striping layer; non-null only when WithDevices(n > 1).
  hostif::StripedStack* striped() { return striped_; }
  /// The host stack, non-null only for the kernel choices (kKernelNone,
  /// kKernelMq) on a single device; scheduler stats live here.
  hostif::HostStack* kernel() { return kernel_; }
  /// Null when telemetry is disabled.
  telemetry::Telemetry* telemetry() { return lanes_.front().telem.get(); }
  /// Lane 0's periodic timeline sampler; null unless a timeline is
  /// configured (TelemetryConfig::timeline_* or the --timeline flag).
  telemetry::MetricSampler* sampler() { return lanes_.front().sampler.get(); }
  /// Device 0's fault plan; null when faults are disabled. Each device
  /// owns one plan; the "fault." metrics sum them.
  fault::FaultPlan* faults() {
    return faults_.empty() ? nullptr : faults_.front().get();
  }
  /// Device d's lane-side view of the logical namespace (only when
  /// device d has a lane of its own; null otherwise). Sharded workload
  /// workers submit here.
  hostif::StripeLaneView* lane_view(std::size_t d) {
    return 1 + d < lanes_.size() ? lanes_[1 + d].view.get() : nullptr;
  }
  /// The host retry layer; null unless faults or WithRetryPolicy enabled
  /// it. When non-null, stack() IS this wrapper.
  hostif::ResilientStack* resilient() { return resilient_; }
  /// Null unless TelemetryConfig::ring_capacity was set.
  telemetry::RingBufferSink* ring() { return ring_; }

  // ---- experiment conveniences ---------------------------------------
  /// DebugFillZone over logical zones [first, first+count) (ZNS testbeds
  /// only). Multi-device: each logical zone is filled on the device the
  /// stripe maps it to.
  void FillZones(std::uint32_t first, std::uint32_t count);
  std::vector<std::uint32_t> ZoneList(std::uint32_t first,
                                      std::uint32_t count) const;
  /// Runs a workload job to completion; the result is additionally
  /// Describe()d into this testbed's metrics when telemetry is on.
  workload::JobResult RunJob(const workload::JobSpec& spec);
  std::vector<workload::JobResult> RunJobs(
      const std::vector<workload::JobSpec>& specs);
  /// Starts the periodic timeline sampler(s) if configured. RunJob does
  /// this implicitly; benches that Spawn their own flows and drive
  /// sim().Run() directly must call it first or the timeline degenerates
  /// to a single final sample.
  void EnsureSamplersRunning();

  /// Batch-exports every layer's counters (device, NAND, scheduler,
  /// stripe) into the registry and freezes it. Multi-device testbeds
  /// export device/NAND counters summed across devices. Requires
  /// telemetry.
  telemetry::Snapshot TakeSnapshot();

  // ---- NVMe-style log pages (nvme/log_page.h) ------------------------
  // Live device introspection: free (no virtual time, no counters), works
  // with or without telemetry. Multi-device testbeds serve the aggregated
  // view: SMART counters summed, zone report in logical zone order with
  // stripe-translated addresses, die utilization concatenated with die
  // indices offset per device.
  /// The device's SMART-like log (either device kind).
  nvme::SmartLog Smart() const;
  /// Per-zone state + occupancy (ZNS testbeds only; checked).
  nvme::ZoneReportLog ZoneReport() const;
  /// Per-die utilization (either device kind).
  nvme::DieUtilLog DieUtil() const;
  /// All of the device's log pages as one JSON object:
  /// {"smart": ..., "die_util": ..., "zone_report": ...?}.
  std::string LogPagesJson() const;
  /// Writes LogPagesJson() to `path` (+ newline); false if unopenable.
  bool WriteLogPages(const std::string& path) const;

  /// Idempotent teardown: snapshot + metrics-file write (or hand-off to
  /// the BenchEnv collector) and trace flush. Called by the destructor.
  void Finish();

 private:
  friend class TestbedBuilder;
  Testbed() = default;

  /// Raw pointers to counter-bearing layers. The layers are all
  /// heap-allocated, so these stay valid across Testbed moves — which is
  /// why a sampler's refresh closure copies its lane's Layers and never
  /// captures `this` (a moved-from Testbed would dangle).
  struct Layers {
    std::vector<zns::ZnsDevice*> zns;
    std::vector<fault::FaultPlan*> faults;
    /// Folded into the striping layer's stats when both are present.
    std::vector<const hostif::StripeLaneView*> views;
    ftl::ConvDevice* conv = nullptr;
    hostif::HostStack* kernel = nullptr;
    hostif::StripedStack* striped = nullptr;
    hostif::ResilientStack* resilient = nullptr;

    /// Batch-exports every layer's counters into `m`. Several devices
    /// export field-wise sums under the usual "zns."/"nand." names;
    /// `per_lane` (a timeline on a striped testbed) adds `laneN.zns.*`
    /// so timeline samples can attribute throughput to stripe lanes.
    void Describe(telemetry::MetricsRegistry& m, bool per_lane) const;
  };

  /// One simulation lane: the layers that live in it and the telemetry
  /// they report into. Lane 0 holds the host side, and every device when
  /// the testbed has one lane; lane 1 + d otherwise holds device d.
  struct Lane {
    Layers layers;
    /// Lane 0's is the testbed's bundle; the others exist only with
    /// telemetry on and are folded into lane 0's at Finish.
    std::unique_ptr<telemetry::Telemetry> telem;
    /// With two or more lanes, each lane buffers its trace events and
    /// timeline records here (owned by `telem` / heap-allocated so the
    /// writer's pointer survives Testbed moves); Finish replays them
    /// into the real outputs in lane order.
    telemetry::ShardSink* shard = nullptr;
    std::unique_ptr<std::string> tl_capture;
    std::unique_ptr<telemetry::MetricSampler> sampler;
    /// Device lanes only: the device's host stack (lane 0 reaches it
    /// through a MailboxStack) and the view sharded workers submit to.
    std::unique_ptr<hostif::Stack> stack;
    std::unique_ptr<hostif::StripeLaneView> view;
  };

  // Member order is destruction order in reverse: the engine outlives
  // the lanes, whose telemetry outlives the devices and stacks attached
  // to it. Stacks and views only hold references they never use while
  // being destroyed.
  std::unique_ptr<sim::ParallelSimulator> psim_;
  /// With two or more lanes, the real (file/ring/shared) sink and
  /// timeline that the lanes' buffers replay into at Finish.
  std::unique_ptr<telemetry::TraceSink> final_sink_owned_;
  std::unique_ptr<telemetry::TimelineWriter> final_timeline_owned_;
  telemetry::TraceSink* final_sink_ = nullptr;
  telemetry::TimelineWriter* final_timeline_ = nullptr;
  std::vector<Lane> lanes_;
  /// One plan per device (empty when faults are disabled).
  std::vector<std::unique_ptr<fault::FaultPlan>> faults_;
  /// The ZNS device set: exactly one unless built WithDevices(n > 1);
  /// empty for conventional testbeds.
  std::vector<std::unique_ptr<zns::ZnsDevice>> zns_devs_;
  std::unique_ptr<ftl::ConvDevice> conv_;
  /// The raw stack when a ResilientStack wraps it (stack_ is the wrapper
  /// then); empty otherwise.
  std::unique_ptr<hostif::Stack> inner_stack_;
  std::unique_ptr<hostif::Stack> stack_;
  /// The stripe map over the ZNS device set (one device: identity).
  hostif::StripeMap map_;
  hostif::ResilientStack* resilient_ = nullptr;
  hostif::HostStack* kernel_ = nullptr;
  hostif::StripedStack* striped_ = nullptr;  // owned via stack_/inner_stack_
  telemetry::RingBufferSink* ring_ = nullptr;  // owned by lane 0's telem
                                               // or final_sink_owned_
  std::string label_;
  std::string metrics_path_;
  int sim_threads_ = 0;
  bool report_to_env_ = false;
  bool logpages_to_env_ = false;
  bool finished_ = false;

  /// The lane device d lives in.
  std::uint32_t LaneOf(std::uint32_t d) const {
    return lanes_.size() > 1 ? 1 + d : 0;
  }
  /// The union of every lane's layers, devices in index order.
  Layers AllLayers() const;
  std::vector<std::unique_ptr<workload::Job>> StartSharded(
      const workload::JobSpec& spec);
  workload::JobResult JoinSharded(
      std::vector<std::unique_ptr<workload::Job>>& parts);
};

class TestbedBuilder {
 public:
  /// Selects the simulated ZNS device (the default, with Zn540Profile()).
  TestbedBuilder& WithZnsProfile(const zns::ZnsProfile& p);
  /// Selects the conventional (device-side GC) device instead.
  TestbedBuilder& WithConvProfile(const ftl::ConvProfile& p);
  /// Builds n identical ZNS devices behind a hostif::StripedStack (n = 1,
  /// the default, keeps the single-device wiring). Each device gets its
  /// own host stack and a distinct noise seed. Incompatible with
  /// WithConvProfile.
  TestbedBuilder& WithDevices(std::uint32_t n);
  TestbedBuilder& WithStack(StackChoice s);
  /// Namespace LBA format (ZNS only; the conventional model is 4 KiB).
  TestbedBuilder& WithLbaBytes(std::uint32_t lba_bytes);
  /// Explicitly enables telemetry with this config (otherwise Build()
  /// consults the BenchEnv --trace/--metrics flags).
  TestbedBuilder& WithTelemetry(TelemetryConfig cfg);
  /// Names this testbed's snapshot in shared metrics output.
  TestbedBuilder& WithLabel(std::string label);
  /// Injects media faults per `spec` (overrides the BenchEnv --faults
  /// flag, which otherwise applies to every built testbed). Each device
  /// gets its own FaultPlan of this spec, device d's seeded
  /// spec.seed + 0x9E3779B97F4A7C15 * d; the testbed owns them. Also enables the host retry layer unless
  /// WithRetryPolicy set one explicitly.
  TestbedBuilder& WithFaults(const fault::FaultSpec& spec);
  /// Wraps the host stack in a hostif::ResilientStack with this policy
  /// (retries, backoff, per-attempt timeout).
  TestbedBuilder& WithRetryPolicy(const hostif::RetryPolicy& policy);
  /// Gives each device its own lane and runs them on n worker threads
  /// (n >= 1; n = 1 executes the identical window schedule serially, so
  /// output is byte-identical for every n). n = 0 keeps one lane.
  /// Overrides the --sim-threads flag, which otherwise applies. Only
  /// effective on multi-device ZNS testbeds; single-device and
  /// conventional testbeds always have one lane.
  TestbedBuilder& WithSimThreads(int n);

  Testbed Build();

 private:
  std::optional<zns::ZnsProfile> zns_profile_;
  std::optional<ftl::ConvProfile> conv_profile_;
  std::uint32_t num_devices_ = 1;
  StackChoice stack_ = StackChoice::kSpdk;
  std::uint32_t lba_bytes_ = 4096;
  std::optional<TelemetryConfig> telem_cfg_;
  std::optional<fault::FaultSpec> fault_spec_;
  std::optional<hostif::RetryPolicy> retry_policy_;
  std::optional<int> sim_threads_;
  std::string label_;
};

}  // namespace zstor
