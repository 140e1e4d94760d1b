#include "harness/testbed.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

#include "harness/bench_flags.h"
#include "sim/check.h"
#include "workload/runner.h"

namespace zstor {

namespace {

/// The virtual-time host<->device interconnect hop charged to each
/// cross-lane message under the parallel engine — also the engine's
/// conservative-synchronization lookahead (DESIGN.md §12).
constexpr sim::Time kInterconnectHop = 250;  // ns

/// Field-wise sum of every device's command counters, for the aggregated
/// snapshot of a striped testbed.
zns::ZnsCounters SumCounters(const std::vector<zns::ZnsDevice*>& devs) {
  zns::ZnsCounters t;
  for (const auto* d : devs) {
    const zns::ZnsCounters& c = d->counters();
    t.reads += c.reads;
    t.flushes += c.flushes;
    t.zone_reports += c.zone_reports;
    t.zones_worn_offline += c.zones_worn_offline;
    t.writes += c.writes;
    t.appends += c.appends;
    t.explicit_opens += c.explicit_opens;
    t.implicit_opens += c.implicit_opens;
    t.implicit_open_evictions += c.implicit_open_evictions;
    t.closes += c.closes;
    t.finishes += c.finishes;
    t.resets += c.resets;
    t.bytes_written += c.bytes_written;
    t.bytes_read += c.bytes_read;
    t.host_rejects += c.host_rejects;
    t.media_errors += c.media_errors;
    t.read_faults += c.read_faults;
    t.write_faults += c.write_faults;
    t.retired_blocks += c.retired_blocks;
    t.zones_degraded_readonly += c.zones_degraded_readonly;
    t.zones_failed_offline += c.zones_failed_offline;
    t.spare_blocks_used += c.spare_blocks_used;
    t.zone_transitions += c.zone_transitions;
    t.crashes += c.crashes;
    t.recoveries += c.recoveries;
    t.torn_pages += c.torn_pages;
    t.crash_lost_bytes += c.crash_lost_bytes;
    t.recovery_zone_scans += c.recovery_zone_scans;
    t.recovery_ns_total += c.recovery_ns_total;
    t.reset_drops += c.reset_drops;
  }
  return t;
}

nand::FlashCounters SumFlashCounters(const std::vector<zns::ZnsDevice*>& devs) {
  nand::FlashCounters t;
  for (auto* d : devs) {
    if (d->flash() == nullptr) continue;
    const nand::FlashCounters& c = d->flash()->counters();
    t.page_reads += c.page_reads;
    t.page_programs += c.page_programs;
    t.block_erases += c.block_erases;
    t.bytes_read += c.bytes_read;
    t.bytes_programmed += c.bytes_programmed;
    t.read_retries += c.read_retries;
    t.read_errors += c.read_errors;
    t.program_failures += c.program_failures;
    t.blocks_retired += c.blocks_retired;
    t.recovery_probes += c.recovery_probes;
    t.crash_discarded_pages += c.crash_discarded_pages;
  }
  return t;
}

/// Adds `b`'s activity into `a` (the SMART union of a striped set).
void AccumulateSmart(nvme::SmartLog& a, const nvme::SmartLog& b) {
  a.host_reads += b.host_reads;
  a.host_writes += b.host_writes;
  a.bytes_read += b.bytes_read;
  a.bytes_written += b.bytes_written;
  a.host_rejects += b.host_rejects;
  a.media_errors += b.media_errors;
  a.read_faults += b.read_faults;
  a.write_faults += b.write_faults;
  a.retired_blocks += b.retired_blocks;
  a.spare_blocks_used += b.spare_blocks_used;
  a.spare_blocks_total += b.spare_blocks_total;
  a.media_read_retries += b.media_read_retries;
  a.media_page_reads += b.media_page_reads;
  a.media_page_programs += b.media_page_programs;
  a.media_block_erases += b.media_block_erases;
  a.media_bytes_read += b.media_bytes_read;
  a.media_bytes_programmed += b.media_bytes_programmed;
  a.zone_resets += b.zone_resets;
  a.zone_finishes += b.zone_finishes;
  a.zone_explicit_opens += b.zone_explicit_opens;
  a.zone_implicit_opens += b.zone_implicit_opens;
  a.zone_closes += b.zone_closes;
  a.zone_transitions += b.zone_transitions;
  a.zones_worn_offline += b.zones_worn_offline;
  a.zones_degraded_readonly += b.zones_degraded_readonly;
  a.zones_failed_offline += b.zones_failed_offline;
  a.gc_invocations += b.gc_invocations;
  a.gc_units_migrated += b.gc_units_migrated;
  a.gc_blocks_erased += b.gc_blocks_erased;
}

/// Field-wise sum of every device's fault plan, for the "fault." export.
fault::FaultCounters SumFaultCounters(
    const std::vector<fault::FaultPlan*>& plans) {
  fault::FaultCounters t;
  for (const auto* p : plans) {
    const fault::FaultCounters& c = p->counters();
    t.correctable_read_errors += c.correctable_read_errors;
    t.uncorrectable_read_errors += c.uncorrectable_read_errors;
    t.program_failures += c.program_failures;
    t.read_retry_steps += c.read_retry_steps;
    t.scheduled_fired += c.scheduled_fired;
    t.wear_boosted_ops += c.wear_boosted_ops;
  }
  return t;
}

/// The striping layer's stats plus those of the device-lane views
/// (view d serves stripe lane d), so "stripe.devN" counters account for
/// both proxied and sharded traffic.
hostif::StripeStats CombinedStripeStats(
    const hostif::StripedStack& striped,
    const std::vector<const hostif::StripeLaneView*>& views) {
  hostif::StripeStats s = striped.stats();
  for (std::size_t d = 0; d < views.size(); ++d) {
    const hostif::LaneStats& v = views[d]->stats();
    hostif::LaneStats& l = s.lanes[d];
    l.issued += v.issued;
    l.completed += v.completed;
    l.errors += v.errors;
    l.in_flight += v.in_flight;
    // An upper bound, not the true joint high-water mark: proxied and
    // sharded traffic peak independently per lane.
    l.max_in_flight += v.max_in_flight;
    s.boundary_rejects += views[d]->boundary_rejects();
  }
  return s;
}

/// Device d's decorrelated seed for noise streams and fault plans;
/// device 0 keeps the base seed, so one device runs unchanged.
std::uint64_t DeviceSeed(std::uint64_t seed, std::uint32_t d) {
  return seed + 0x9E3779B97F4A7C15ull * d;
}

/// Decides which lane each worker of `spec` runs in: index 0 = the host
/// lane, 1 + d = device d's lane. A worker is sharded to a device lane
/// only when every zone it can touch lives on that one device; whole-job
/// properties that need shared host-side state — a rate limiter, the
/// retry layer, or an opcode that broadcasts/gathers — pin the entire
/// job to lane 0, as does a testbed with one lane. Only the workers the
/// spec lists (all of them when worker_ids is empty) are planned. The
/// decision depends only on the spec, the stripe map and the lane
/// count, never on the thread count, so every lane's event schedule is
/// identical for any --sim-threads value.
std::vector<std::vector<std::uint32_t>> PlanShards(
    const workload::JobSpec& spec, const nvme::NamespaceInfo& info,
    const hostif::StripeMap& map, std::size_t num_lanes,
    bool has_resilient) {
  std::vector<std::vector<std::uint32_t>> plan(num_lanes);
  std::vector<std::uint32_t> workers = spec.worker_ids;
  if (workers.empty()) {
    for (std::uint32_t w = 0; w < spec.workers; ++w) workers.push_back(w);
  }
  const bool pinned =
      num_lanes == 1 || has_resilient || spec.rate_bytes_per_sec > 0 ||
      (spec.op != nvme::Opcode::kRead && spec.op != nvme::Opcode::kWrite &&
       spec.op != nvme::Opcode::kAppend &&
       spec.op != nvme::Opcode::kZoneMgmtSend);
  if (pinned) {
    plan[0] = std::move(workers);
    return plan;
  }
  // Resolve the zone list the way Job's constructor does, so per-worker
  // slices match the slices the sharded Jobs will compute.
  std::vector<std::uint32_t> zones = spec.zones;
  if (zones.empty()) {
    zones.reserve(info.num_zones);
    for (std::uint32_t z = 0; z < info.num_zones; ++z) zones.push_back(z);
  }
  for (std::uint32_t w : workers) {
    std::uint32_t lane = 0;
    const std::vector<std::uint32_t> mine =
        spec.partition_zones ? workload::ZoneSlice(zones, spec.workers, w)
                             : zones;
    if (!mine.empty()) {
      const std::uint32_t d = map.DeviceOf(mine.front());
      bool one_device = true;
      for (std::uint32_t z : mine) {
        one_device = one_device && map.DeviceOf(z) == d;
      }
      if (one_device) lane = 1 + d;
    }
    plan[lane].push_back(w);
  }
  return plan;
}

std::uint64_t NextParallelEpoch() {
  static std::atomic<std::uint64_t> epoch{0};
  return epoch.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

void Testbed::Layers::Describe(telemetry::MetricsRegistry& m,
                               bool per_lane) const {
  if (!zns.empty()) {
    SumCounters(zns).Describe(m);
    SumFlashCounters(zns).Describe(m);
    if (per_lane && zns.size() > 1) {
      for (std::size_t d = 0; d < zns.size(); ++d) {
        const zns::ZnsCounters& c = zns[d]->counters();
        const std::string p = "lane" + std::to_string(d) + ".zns.";
        m.GetCounter(p + "bytes_written").Set(c.bytes_written);
        m.GetCounter(p + "bytes_read").Set(c.bytes_read);
        m.GetCounter(p + "appends").Set(c.appends);
        m.GetCounter(p + "resets").Set(c.resets);
      }
    }
  }
  if (conv != nullptr) {
    conv->counters().Describe(m);
    conv->flash().counters().Describe(m);
  }
  if (kernel != nullptr) kernel->scheduler_stats().Describe(m);
  if (striped != nullptr) CombinedStripeStats(*striped, views).Describe(m);
  if (!faults.empty()) SumFaultCounters(faults).Describe(m);
  if (resilient != nullptr) resilient->stats().Describe(m);
}

Testbed::Layers Testbed::AllLayers() const {
  // Lane 0 holds the host-side layers; each device lane adds a device.
  Layers all = lanes_.front().layers;
  for (std::size_t l = 1; l < lanes_.size(); ++l) {
    const Layers& dev = lanes_[l].layers;
    all.zns.insert(all.zns.end(), dev.zns.begin(), dev.zns.end());
    all.faults.insert(all.faults.end(), dev.faults.begin(), dev.faults.end());
    all.views.insert(all.views.end(), dev.views.begin(), dev.views.end());
  }
  return all;
}

Testbed::~Testbed() { Finish(); }

nvme::Controller& Testbed::controller() {
  if (!zns_devs_.empty()) return *zns_devs_.front();
  return *conv_;
}

void Testbed::FillZones(std::uint32_t first, std::uint32_t count) {
  ZSTOR_CHECK_MSG(!zns_devs_.empty(), "FillZones needs a ZNS testbed");
  for (std::uint32_t z = first; z < first + count; ++z) {
    zns::ZnsDevice& dev = *zns_devs_[map_.DeviceOf(z)];
    dev.DebugFillZone(map_.DeviceZoneOf(z), dev.profile().zone_cap_bytes);
  }
}

std::vector<std::uint32_t> Testbed::ZoneList(std::uint32_t first,
                                             std::uint32_t count) const {
  std::vector<std::uint32_t> out;
  out.reserve(count);
  for (std::uint32_t z = first; z < first + count; ++z) out.push_back(z);
  return out;
}

void Testbed::EnsureSamplersRunning() {
  // Every lane's sampler is (re)scheduled from the driving thread before
  // the engine runs — legal per ParallelSimulator's threading contract.
  for (Lane& lane : lanes_) {
    if (lane.sampler != nullptr) lane.sampler->EnsureRunning();
  }
}

workload::JobResult Testbed::RunJob(const workload::JobSpec& spec) {
  return std::move(RunJobs({spec}).front());
}

std::vector<workload::JobResult> Testbed::RunJobs(
    const std::vector<workload::JobSpec>& specs) {
  EnsureSamplersRunning();
  // Start every spec's shards up front so concurrent jobs overlap in
  // virtual time.
  std::vector<std::vector<std::unique_ptr<workload::Job>>> all;
  all.reserve(specs.size());
  for (const auto& spec : specs) all.push_back(StartSharded(spec));
  psim_->Run(static_cast<unsigned>(sim_threads_));
  std::vector<workload::JobResult> results;
  results.reserve(all.size());
  for (auto& parts : all) results.push_back(JoinSharded(parts));
  if (telemetry() != nullptr) {
    for (const auto& r : results) r.Describe(telemetry()->metrics());
  }
  return results;
}

std::vector<std::unique_ptr<workload::Job>> Testbed::StartSharded(
    const workload::JobSpec& spec) {
  const std::vector<std::vector<std::uint32_t>> plan = PlanShards(
      spec, stack_->info(), map_, lanes_.size(), resilient_ != nullptr);
  std::vector<std::unique_ptr<workload::Job>> parts;
  // Lane 0's part first, then device lanes in index order; JoinSharded
  // merges in this fixed order so results are layout-deterministic.
  for (std::uint32_t l = 0; l < lanes_.size(); ++l) {
    if (plan[l].empty()) continue;
    workload::JobSpec s = spec;
    s.worker_ids = plan[l];
    hostif::Stack& target = l == 0 ? *stack_ : *lanes_[l].view;
    parts.push_back(
        std::make_unique<workload::Job>(psim_->lane(l), target, s));
  }
  // All lanes share one clock at Run boundaries (the engine realigns
  // them at quiescence), so every part computes identical start/end
  // times — a worker's event schedule does not depend on its lane.
  for (auto& p : parts) p->Start();
  return parts;
}

workload::JobResult Testbed::JoinSharded(
    std::vector<std::unique_ptr<workload::Job>>& parts) {
  ZSTOR_CHECK_MSG(!parts.empty(), "job sharded to zero lanes");
  ZSTOR_CHECK_MSG(parts.front()->Done(),
                  "run ended with an unfinished job shard");
  workload::JobResult r = parts.front()->result();
  for (std::size_t i = 1; i < parts.size(); ++i) {
    ZSTOR_CHECK_MSG(parts[i]->Done(),
                    "run ended with an unfinished job shard");
    r.Merge(parts[i]->result());
  }
  return r;
}

telemetry::Snapshot Testbed::TakeSnapshot() {
  ZSTOR_CHECK_MSG(telemetry() != nullptr,
                  "TakeSnapshot requires telemetry (WithTelemetry or "
                  "--trace/--metrics)");
  telemetry::MetricsRegistry& m = telemetry()->metrics();
  // Keep stripe-lane counters out of snapshots unless a timeline already
  // introduced them (the samplers refresh in per-lane mode, and mixing
  // per-lane presence across snapshots of one run would be confusing).
  AllLayers().Describe(m, /*per_lane=*/sampler() != nullptr);
  return m.TakeSnapshot();
}

nvme::SmartLog Testbed::Smart() const {
  if (zns_devs_.empty()) return conv_->GetSmartLog();
  nvme::SmartLog agg = zns_devs_.front()->GetSmartLog();
  for (std::size_t d = 1; d < zns_devs_.size(); ++d) {
    AccumulateSmart(agg, zns_devs_[d]->GetSmartLog());
  }
  // ZNS write amplification is identically 1.0 per device (the host
  // places data, the device never migrates it), so the union keeps
  // device 0's value. media/host bytes is not it: bytes still in the
  // write-back buffer make that ratio read below 1.
  return agg;
}

nvme::ZoneReportLog Testbed::ZoneReport() const {
  ZSTOR_CHECK_MSG(!zns_devs_.empty(), "ZoneReport needs a ZNS testbed");
  if (zns_devs_.size() == 1) return zns_devs_.front()->GetZoneReportLog();
  std::vector<nvme::ZoneReportLog> per_dev;
  per_dev.reserve(zns_devs_.size());
  nvme::ZoneReportLog agg;
  for (const auto& dev : zns_devs_) {
    per_dev.push_back(dev->GetZoneReportLog());
    const nvme::ZoneReportLog& r = per_dev.back();
    agg.num_zones += r.num_zones;
    agg.open_zones += r.open_zones;
    agg.active_zones += r.active_zones;
    agg.max_open += r.max_open;
    agg.max_active += r.max_active;
    agg.read_only_zones += r.read_only_zones;
    agg.offline_zones += r.offline_zones;
  }
  agg.zones.reserve(agg.num_zones);
  for (std::uint32_t lz = 0; lz < agg.num_zones; ++lz) {
    nvme::ZoneReportEntry e =
        per_dev[map_.DeviceOf(lz)].zones[map_.DeviceZoneOf(lz)];
    e.zone = lz;
    e.write_pointer =
        map_.ToLogicalWritePointer(lz, e.zslba, e.write_pointer);
    e.zslba = map_.ZoneStartLba(lz);
    agg.zones.push_back(std::move(e));
  }
  return agg;
}

nvme::DieUtilLog Testbed::DieUtil() const {
  if (zns_devs_.empty()) return conv_->GetDieUtilLog();
  nvme::DieUtilLog agg;
  std::uint32_t die_base = 0;
  for (const auto& dev : zns_devs_) {
    nvme::DieUtilLog one = dev->GetDieUtilLog();
    agg.elapsed_ns = std::max(agg.elapsed_ns, one.elapsed_ns);
    for (nvme::DieUtilEntry& e : one.dies) {
      e.die += die_base;
      agg.dies.push_back(e);
    }
    die_base += static_cast<std::uint32_t>(one.dies.size());
  }
  return agg;
}

std::string Testbed::LogPagesJson() const {
  std::string out = "{\"smart\":" + Smart().ToJson();
  out += ",\"die_util\":" + DieUtil().ToJson();
  if (!zns_devs_.empty()) out += ",\"zone_report\":" + ZoneReport().ToJson();
  out += "}";
  return out;
}

bool Testbed::WriteLogPages(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot open logpages file %s\n",
                 path.c_str());
    return false;
  }
  std::fprintf(f, "%s\n", LogPagesJson().c_str());
  std::fclose(f);
  return true;
}

void Testbed::Finish() {
  if (finished_ || lanes_.empty() || telemetry() == nullptr) return;
  finished_ = true;
  if (sampler() != nullptr) {
    // Close out the timeline: emit die-busy windows still open at end of
    // run, then a final partial-interval sample so no activity after the
    // last tick is lost.
    for (auto& dev : zns_devs_) {
      if (dev->flash() != nullptr) dev->flash()->FlushDieWindows();
    }
    if (conv_ != nullptr) conv_->flash().FlushDieWindows();
    for (Lane& lane : lanes_) lane.sampler->SampleFinal();
  }
  telemetry::MetricsRegistry& m = telemetry()->metrics();
  for (std::size_t l = 1; l < lanes_.size(); ++l) {
    telemetry::MetricsRegistry& lm = lanes_[l].telem->metrics();
    // Device lanes report into registries of their own; fold them into
    // lane 0's, after a final batch export so each holds end-of-run
    // values even when no timeline sampler ever refreshed it. Counters add
    // (then TakeSnapshot's Set-based describes overwrite the sums with
    // the totals); histograms merge — the whole point, since
    // per-command latencies live lane-side.
    lanes_[l].layers.Describe(lm, /*per_lane=*/false);
    m.MergeFrom(lm);
  }
  if (logpages_to_env_ && (!zns_devs_.empty() || conv_ != nullptr)) {
    harness::BenchEnv::Get().AddLogPages(label_, LogPagesJson());
  }
  telemetry::Snapshot snap = TakeSnapshot();
  if (!metrics_path_.empty()) {
    std::FILE* f = std::fopen(metrics_path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot open metrics file %s\n",
                   metrics_path_.c_str());
    } else {
      std::fprintf(f, "%s\n", snap.ToJson().c_str());
      std::fclose(f);
    }
  }
  if (report_to_env_) {
    harness::BenchEnv::Get().AddSnapshot(label_, std::move(snap));
  }
  // Replay the lanes' buffered telemetry into the real sinks in fixed
  // lane order — byte-identical output for any worker-thread count.
  if (final_sink_ != nullptr) {
    for (Lane& lane : lanes_) lane.shard->ReplayInto(*final_sink_);
    final_sink_->Flush();
  }
  if (final_timeline_ != nullptr) {
    for (Lane& lane : lanes_) {
      final_timeline_->AppendRaw(*lane.tl_capture);
      lane.tl_capture->clear();
    }
    final_timeline_->Flush();
  }
  telemetry()->Flush();
}

TestbedBuilder& TestbedBuilder::WithZnsProfile(const zns::ZnsProfile& p) {
  zns_profile_ = p;
  conv_profile_.reset();
  return *this;
}

TestbedBuilder& TestbedBuilder::WithConvProfile(const ftl::ConvProfile& p) {
  conv_profile_ = p;
  zns_profile_.reset();
  return *this;
}

TestbedBuilder& TestbedBuilder::WithDevices(std::uint32_t n) {
  num_devices_ = n;
  return *this;
}

TestbedBuilder& TestbedBuilder::WithStack(StackChoice s) {
  stack_ = s;
  return *this;
}

TestbedBuilder& TestbedBuilder::WithLbaBytes(std::uint32_t lba_bytes) {
  lba_bytes_ = lba_bytes;
  return *this;
}

TestbedBuilder& TestbedBuilder::WithTelemetry(TelemetryConfig cfg) {
  telem_cfg_ = std::move(cfg);
  return *this;
}

TestbedBuilder& TestbedBuilder::WithLabel(std::string label) {
  label_ = std::move(label);
  return *this;
}

TestbedBuilder& TestbedBuilder::WithFaults(const fault::FaultSpec& spec) {
  fault_spec_ = spec;
  return *this;
}

TestbedBuilder& TestbedBuilder::WithRetryPolicy(
    const hostif::RetryPolicy& policy) {
  retry_policy_ = policy;
  return *this;
}

TestbedBuilder& TestbedBuilder::WithSimThreads(int n) {
  // n = 0 explicitly keeps one lane even when --sim-threads is set;
  // n >= 1 gives devices their own lanes, run on n workers.
  ZSTOR_CHECK_MSG(n >= 0, "WithSimThreads needs n >= 0");
  sim_threads_ = n;
  return *this;
}

Testbed TestbedBuilder::Build() {
  ZSTOR_CHECK_MSG(num_devices_ >= 1, "WithDevices needs n >= 1");
  ZSTOR_CHECK_MSG(num_devices_ == 1 || !conv_profile_.has_value(),
                  "multi-device testbeds stripe ZNS devices only");
  harness::BenchEnv& env = harness::BenchEnv::Get();
  // Lanes: the builder override wins over --sim-threads. Devices get
  // lanes of their own, run on the requested worker threads, only when
  // there are >= 2 ZNS devices to split; otherwise everything shares
  // lane 0.
  const int requested = sim_threads_.value_or(env.sim_threads_requested());
  const int sim_threads =
      num_devices_ >= 2 && !conv_profile_.has_value() ? requested : 0;
  const std::uint32_t num_lanes = sim_threads >= 1 ? 1 + num_devices_ : 1;
  Testbed tb;
  tb.psim_ =
      std::make_unique<sim::ParallelSimulator>(num_lanes, kInterconnectHop);
  // Only lane 0 originates work between messages (workload workers, rate
  // limiters, retry timers); device lanes react. A lone lane has no peer
  // to bound, and marking it would cut the run into one window per
  // lookahead.
  tb.psim_->SetSpontaneous(0, num_lanes > 1);
  tb.sim_threads_ = sim_threads;
  tb.lanes_.resize(num_lanes);
  Testbed::Lane& host = tb.lanes_.front();

  // Devices, each in its lane.
  if (conv_profile_.has_value()) {
    tb.conv_ = std::make_unique<ftl::ConvDevice>(tb.sim(), *conv_profile_);
    host.layers.conv = tb.conv_.get();
  } else {
    const zns::ZnsProfile base = zns_profile_.value_or(zns::Zn540Profile());
    for (std::uint32_t d = 0; d < num_devices_; ++d) {
      zns::ZnsProfile p = base;
      // Distinct per-device noise streams; devices are otherwise twins.
      p.seed = DeviceSeed(base.seed, d);
      tb.zns_devs_.push_back(std::make_unique<zns::ZnsDevice>(
          tb.psim_->lane(tb.LaneOf(d)), p, lba_bytes_));
      tb.lanes_[tb.LaneOf(d)].layers.zns.push_back(tb.zns_devs_.back().get());
    }
    tb.map_ = {tb.zns_devs_.front()->info().zone_size_lbas, num_devices_};
  }

  // Faults: explicit builder spec wins; otherwise the --faults flag
  // applies to every testbed the bench builds. Each device owns a plan —
  // same spec, per-device-decorrelated seed — so a device draws the same
  // fault sequence whichever lane it lives in, and no plan's RNG is ever
  // pulled from two lanes.
  fault::FaultSpec fspec =
      fault_spec_.value_or(env.faults_requested() ? env.fault_spec()
                                                  : fault::FaultSpec{});
  if (fspec.enabled) {
    for (std::uint32_t d = 0; d < tb.num_devices(); ++d) {
      fault::FaultSpec per_dev = fspec;
      per_dev.seed = DeviceSeed(fspec.seed, d);
      tb.faults_.push_back(std::make_unique<fault::FaultPlan>(per_dev));
      fault::FaultPlan* plan = tb.faults_.back().get();
      if (tb.conv_ != nullptr) {
        tb.conv_->AttachFaultPlan(plan);
      } else {
        tb.zns_devs_[d]->AttachFaultPlan(plan);
      }
      tb.lanes_[tb.LaneOf(d)].layers.faults.push_back(plan);
    }
  }

  // Host stacks: each device's stack is built in the device's lane. Lane
  // 0 reaches it directly when they share the lane, and through a
  // MailboxStack proxy when they do not; two or more devices are striped
  // into one logical namespace.
  std::vector<std::unique_ptr<hostif::Stack>> reach;
  for (std::uint32_t d = 0; d < tb.num_devices(); ++d) {
    const std::uint32_t l = tb.LaneOf(d);
    nvme::Controller& dev =
        tb.conv_ != nullptr ? static_cast<nvme::Controller&>(*tb.conv_)
                            : *tb.zns_devs_[d];
    auto own = std::make_unique<hostif::HostStack>(tb.psim_->lane(l), dev,
                                                   stack_);
    if (num_devices_ == 1 && (stack_ == StackChoice::kKernelNone ||
                              stack_ == StackChoice::kKernelMq)) {
      tb.kernel_ = own.get();
    }
    if (l == 0) {
      reach.push_back(std::move(own));
      continue;
    }
    Testbed::Lane& lane = tb.lanes_[l];
    lane.stack = std::move(own);
    reach.push_back(std::make_unique<hostif::MailboxStack>(
        *tb.psim_, /*host_lane=*/0, /*dev_lane=*/l, *lane.stack));
  }
  if (reach.size() >= 2) {
    auto striped =
        std::make_unique<hostif::StripedStack>(tb.sim(), std::move(reach));
    tb.striped_ = striped.get();
    tb.stack_ = std::move(striped);
  } else {
    tb.stack_ = std::move(reach.front());
  }
  host.layers.kernel = tb.kernel_;
  host.layers.striped = tb.striped_;
  // Workers sharded to a device lane submit through a view of the
  // logical namespace there.
  for (std::uint32_t l = 1; l < num_lanes; ++l) {
    Testbed::Lane& lane = tb.lanes_[l];
    lane.view = std::make_unique<hostif::StripeLaneView>(
        tb.psim_->lane(l), *lane.stack, tb.map_, l - 1, tb.stack_->info());
    lane.layers.views.push_back(lane.view.get());
  }

  // Host resilience: wrap the stack when a policy was given, or by
  // default whenever faults are injected (a fault run without host
  // retries is almost never what an experiment wants; pass
  // WithRetryPolicy({.max_attempts = 1}) to observe raw errors).
  if (retry_policy_.has_value() || fspec.enabled) {
    tb.inner_stack_ = std::move(tb.stack_);
    auto resilient = std::make_unique<hostif::ResilientStack>(
        tb.sim(), *tb.inner_stack_,
        retry_policy_.value_or(hostif::RetryPolicy{}));
    tb.resilient_ = resilient.get();
    host.layers.resilient = tb.resilient_;
    tb.stack_ = std::move(resilient);
  }

  // Telemetry: explicit config wins; otherwise the bench flags decide.
  sim::Time sample_interval = sim::Milliseconds(100);
  if (telem_cfg_.has_value()) {
    host.telem = std::make_unique<telemetry::Telemetry>();
    if (telem_cfg_->ring_capacity > 0) {
      auto ring =
          std::make_unique<telemetry::RingBufferSink>(telem_cfg_->ring_capacity);
      tb.ring_ = ring.get();
      host.telem->SetSink(std::move(ring));
    } else if (!telem_cfg_->trace_path.empty()) {
      host.telem->SetSink(
          std::make_unique<telemetry::JsonlFileSink>(telem_cfg_->trace_path));
    }
    tb.metrics_path_ = telem_cfg_->metrics_path;
    sample_interval = telem_cfg_->sample_interval;
    if (telem_cfg_->timeline_capture != nullptr ||
        !telem_cfg_->timeline_path.empty()) {
      auto writer =
          telem_cfg_->timeline_capture != nullptr
              ? std::make_unique<telemetry::TimelineWriter>(
                    telem_cfg_->timeline_capture)
              : std::make_unique<telemetry::TimelineWriter>(
                    telem_cfg_->timeline_path);
      writer->set_die_merge_gap_ns(
          telemetry::TimelineWriter::DefaultMergeGap(sample_interval));
      host.telem->SetTimeline(std::move(writer));
    }
  } else if (env.telemetry_requested()) {
    host.telem = std::make_unique<telemetry::Telemetry>();
    if (telemetry::TraceSink* sink = env.shared_sink(); sink != nullptr) {
      host.telem->SetExternalSink(sink);
    }
    if (env.timeline_requested()) {
      host.telem->SetExternalTimeline(env.shared_timeline());
      sample_interval = env.sample_interval();
    }
    tb.report_to_env_ = true;
    tb.logpages_to_env_ = env.logpages_requested();
  }
  if (host.telem == nullptr) return tb;
  tb.label_ = label_.empty() ? env.NextLabel() : label_;
  // Sweep benches rebuild same-labeled testbeds per point, each
  // restarting virtual time at 0 — in the shared timeline file those
  // must stay distinct record groups ("gc-conv", "gc-conv#2", ...).
  host.telem->set_timeline_label(
      telem_cfg_.has_value() ? tb.label_ : env.UniqueTimelineLabel(tb.label_));
  if (num_lanes > 1) {
    // Each lane buffers its telemetry privately during the run (a shared
    // sink or writer would interleave nondeterministically and race);
    // Finish replays the buffers into the real outputs in lane order.
    // Trace ids get per-lane namespaces so ids allocated concurrently
    // never collide — and never depend on interleaving.
    const std::uint64_t ns_base = (NextParallelEpoch() & 0xFFFFull) << 48;
    tb.final_sink_ = host.telem->tracer().sink();
    if (tb.final_sink_ != nullptr) {
      tb.final_sink_owned_ = host.telem->TakeOwnedSink();
    }
    tb.final_timeline_ = host.telem->timeline();
    if (tb.final_timeline_ != nullptr) {
      tb.final_timeline_owned_ = host.telem->TakeOwnedTimeline();
    }
    for (std::uint32_t l = 0; l < num_lanes; ++l) {
      Testbed::Lane& lane = tb.lanes_[l];
      if (l > 0) {
        lane.telem = std::make_unique<telemetry::Telemetry>();
        lane.telem->set_timeline_label(host.telem->timeline_label() +
                                       "/lane" + std::to_string(l - 1));
      }
      lane.telem->tracer().SetIdNamespace(ns_base | ((1ull + l) << 40));
      if (tb.final_sink_ != nullptr) {
        auto shard = std::make_unique<telemetry::ShardSink>();
        lane.shard = shard.get();
        lane.telem->SetSink(std::move(shard));
      }
      if (tb.final_timeline_ != nullptr) {
        lane.tl_capture = std::make_unique<std::string>();
        auto w =
            std::make_unique<telemetry::TimelineWriter>(lane.tl_capture.get());
        w->set_die_merge_gap_ns(tb.final_timeline_->die_merge_gap_ns());
        lane.telem->SetTimeline(std::move(w));
      }
    }
  }
  // Every layer reports into the telemetry of the lane it lives in.
  for (std::uint32_t d = 0; d < tb.zns_devs_.size(); ++d) {
    tb.zns_devs_[d]->AttachTelemetry(tb.lanes_[tb.LaneOf(d)].telem.get(), d);
  }
  if (tb.conv_ != nullptr) tb.conv_->AttachTelemetry(host.telem.get());
  for (Testbed::Lane& lane : tb.lanes_) {
    if (lane.stack != nullptr) lane.stack->AttachTelemetry(lane.telem.get());
    if (lane.view != nullptr) lane.view->AttachTelemetry(lane.telem.get());
  }
  tb.stack_->AttachTelemetry(host.telem.get());
  if (host.telem->timeline() != nullptr) {
    for (std::uint32_t l = 0; l < num_lanes; ++l) {
      Testbed::Lane& lane = tb.lanes_[l];
      lane.sampler = std::make_unique<telemetry::MetricSampler>(
          tb.psim_->lane(l), lane.telem->metrics(), *lane.telem->timeline(),
          sample_interval, lane.telem->timeline_label());
      // The refresh hook re-exports batch counters before each sample so
      // deltas reflect live state, not the last TakeSnapshot(). It reads
      // only the layers living in this lane (the others mutate
      // concurrently in other lanes) through a copy of their pointers,
      // never &tb (Testbed moves).
      telemetry::MetricsRegistry* m = &lane.telem->metrics();
      lane.sampler->SetRefresh([layers = lane.layers, m] {
        layers.Describe(*m, /*per_lane=*/true);
      });
    }
  }
  return tb;
}

}  // namespace zstor
