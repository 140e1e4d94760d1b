#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>

#include "decorators.h"
#include "ftl/conv_profile.h"
#include "harness/testbed.h"
#include "hostif/stack_factory.h"
#include "report.h"
#include "sim/stats.h"
#include "workload/job.h"
#include "workload/runner.h"
#include "workload/ycsb.h"
#include "zkv/kv_store.h"
#include "zns/profile.h"

namespace perfbench {

const std::vector<std::string> kWorkloads = {"gc-interference", "kv-ycsb-a",
                                             "stripe-append"};

namespace {

namespace sim = zstor::sim;
namespace nvme = zstor::nvme;
namespace hostif = zstor::hostif;
namespace workload = zstor::workload;
namespace zkv = zstor::zkv;
namespace zns = zstor::zns;
using zstor::Testbed;
using zstor::TestbedBuilder;
using workload::JobResult;
using workload::JobSpec;

// ---- paper reference values (EXPERIMENTS.md rows) ----------------------
// Fig. 6 / §III-F: read p95 under full-rate random writes.
constexpr double kPaperConvReadP95Ms = 299.89;
constexpr double kPaperZnsReadP95Ms = 98.04;
// Fig. 6 / §III-F: read-only p95, both devices.
constexpr double kPaperReadOnlyP95Us = 81.41;
// Fig. 6's 100 % write rate: the ZN540 program bandwidth limit.
constexpr double kPaperZnsWriteMibps = 1155.0;
// Fig. 4 / Obs. 6: per-device 4 KiB append plateau.
constexpr double kPaperAppendKiops = 132.0;

// ---- workload shapes ----------------------------------------------------
// gc-interference: on the aged drive the conventional write rate settles
// into its GC sawtooth from ~3 s on (Fig. 6a); over 8 s with a quarter of
// warm-up, its read p95 and WA are within ~5 % of the 10 s figures.
constexpr sim::Time kGcDuration = sim::Seconds(8);
constexpr sim::Time kReadOnlyDuration = sim::Milliseconds(500);
// kv-ycsb-a: 2048 x 4 KiB records (8 MiB, 32x the 256 KiB memtable);
// 40k operations run ~300 flushes, ~120 compactions and ~65 reclaim
// passes, and kv_wa moves < 2 % from 20k to 40k operations.
constexpr std::uint64_t kKvRecords = 2048;
constexpr std::uint64_t kKvOps = 40000;
// stripe-append: the bench_multidev per-device load.
constexpr sim::Time kStripePhase = sim::Milliseconds(500);
constexpr std::uint32_t kAppendQd = 4;
constexpr std::uint32_t kReadQd = 16;

double Us(double ns) { return std::isnan(ns) ? 0.0 : ns / 1e3; }

/// Times synchronous calls on the host clock, books each as set-up or as
/// measured run time under a metric name, and in traced runs records a
/// host-timed span for it.
class Clock {
 public:
  Clock(Rep& rep, SpanRecorder* rec) : rep_(rep), rec_(rec) {}

  template <class F>
  void Setup(std::string_view metric, sim::Simulator* s, F&& f) {
    Time(metric, Layer::kHarness, s, &rep_.setup_s, [&] {
      f();
      return std::uint64_t{0};
    });
  }
  /// Set-up that runs the simulator, booked in Rep::setup_sim_s as well.
  template <class F>
  void SetupSim(std::string_view metric, sim::Simulator& s, F&& f) {
    const double before = rep_.setup_s;
    Setup(metric, &s, f);
    rep_.setup_sim_s += rep_.setup_s - before;
  }
  /// `f` returns the simulator events it ran, or 0 when the engine does
  /// not report them.
  template <class F>
  void Run(std::string_view metric, sim::Simulator& s, F&& f) {
    Time(metric, Layer::kSim, &s, &rep_.run_s, f);
  }

 private:
  template <class F>
  void Time(std::string_view metric, Layer layer, sim::Simulator* s,
            double* total, F&& f) {
    const std::uint32_t id =
        rec_ != nullptr ? rec_->BeginHost(layer, metric, s ? s->now() : 0)
                        : 0;
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t events = f();
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    if (rec_ != nullptr) rec_->EndHost(id, s ? s->now() : 0);
    *total += secs;
    rep_.host[std::string(metric)] += secs;
    if (events > 0) {
      rep_.virt["sim.events"] += static_cast<double>(events);
      rep_.host["sim.counted_run_s"] += secs;
    }
  }

  Rep& rep_;
  SpanRecorder* rec_;
};

/// A host stack over device 0 of `tb`, built with MakeStack; in traced
/// runs the nvme decorator sits under it and the hostif decorator over it.
class BenchStack {
 public:
  BenchStack(Testbed& tb, SpanRecorder* rec) {
    nvme::Controller* ctrl = &tb.controller();
    if (rec != nullptr) {
      ctrl_ = std::make_unique<TracingController>(tb.sim(), *ctrl, *rec);
      ctrl = ctrl_.get();
    }
    made_ = hostif::MakeStack(zstor::StackChoice::kSpdk, tb.sim(), *ctrl);
    if (rec != nullptr) {
      traced_ = std::make_unique<TracingStack>(tb.sim(), *made_.stack, *rec);
    }
  }
  hostif::Stack& get() { return traced_ ? *traced_ : *made_.stack; }

 private:
  std::unique_ptr<TracingController> ctrl_;
  hostif::MadeStack made_;
  std::unique_ptr<TracingStack> traced_;
};

/// workload::RunJobs, also returning the simulator event count RunJobs
/// does not report.
std::uint64_t RunJobsCounting(
    sim::Simulator& s, std::vector<std::pair<hostif::Stack*, JobSpec>> jobs,
    std::vector<JobResult>* out) {
  std::vector<std::unique_ptr<workload::Job>> running;
  for (auto& [stack, spec] : jobs) {
    running.push_back(
        std::make_unique<workload::Job>(s, *stack, std::move(spec)));
    running.back()->Start();
  }
  const std::uint64_t events = s.Run();
  out->clear();
  for (auto& j : running) {
    ZSTOR_CHECK(j->Done());
    out->push_back(j->result());
  }
  return events;
}

/// Accumulates one repetition's layer counters across its testbeds.
class Totals {
 public:
  explicit Totals(Rep& rep) : rep_(rep) {}

  /// Folds in a finished testbed's log pages and device counters, and
  /// gates on device-reported command failures.
  void AddTestbed(Testbed& tb, const std::string& what) {
    const nvme::SmartLog s = tb.Smart();
    auto& v = rep_.virt;
    v["nand.page_reads"] += static_cast<double>(s.media_page_reads);
    v["nand.page_programs"] += static_cast<double>(s.media_page_programs);
    v["nand.block_erases"] += static_cast<double>(s.media_block_erases);
    v["zns.zone_resets"] += static_cast<double>(s.zone_resets);
    v["zns.zone_transitions"] += static_cast<double>(s.zone_transitions);
    v["ftl.gc_invocations"] += static_cast<double>(s.gc_invocations);
    v["ftl.gc_units_migrated"] += static_cast<double>(s.gc_units_migrated);
    v["ftl.gc_blocks_erased"] += static_cast<double>(s.gc_blocks_erased);
    v["sim.virtual_s"] += sim::ToSeconds(tb.sim().now());
    for (const nvme::DieUtilEntry& d : tb.DieUtil().dies) {
      die_util_.push_back(d.utilization);
    }
    for (std::size_t d = 0; d < tb.num_devices(); ++d) {
      rep_.attempted += tb.zns() != nullptr ? Commands(tb.zns(d)->counters())
                                            : Commands(tb.conv()->counters());
    }
    const std::uint64_t bad = s.host_rejects + s.media_errors;
    rep_.failed += bad;
    if (bad != 0) {
      rep_.failures.push_back(what + ": " + std::to_string(bad) +
                              " device commands failed");
    }
  }

  void AddJob(const JobResult& j, const std::string& what) {
    rep_.virt["workload.ops"] += static_cast<double>(j.ops);
    rep_.virt["workload.errors"] += static_cast<double>(j.errors);
    reads_.Merge(j.read_latency);
    rep_.failed += j.errors;
    if (j.errors != 0) {
      rep_.failures.push_back(what + ": " + std::to_string(j.errors) +
                              " commands failed");
    }
    if (j.ops == 0) rep_.failures.push_back(what + ": no operation completed");
  }

  void AddReads(const sim::LatencyHistogram& h) { reads_.Merge(h); }
  void AddWriteMibps(double mibps) { write_mibps_.push_back(mibps); }

  void Finish() {
    auto& v = rep_.virt;
    v["workload.read_p99_us"] = Us(reads_.p99_ns());
    double sum = 0;
    for (double m : write_mibps_) sum += m;
    v["workload.write_mibps"] =
        write_mibps_.empty() ? 0.0 : sum / static_cast<double>(
                                               write_mibps_.size());
    double util_sum = 0, util_max = 0;
    for (double u : die_util_) {
      util_sum += u;
      util_max = std::max(util_max, u);
    }
    v["nand.die_util_mean"] =
        die_util_.empty() ? 0.0
                          : util_sum / static_cast<double>(die_util_.size());
    v["nand.die_util_max"] = util_max;
  }

 private:
  static std::uint64_t Commands(const zns::ZnsCounters& c) {
    return c.reads + c.writes + c.appends + c.resets + c.flushes +
           c.finishes + c.explicit_opens + c.closes + c.zone_reports +
           c.host_rejects;
  }
  static std::uint64_t Commands(const zstor::ftl::ConvCounters& c) {
    return c.reads + c.writes + c.deallocates + c.flushes + c.host_rejects;
  }

  Rep& rep_;
  sim::LatencyHistogram reads_;
  std::vector<double> write_mibps_;
  std::vector<double> die_util_;
};

// ---- gc-interference ----------------------------------------------------

JobSpec GcWriter(std::uint64_t seed) {
  JobSpec w;
  w.op = nvme::Opcode::kWrite;
  w.random = true;
  w.request_bytes = 128 * 1024;
  w.queue_depth = 8;
  w.workers = 4;
  w.duration = kGcDuration;
  w.warmup = kGcDuration / 4;
  w.series_bin = sim::Seconds(1);
  w.seed = seed;
  return w;
}

JobSpec GcReader(std::uint64_t seed, sim::Time duration,
                 std::uint32_t qd) {
  JobSpec r;
  r.op = nvme::Opcode::kRead;
  r.random = true;
  r.request_bytes = 4096;
  r.queue_depth = qd;
  r.duration = duration;
  r.warmup = duration / 4;
  r.series_bin = sim::Seconds(1);
  r.seed = seed;
  return r;
}

struct GcHalf {
  double read_p95_ms = 0;
  double read_only_p95_us = 0;
  double write_mibps = 0;
};

/// One device of Fig. 6's full-rate point: the QD-1 read-only baseline,
/// then 4 writers x 128 KiB x QD 8 beside 1 reader x 4 KiB x QD 32, as in
/// harness/gc_experiment.cc but through the benchmark's own stack.
GcHalf RunGcHalf(bool zoned, std::uint64_t seed, Clock& clk, Totals& tot,
                 Rep& rep, SpanRecorder* rec) {
  std::optional<Testbed> tb;
  clk.Setup("harness.build_s", nullptr, [&] {
    TestbedBuilder b;
    if (zoned) {
      b.WithZnsProfile(zns::Zn540Profile()).WithLabel("perfbench-gc-zns");
    } else {
      b.WithConvProfile(zstor::ftl::Sn640Profile())
          .WithLabel("perfbench-gc-conv");
    }
    tb.emplace(b.Build());
  });
  JobSpec writer = GcWriter(seed);
  JobSpec reader = GcReader(seed + 1, kGcDuration, 32);
  JobSpec read_only = GcReader(seed + 2, kReadOnlyDuration, 1);
  if (zoned) {
    // Host-side GC: appends over private zone pools, resetting full zones
    // (4 workers x 3 zones, within the 14 active-zone limit).
    writer.op = nvme::Opcode::kAppend;
    writer.partition_zones = true;
    writer.on_full = JobSpec::OnFull::kReset;
    writer.zones = tb->ZoneList(0, 12);
    const std::uint32_t base = tb->zns()->profile().num_zones / 2;
    clk.Setup("harness.prefill_s", &tb->sim(),
              [&] { tb->FillZones(base, 8); });
    reader.zones = read_only.zones = tb->ZoneList(base, 8);
  } else {
    // Aged drive: GC pressure from the first overwrite.
    clk.Setup("harness.prefill_s", &tb->sim(),
              [&] { tb->conv()->DebugPrefill(); });
  }

  BenchStack stack(*tb, rec);
  const char* run_metric = zoned ? "gc.zns_run_s" : "gc.conv_run_s";
  std::vector<JobResult> ro, mixed;
  clk.Run(run_metric, tb->sim(), [&] {
    return RunJobsCounting(tb->sim(), {{&stack.get(), read_only}}, &ro);
  });
  clk.Run(run_metric, tb->sim(), [&] {
    return RunJobsCounting(tb->sim(),
                           {{&stack.get(), writer}, {&stack.get(), reader}},
                           &mixed);
  });

  const std::string what = zoned ? "gc zns" : "gc conv";
  tot.AddJob(ro[0], what + " read-only");
  tot.AddJob(mixed[0], what + " writer");
  tot.AddJob(mixed[1], what + " reader");
  tot.AddWriteMibps(mixed[0].MibPerSec());
  tot.AddTestbed(*tb, what);

  GcHalf h;
  h.read_p95_ms = mixed[1].latency.p95_ns() / 1e6;
  h.read_only_p95_us = Us(ro[0].latency.p95_ns());
  h.write_mibps = mixed[0].MibPerSec();
  const std::string p = zoned ? "gc.zns_" : "gc.conv_";
  rep.virt[p + "read_p95_ms"] = h.read_p95_ms;
  rep.virt[p + "read_only_p95_us"] = h.read_only_p95_us;
  rep.virt[p + "write_mibps"] = h.write_mibps;
  if (!zoned) {
    rep.virt["ftl.wa"] = tb->conv()->counters().WriteAmplification();
  }
  return h;
}

void RunGcInterference(std::uint64_t seed, Rep& rep, Clock& clk,
                       Totals& tot, SpanRecorder* rec) {
  const GcHalf conv = RunGcHalf(false, seed, clk, tot, rep, rec);
  const GcHalf zoned = RunGcHalf(true, seed, clk, tot, rep, rec);
  rep.virt["paper_err_pct"] = PaperErrPct({
      {conv.read_p95_ms, kPaperConvReadP95Ms},
      {zoned.read_p95_ms, kPaperZnsReadP95Ms},
      {conv.read_only_p95_us, kPaperReadOnlyP95Us},
      {zoned.read_only_p95_us, kPaperReadOnlyP95Us},
      {zoned.write_mibps, kPaperZnsWriteMibps},
  });
  const double erased = rep.virt["ftl.gc_blocks_erased"];
  rep.host["ftl.host_us_per_gc_erase"] =
      erased > 0 ? rep.host["gc.conv_run_s"] * 1e6 / erased : 0.0;
}

// ---- kv-ycsb-a ----------------------------------------------------------

/// TinyProfile stretched to a KV-sized zone budget (bench/bench_kv.cc):
/// 32 zones (2 WAL + 30 data) with headroom for the store's open set.
zns::ZnsProfile KvProfile() {
  zns::ZnsProfile p = zns::TinyProfile();
  p.num_zones = 32;
  p.max_open_zones = 8;
  p.max_active_zones = 10;
  p.nand_geometry.blocks_per_die = 96;  // 32 zones x 3 blocks/zone/die
  return p;
}

sim::Task<> KvLoad(workload::YcsbRunner* runner, zkv::KvStore* kv,
                   bool* done) {
  co_await runner->Load();
  co_await kv->Drain();
  *done = true;
}

sim::Task<> KvRun(workload::YcsbRunner* runner, zkv::KvStore* kv,
                  workload::YcsbResult* out, bool* done) {
  *out = co_await runner->Run();
  co_await kv->Drain();
  *done = true;
}

double DeviceBytes(const zkv::KvStats& s) {
  return static_cast<double>(s.wal_bytes + s.flush_bytes +
                             s.compact_bytes_written + s.gc_relocated_bytes);
}

void RunKvYcsbA(std::uint64_t seed, Rep& rep, Clock& clk, Totals& tot,
                SpanRecorder* rec) {
  std::optional<Testbed> tb;
  clk.Setup("harness.build_s", nullptr, [&] {
    tb.emplace(TestbedBuilder()
                   .WithZnsProfile(KvProfile())
                   .WithLabel("perfbench-kv")
                   .Build());
  });
  sim::Simulator& s = tb->sim();
  BenchStack stack(*tb, rec);
  zkv::KvStore::Options opt;
  opt.zone_count = 32;  // whole device
  zkv::KvStore kv(s, stack.get(), opt);
  std::optional<TracingKv> traced;
  if (rec != nullptr) traced.emplace(s, kv, *rec);
  workload::KvBackend& backend =
      traced ? static_cast<workload::KvBackend&>(*traced) : kv;

  workload::YcsbSpec spec;
  spec.mix = workload::YcsbMix::kA;
  spec.record_count = kKvRecords;
  spec.operations = kKvOps;
  spec.value_bytes = 4096;
  spec.zipf_theta = 0.99;
  spec.workers = 4;
  spec.seed = seed;
  workload::YcsbRunner runner(s, backend, spec);

  bool loaded = false, ran = false;
  clk.SetupSim("zkv.load_s", s, [&] {
    sim::Spawn(KvLoad(&runner, &kv, &loaded));
    s.Run();
  });
  const zkv::KvStats before = kv.stats();
  workload::YcsbResult res;
  clk.Run("zkv.run_s", s, [&] {
    sim::Spawn(KvRun(&runner, &kv, &res, &ran));
    return s.Run();
  });
  const zkv::KvStats& after = kv.stats();

  if (!loaded || !ran) rep.failures.push_back("kv: flow did not finish");
  if (res.ops != kKvOps) {
    rep.failures.push_back("kv: " + std::to_string(res.ops) + " of " +
                           std::to_string(kKvOps) + " operations ran");
  }
  if (res.errors != 0) {
    rep.failures.push_back("kv: " + std::to_string(res.errors) +
                           " operations failed");
  }
  if (res.not_found != 0) {
    rep.failures.push_back("kv: " + std::to_string(res.not_found) +
                           " gets of loaded keys found nothing");
  }
  if (after.read_tag_mismatches != 0) {
    rep.failures.push_back("kv: " +
                           std::to_string(after.read_tag_mismatches) +
                           " read tag mismatches");
  }
  rep.failed += res.errors + res.not_found + after.read_tag_mismatches;
  tot.AddTestbed(*tb, "kv");
  tot.AddReads(res.read_latency);

  auto& v = rep.virt;
  v["workload.ops"] += static_cast<double>(res.ops);
  v["workload.errors"] += static_cast<double>(res.errors);
  const double span_s = static_cast<double>(res.span) / 1e9;
  const double user = static_cast<double>(after.user_bytes - before.user_bytes);
  tot.AddWriteMibps(span_s > 0 ? user / (1 << 20) / span_s : 0.0);
  v["kv_kiops"] = res.Kiops();
  v["kv_read_p50_us"] = Us(res.read_latency.p50_ns());
  v["kv_read_p99_us"] = Us(res.read_latency.p99_ns());
  v["kv_update_p50_us"] = Us(res.update_latency.p50_ns());
  v["kv_update_p99_us"] = Us(res.update_latency.p99_ns());
  v["kv.reads"] = static_cast<double>(res.reads);
  v["kv.updates"] = static_cast<double>(res.updates);
  v["kv_wa"] = user > 0 ? (DeviceBytes(after) - DeviceBytes(before)) / user
                        : 0.0;
  auto delta = [&](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  v["zkv.write_stall_ms"] =
      delta(after.write_stall_ns, before.write_stall_ns) / 1e6;
  v["zkv.compactions"] = delta(after.compactions, before.compactions);
  v["zkv.compact_bytes_written"] =
      delta(after.compact_bytes_written, before.compact_bytes_written);
  v["zkv.gc_relocated_bytes"] =
      delta(after.gc_relocated_bytes, before.gc_relocated_bytes);
  v["zkv.wal_bytes"] = delta(after.wal_bytes, before.wal_bytes);
  v["zkv.flush_bytes"] = delta(after.flush_bytes, before.flush_bytes);
  v["zkv.flushes"] = delta(after.flushes, before.flushes);
  v["zkv.gc_passes"] = delta(after.gc_passes, before.gc_passes);
  v["zkv.zone_resets"] = delta(after.zone_resets, before.zone_resets);
  const double gets = delta(after.gets, before.gets);
  v["zkv.read_ios_per_get"] =
      gets > 0 ? delta(after.read_ios, before.read_ios) / gets : 0.0;
}

// ---- stripe-append ------------------------------------------------------

/// One worker per device at a fixed per-device queue depth: logical zone
/// z lives on device z % n, so worker d drives device d alone.
JobSpec PerDeviceSpec(Testbed& tb, std::uint32_t ndev, nvme::Opcode op,
                      std::uint32_t qd, std::uint64_t seed) {
  JobSpec spec;
  spec.op = op;
  spec.random = (op == nvme::Opcode::kRead);
  spec.request_bytes = 4096;
  spec.queue_depth = qd;
  spec.workers = ndev;
  spec.zones = tb.ZoneList(0, ndev);
  spec.partition_zones = true;
  spec.duration = kStripePhase;
  spec.seed = seed;
  return spec;
}

struct StripePhase {
  JobResult job;
  double kiops_per_dev = 0;  // from each device's own counters
};

/// Builds an `ndev`-device ZN540 testbed (parallel engine with 2 worker
/// threads when striped) and runs one per-device phase on it.
StripePhase RunStripePhase(std::uint32_t ndev, nvme::Opcode op,
                           std::uint64_t seed, Clock& clk, Totals& tot,
                           Rep& rep) {
  std::optional<Testbed> tb;
  clk.Setup("harness.build_s", nullptr, [&] {
    TestbedBuilder b;
    b.WithZnsProfile(zns::Zn540Profile())
        .WithDevices(ndev)
        .WithStack(zstor::StackChoice::kSpdk)
        .WithLabel("perfbench-stripe");
    if (ndev > 1) b.WithSimThreads(2);
    tb.emplace(b.Build());
  });
  const bool read = op == nvme::Opcode::kRead;
  if (read) {
    clk.Setup("harness.prefill_s", &tb->sim(),
              [&] { tb->FillZones(0, ndev); });
  }
  const JobSpec spec =
      PerDeviceSpec(*tb, ndev, op, read ? kReadQd : kAppendQd, seed);
  StripePhase out;
  clk.Run(ndev == 1 ? "stripe.dev1_run_s" : "stripe.dev4_run_s", tb->sim(),
          [&]() -> std::uint64_t {
            if (tb->parallel_sim() == nullptr) {
              std::vector<JobResult> r;
              const std::uint64_t events =
                  RunJobsCounting(tb->sim(), {{&tb->stack(), spec}}, &r);
              out.job = r[0];
              return events;
            }
            // The parallel engine shards the job onto device lanes inside
            // Testbed::RunJob, which does not report its event count.
            out.job = tb->RunJob(spec);
            return 0;
          });

  const double secs = sim::ToSeconds(out.job.measured_span);
  double ops = 0;
  for (std::uint32_t d = 0; d < ndev; ++d) {
    const zns::ZnsCounters& c = tb->zns(d)->counters();
    ops += static_cast<double>(read ? c.reads : c.appends);
  }
  out.kiops_per_dev = secs > 0 ? ops / ndev / secs / 1000.0 : 0.0;

  auto& v = rep.virt;
  const std::string opname = read ? "read" : "append";
  v["hostif.cmds." + opname] += ops;
  if (sim::ParallelSimulator* ps = tb->parallel_sim()) {
    v["psim.windows"] += static_cast<double>(ps->windows());
    v["psim.messages"] += static_cast<double>(ps->messages());
  }
  if (hostif::StripedStack* st = tb->striped()) {
    const hostif::StripeStats& ss = st->stats();
    double rejects = static_cast<double>(ss.boundary_rejects);
    double lane_max = 0;
    for (std::size_t d = 0; d < ss.lanes.size(); ++d) {
      double in_flight = static_cast<double>(ss.lanes[d].max_in_flight);
      if (hostif::StripeLaneView* view = tb->lane_view(d)) {
        rejects += static_cast<double>(view->boundary_rejects());
        in_flight += static_cast<double>(view->stats().max_in_flight);
      }
      lane_max = std::max(lane_max, in_flight);
    }
    v["stripe.boundary_rejects"] += rejects;
    v["stripe.lane_max_in_flight"] =
        std::max(v["stripe.lane_max_in_flight"], lane_max);
    if (rejects != 0) {
      rep.failures.push_back("stripe: I/O crossed a zone boundary");
    }
  }
  tot.AddJob(out.job, "stripe " + opname + " x" + std::to_string(ndev));
  if (!read) tot.AddWriteMibps(out.job.MibPerSec());
  tot.AddTestbed(*tb, "stripe x" + std::to_string(ndev));
  return out;
}

void RunStripeAppend(std::uint64_t seed, Rep& rep, Clock& clk, Totals& tot) {
  sim::LatencyHistogram append_lat, read_lat;
  double append_kiops[2] = {}, read_kiops[2] = {}, per_dev[2] = {};
  const std::uint32_t ndevs[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    const std::uint32_t n = ndevs[i];
    const StripePhase a =
        RunStripePhase(n, nvme::Opcode::kAppend, seed + n, clk, tot, rep);
    const StripePhase r =
        RunStripePhase(n, nvme::Opcode::kRead, seed + 100 + n, clk, tot, rep);
    append_kiops[i] = a.job.Kiops();
    read_kiops[i] = r.job.Kiops();
    per_dev[i] = a.kiops_per_dev;
    append_lat.Merge(a.job.write_latency);
    read_lat.Merge(r.job.read_latency);
  }
  auto& v = rep.virt;
  v["stripe.append_kiops_x1"] = append_kiops[0];
  v["stripe.append_kiops_x4"] = append_kiops[1];
  v["stripe.read_kiops_x1"] = read_kiops[0];
  v["stripe.read_kiops_x4"] = read_kiops[1];
  v["scale_eff"] = std::min(append_kiops[1] / (4 * append_kiops[0]),
                            read_kiops[1] / (4 * read_kiops[0]));
  v["zns.append_kiops_per_dev"] = (per_dev[0] + per_dev[1]) / 2;
  v["paper_err_pct"] = PaperErrPct(
      {{per_dev[0], kPaperAppendKiops}, {per_dev[1], kPaperAppendKiops}});
  // Host-observed (Stack::Submit) latency, from the jobs' own histograms.
  v["hostif.lat_p50_us.append"] = Us(append_lat.p50_ns());
  v["hostif.lat_p99_us.append"] = Us(append_lat.p99_ns());
  v["hostif.lat_p50_us.read"] = Us(read_lat.p50_ns());
  v["hostif.lat_p99_us.read"] = Us(read_lat.p99_ns());
  rep.unmeasured.push_back(
      "nvme.exec_*, hostif.self_p99_us.*: the striped testbed shards jobs "
      "onto its own per-device lane stacks, and a decorator there would "
      "change lane sharding; stripe-append reports counters, job "
      "latencies and per-phase times only");
  rep.unmeasured.push_back(
      "sim.events, sim.host_ns_per_event: 1-device (classic engine) phases "
      "only; the parallel engine's event count is internal to "
      "Testbed::RunJob (psim.windows/psim.messages cover it)");
}

}  // namespace

Rep RunWorkload(const std::string& name, std::uint64_t seed,
                SpanRecorder* rec) {
  Rep rep;
  Clock clk(rep, rec);
  Totals tot(rep);
  if (name == "gc-interference") {
    RunGcInterference(seed, rep, clk, tot, rec);
  } else if (name == "kv-ycsb-a") {
    RunKvYcsbA(seed, rep, clk, tot, rec);
  } else if (name == "stripe-append") {
    RunStripeAppend(seed, rep, clk, tot);
  } else {
    ZSTOR_CHECK_MSG(false, "unknown workload");
  }
  tot.Finish();
  const double counted = rep.host["sim.counted_run_s"];
  const double events = rep.virt["sim.events"];
  rep.host["sim.host_ns_per_event"] = events > 0 ? counted * 1e9 / events : 0;
  return rep;
}

}  // namespace perfbench
