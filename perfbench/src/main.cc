// zperf: runs one benchmark workload for a given time and prints its
// measurements. perfbench/run.py builds and drives it; see
// perfbench/README.md.
//
//   zperf --workload gc-interference --seed 1 --seconds 20 --trace 0
//         [--spans FILE]
//
// --trace 0 repeats the workload on the bare stacks until --seconds have
// passed. It reports the median set-up time, whose simulator-running part
// is scaled to a fixed host speed measured by a reference kernel timed
// between repetitions, and the fastest repetition's run time: the work is
// deterministic, and on a shared host interference only ever adds time,
// so the fastest repetition is the steadiest estimate of its cost. --trace 1 alternates untraced and decorated
// repetitions for the same time, checks that both give identical virtual
// results, and reports per-layer metrics (host times again from the
// fastest repetition); --spans writes the last traced repetition's spans
// as JSONL.
//
// Human-readable lines come first; the last line is one JSON object with
// every metric measured, the correctness verdict and the host metadata.
// Exit status: 0 when every correctness gate held, 1 when one tripped,
// 2 on bad arguments.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "report.h"
#include "sim/stats.h"
#include "spans.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using Metrics = std::map<std::string, double>;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string spans;
};

bool ParseUnsigned(const char* s, std::uint64_t* out) {
  if (*s == '\0' || *s == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

bool Parse(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      a->workload = val;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(val, &a->seed)) return false;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(val, &n) || n == 0 || n > 3600) return false;
      a->seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (!ParseUnsigned(val, &n) || n > 1) return false;
      a->trace = static_cast<int>(n);
    } else if (flag == "--spans") {
      a->spans = val;
    } else {
      return false;
    }
  }
  bool known = false;
  for (const std::string& w : kWorkloads) known |= (w == a->workload);
  return known && have_seed && a->seconds > 0 && a->trace >= 0;
}

/// The process's peak resident set (VmHWM). getrusage's ru_maxrss is not
/// used: Linux carries it across execve, so it would include the RSS of
/// the process that launched this one.
double PeakRssMib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

std::string Fingerprint(const Metrics& virt) {
  std::string s;
  char buf[64];
  for (const auto& [k, v] : virt) {
    std::snprintf(buf, sizeof(buf), "=%.17g;", v);
    s += k + buf;
  }
  return s;
}

/// Per-op counts and latency percentiles, hostif self time per command
/// (Stack::Submit latency minus the Controller::Execute latency of the
/// command it issued), and each layer's summed virtual self time.
void AddSpanMetrics(const SpanRecorder& rec, Metrics& m) {
  const auto& spans = rec.spans();
  const auto& names = rec.names();
  std::map<std::string, zstor::sim::LatencyHistogram> host_lat, exec_lat,
      self_lat;
  std::map<std::string, double> cmds;
  bool any_hostif = false;
  for (const Span& s : spans) {
    const std::string& name = names[s.name];
    const zstor::sim::Time dur = s.vend - s.vstart;
    if (s.layer == Layer::kHostif) {
      any_hostif = true;
      host_lat[name].Record(dur);
      cmds[name] += 1;
    } else if (s.layer == Layer::kNvme) {
      exec_lat[name].Record(dur);
      if (s.parent != 0) {
        const Span& p = spans[s.parent - 1];
        self_lat[names[p.name]].Record(p.vend - p.vstart - dur);
      }
    }
  }
  if (any_hostif) {
    auto us = [](const zstor::sim::LatencyHistogram& h, double q) {
      return h.count() == 0 ? 0.0 : h.Quantile(q) / 1e3;
    };
    for (const char* op : {"read", "write", "append", "reset"}) {
      const std::string o = op;
      m["hostif.cmds." + o] = cmds[o];
      m["hostif.lat_p50_us." + o] = us(host_lat[o], 0.50);
      m["hostif.lat_p99_us." + o] = us(host_lat[o], 0.99);
      m["hostif.self_p99_us." + o] = us(self_lat[o], 0.99);
      m["nvme.exec_p50_us." + o] = us(exec_lat[o], 0.50);
      m["nvme.exec_p99_us." + o] = us(exec_lat[o], 0.99);
    }
    m["zns.reset_p99_us"] = m["nvme.exec_p99_us.reset"];
  }
  // Harness and sim spans are host-timed phases, reported by name.
  for (const auto& [layer, ns] : rec.SelfTimeNs()) {
    if (layer == Layer::kZkv || layer == Layer::kHostif ||
        layer == Layer::kNvme) {
      m[std::string("trace.self_ms.") + LayerName(layer)] = ns / 1e6;
    }
  }
  m["trace.spans"] = static_cast<double>(spans.size());
  m["trace.link_misses"] = static_cast<double>(rec.link_misses());
}

struct E2e {
  const char* name;
  const char* unit;
  const char* samples;  // virt key holding the sample count, if a latency
};

// The end-to-end metrics, printed by name and unit where they apply.
constexpr E2e kE2e[] = {
    {"setup_s", "s", nullptr},
    {"run_s", "s", nullptr},
    {"peak_rss_mib", "MiB", nullptr},
    {"ops_failed_frac", "failed/attempted", nullptr},
    {"paper_err_pct", "%", nullptr},
    {"kv_kiops", "kops/s(virtual)", nullptr},
    {"kv_read_p50_us", "us(virtual)", "kv.reads"},
    {"kv_read_p99_us", "us(virtual)", "kv.reads"},
    {"kv_update_p50_us", "us(virtual)", "kv.updates"},
    {"kv_update_p99_us", "us(virtual)", "kv.updates"},
    {"kv_wa", "device/user bytes", nullptr},
    {"scale_eff", "ratio", nullptr},
};

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!Parse(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: zperf --workload {gc-interference|kv-ycsb-a|"
                 "stripe-append} --seed N --seconds S --trace {0|1} "
                 "[--spans FILE]\n");
    return 2;
  }
  const HostInfo host = GetHostInfo();
  std::printf(
      "perfbench meta: workload=%s seed=%llu trace=%d nproc=%u cpu=\"%s\" "
      "compiler=\"%s\" build_type=%s\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.trace,
      host.nproc, host.cpu.c_str(), host.compiler.c_str(),
      host.build_type.c_str());

  const auto t0 = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  std::vector<std::string> failures;
  std::vector<std::string> unmeasured;
  std::uint64_t attempted = 0, failed = 0;
  std::string first_fp;
  int reps = 0;
  auto account = [&](const Rep& r) {
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
    attempted += r.attempted;
    failed += r.failed;
    const std::string fp = Fingerprint(r.virt);
    if (first_fp.empty()) {
      first_fp = fp;
    } else if (fp != first_fp) {
      failures.push_back(
          "virtual results differ between repetitions of one seed");
    }
    unmeasured = r.unmeasured;
    ++reps;
  };

  Metrics m;
  if (a.trace == 0) {
    std::vector<double> setup, setup_sim, run, ref;
    Rep last;
    do {
      last = RunWorkload(a.workload, a.seed, nullptr);
      account(last);
      setup.push_back(last.setup_s);
      setup_sim.push_back(last.setup_sim_s);
      run.push_back(last.run_s);
      // About 2 % of the run: one reference pass per 0.5 s of run time.
      for (int k = 0; k == 0 || k < last.run_s / 0.5; ++k) {
        ref.push_back(ReferenceSeconds());
      }
    } while (elapsed() < a.seconds);
    m = last.virt;
    // The simulator-running part of set-up is scaled to the reference
    // host speed; testbed construction is not (see README.md).
    const double speed = kReferenceNominalS / Median(ref);
    std::vector<double> scaled;
    for (std::size_t i = 0; i < setup.size(); ++i) {
      scaled.push_back(setup[i] - setup_sim[i] + setup_sim[i] * speed);
    }
    m["setup_raw_s"] = Median(setup);
    m["harness.ref_ms"] = Median(ref) * 1e3;
    m["setup_s"] = Median(scaled);
    m["run_s"] = *std::min_element(run.begin(), run.end());
    m["peak_rss_mib"] = PeakRssMib();
  } else {
    // Untraced and traced repetitions alternate which runs first, so a
    // warm-up effect does not land on one side only.
    double untraced_run = HUGE_VAL, traced_run = HUGE_VAL;
    std::map<std::string, double> host_best;
    SpanRecorder last_rec;
    Rep last;
    std::vector<double> ref;
    for (int i = 0; i == 0 || elapsed() < a.seconds; ++i) {
      ref.push_back(ReferenceSeconds());
      SpanRecorder rec;
      Rep u, t;
      if (i % 2 == 0) {
        u = RunWorkload(a.workload, a.seed, nullptr);
        t = RunWorkload(a.workload, a.seed, &rec);
      } else {
        t = RunWorkload(a.workload, a.seed, &rec);
        u = RunWorkload(a.workload, a.seed, nullptr);
      }
      if (Fingerprint(u.virt) != Fingerprint(t.virt)) {
        failures.push_back(
            "traced run's virtual results differ from the untraced run's");
      }
      account(u);
      account(t);
      untraced_run = std::min(untraced_run, u.run_s);
      traced_run = std::min(traced_run, t.run_s);
      for (const auto& [k, v] : t.host) {
        auto [it, fresh] = host_best.emplace(k, v);
        if (!fresh) it->second = std::min(it->second, v);
      }
      last = std::move(t);
      last_rec = std::move(rec);
    }
    m = last.virt;
    for (const auto& [k, v] : host_best) m[k] = v;
    m["run_s"] = untraced_run;
    m["harness.ref_ms"] = Median(ref) * 1e3;
    m["trace.overhead_x"] = traced_run / untraced_run;
    AddSpanMetrics(last_rec, m);
    if (!a.spans.empty() && !last_rec.WriteJsonl(a.spans)) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   a.spans.c_str());
      return 2;
    }
  }
  m["ops_failed_frac"] =
      attempted > 0 ? static_cast<double>(failed) / attempted : 0.0;
  if (attempted == 0) failures.push_back("no device command was attempted");

  std::printf("perfbench: %d repetitions in %.3f s; %llu commands "
              "attempted, %llu failed\n",
              reps, elapsed(), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (const E2e& e : kE2e) {
    auto it = m.find(e.name);
    if (it == m.end()) continue;
    std::printf("perfbench e2e: %-18s %14.6f %s", e.name, it->second,
                e.unit);
    if (e.samples != nullptr) {
      const auto n = static_cast<std::uint64_t>(m[e.samples]);
      std::printf("  (n=%llu; highest tail with >=10 samples beyond: p%g)",
                  static_cast<unsigned long long>(n),
                  100.0 * TailQuantile(n));
    }
    std::printf("\n");
  }
  for (const std::string& u : unmeasured) {
    std::printf("perfbench not measured: %s\n", u.c_str());
  }
  for (const std::string& f : failures) {
    std::printf("perfbench FAILED: %s\n", f.c_str());
  }

  std::string out = "{\"workload\":" + JsonString(a.workload) +
                    ",\"seed\":" + std::to_string(a.seed) +
                    ",\"trace\":" + std::to_string(a.trace) +
                    ",\"repetitions\":" + std::to_string(reps) +
                    ",\"meta\":{\"nproc\":" + std::to_string(host.nproc) +
                    ",\"cpu\":" + JsonString(host.cpu) +
                    ",\"compiler\":" + JsonString(host.compiler) +
                    ",\"build_type\":" + JsonString(host.build_type) +
                    "},\"correct\":" + (failures.empty() ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) +
                    ",\"metrics\":{";
  bool first = true;
  char buf[64];
  for (const auto& [k, v] : m) {
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    out += (first ? "" : ",") + JsonString(k) + ":" + buf;
    first = false;
  }
  out += "},\"unmeasured\":[";
  for (std::size_t i = 0; i < unmeasured.size(); ++i) {
    out += (i ? "," : "") + JsonString(unmeasured[i]);
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  return failures.empty() ? 0 : 1;
}
