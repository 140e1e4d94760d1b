// Machine-readable bench results: every bench binary records the numbers
// behind its printed tables into a process-wide ResultWriter, and
// `--json=FILE` (see bench_flags.h) dumps them as one JSON document.
//
// Schema (DESIGN.md §7):
//
//   {
//     "bench": "bench_fig2_latency",
//     "schema_version": 3,
//     "config": {"device": "zn540", "runtime_s": 2},
//     "series": [
//       {"name": "randread-qd1", "unit": "us",
//        "points": [
//          {"x": 4096, "label": "4KiB", "value": 13.2,
//           "samples": 50000, "mean_ns": 13200.0, "p50_ns": ...,
//           "p95_ns": ..., "p99_ns": ...,
//           "wa": 3.4,                    // optional (v3): the point's
//                                         // write amplification
//           "parts": [6.6, 6.6]}]}       // optional (v2): per-component
//     ]                                   // breakdown of `value`, e.g.
//   }                                     // per-device throughput
//
// Latency fields are null when a point has no histogram attached (or the
// histogram is empty): absent data must never read as zero latency.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/stats.h"

namespace zstor::harness {

/// One measured point: x locates it on the series' axis, `value` is the
/// headline number in the series' unit, the *_ns fields carry the full
/// latency distribution when one was measured (NaN = absent = JSON null).
struct ResultPoint {
  double x = 0.0;
  std::string label;  // optional human name for x ("qd=4", "zns")
  double value = 0.0;
  std::uint64_t samples = 0;
  double mean_ns, p50_ns, p95_ns, p99_ns;  // NaN when no histogram
  /// Optional write amplification at this point (schema v3) — total
  /// device write traffic per byte of user data. NaN = absent (never
  /// emitted); KV/GC benches attach it via WithWa().
  double wa;
  /// Optional per-component breakdown of `value` (schema v2) — e.g. one
  /// entry per striped device. Emitted only when non-empty.
  std::vector<double> parts;

  ResultPoint();
};

/// A named sequence of points sharing one unit ("us", "kiops", "MiB/s").
class ResultSeries {
 public:
  ResultSeries(std::string name, std::string unit)
      : name_(std::move(name)), unit_(std::move(unit)) {}

  /// Records a point with no latency distribution.
  ResultSeries& Add(double x, double value);
  /// Records a point plus the percentiles of `h` (ignored when empty).
  ResultSeries& Add(double x, double value, const sim::LatencyHistogram& h);
  /// As Add(), with a human-readable label for x.
  ResultSeries& AddLabeled(std::string label, double x, double value);
  ResultSeries& AddLabeled(std::string label, double x, double value,
                           const sim::LatencyHistogram& h);
  /// Attaches a per-component breakdown to the most recently added point
  /// (requires one; checked).
  ResultSeries& WithParts(std::vector<double> parts);
  /// Attaches a write-amplification figure to the most recently added
  /// point (requires one; checked).
  ResultSeries& WithWa(double wa);

  const std::string& name() const { return name_; }
  const std::string& unit() const { return unit_; }
  const std::vector<ResultPoint>& points() const { return points_; }

 private:
  std::string name_;
  std::string unit_;
  std::vector<ResultPoint> points_;
};

/// The per-process result document. Benches reach it through
/// harness::Results() (owned by BenchEnv, named after argv[0]); tests may
/// build standalone instances.
class ResultWriter {
 public:
  void set_bench(std::string name) { bench_ = std::move(name); }
  const std::string& bench() const { return bench_; }

  /// Records a config key (last write wins; insertion order preserved).
  void Config(const std::string& key, const std::string& value);
  void Config(const std::string& key, double value);

  /// Records a run-environment measurement (last write wins) — emitted as
  /// a top-level "meta" object, separate from "config" so identity checks
  /// can normalize it away. BenchEnv::Finish stamps "wall_ms", the bench's
  /// real elapsed time (for the speedup gate), and "peak_rss_mib", its
  /// peak resident memory (for the footprint gate).
  void SetMeta(const std::string& key, double value);

  /// Gets or creates the series with this name. The unit is set on
  /// creation; later calls may pass "" to mean "whatever it already is".
  ResultSeries& Series(const std::string& name, const std::string& unit = "");

  bool empty() const { return series_.empty() && config_.empty(); }

  std::string ToJson() const;
  /// Writes ToJson() + newline; returns false (with a warning on stderr)
  /// when the file cannot be opened.
  bool WriteFile(const std::string& path) const;

 private:
  std::string bench_;
  // key -> pre-rendered JSON value (escaped string or number literal).
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::pair<std::string, double>> meta_;
  std::vector<ResultSeries> series_;
};

/// The process-wide writer benches record into; see bench_flags.h.
ResultWriter& Results();

}  // namespace zstor::harness
