// Small, separately tested helpers: which tail percentile a sample count
// supports, the paper-accuracy score, medians, the host-speed reference,
// and the host description recorded with every result.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// The highest of p99.9, p99, p95, p90 and p50 that leaves at least ten
/// samples beyond it in `n` samples, as a quantile in (0,1); 0 when even
/// the median does not (n < 20).
double TailQuantile(std::uint64_t n);

/// Mean of |sim - paper| / paper over the pairs, in percent. Each pair is
/// (simulated, paper reference); references must be non-zero.
double PaperErrPct(const std::vector<std::pair<double, double>>& sim_paper);

/// Median of `v` (mean of the two middle values for even sizes); 0 for
/// an empty vector.
double Median(std::vector<double> v);

/// Host seconds of one pass of a fixed reference kernel shaped like
/// simulator work: a timed-event heap plus hash-map churn. It shares no
/// code with the program, so its time moves only with the host's speed.
double ReferenceSeconds();

/// ReferenceSeconds() on an idle 4-core Xeon VM. Set-up time spent
/// running the simulator is scaled to this host speed (see README.md,
/// "Host drift").
constexpr double kReferenceNominalS = 0.012;

struct HostInfo {
  unsigned nproc = 0;
  std::string cpu;
  std::string compiler;
  std::string build_type;
};

HostInfo GetHostInfo();

/// `s` as a JSON string literal (quotes and escapes included).
std::string JsonString(const std::string& s);

}  // namespace perfbench
