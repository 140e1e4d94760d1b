#include "report.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <queue>
#include <thread>
#include <unordered_map>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "sim/check.h"

namespace perfbench {

double TailQuantile(std::uint64_t n) {
  constexpr double kLadder[] = {0.999, 0.99, 0.95, 0.90, 0.50};
  for (double q : kLadder) {
    // Samples strictly beyond the q-quantile: n * (1 - q), computed in
    // integers (parts per thousand) to avoid rounding at the edges.
    const auto per_mille = static_cast<std::uint64_t>(std::lround(
        (1.0 - q) * 1000.0));
    if (n * per_mille >= 10 * 1000) return q;
  }
  return 0.0;
}

double PaperErrPct(const std::vector<std::pair<double, double>>& sim_paper) {
  ZSTOR_CHECK(!sim_paper.empty());
  double sum = 0;
  for (const auto& [sim, paper] : sim_paper) {
    ZSTOR_CHECK(paper != 0.0);
    sum += std::fabs(sim - paper) / std::fabs(paper);
  }
  return 100.0 * sum / static_cast<double>(sim_paper.size());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

double ReferenceSeconds() {
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  const auto t0 = std::chrono::steady_clock::now();
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  std::uint64_t x = 88172645463325252ull;  // xorshift64 state
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint32_t i = 0; i < 4096; ++i) heap.push({next() % 100000, i});
  std::uint64_t sum = 0;
  for (int i = 0; i < 50000; ++i) {
    const Event e = heap.top();
    heap.pop();
    heap.push({e.first + next() % 1000, e.second});
    const auto it = map.find(next() % 65536);
    if (it != map.end()) {
      sum += it->second;
      map.erase(it);
    } else {
      map.emplace(x % 65536, e.first);
    }
  }
  volatile std::uint64_t keep = sum;  // the work must not be optimized out
  (void)keep;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

namespace {

std::string CpuBrand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    const auto last = s.find_last_not_of(' ');
    if (first != std::string::npos) return s.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

}  // namespace

HostInfo GetHostInfo() {
  HostInfo h;
  h.nproc = std::thread::hardware_concurrency();
  h.cpu = CpuBrand();
#if defined(__clang__)
  h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  h.compiler = std::string("gcc ") + __VERSION__;
#else
  h.compiler = "unknown";
#endif
#ifdef PERFBENCH_BUILD_TYPE
  h.build_type = PERFBENCH_BUILD_TYPE;
#else
  h.build_type = "unknown";
#endif
  return h;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace perfbench
