#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

using zstor::nvme::Command;
using zstor::nvme::Opcode;
using zstor::nvme::ZoneAction;

namespace {

std::int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* LayerName(Layer l) {
  switch (l) {
    case Layer::kHarness: return "harness";
    case Layer::kSim: return "sim";
    case Layer::kZkv: return "zkv";
    case Layer::kHostif: return "hostif";
    case Layer::kNvme: return "nvme";
  }
  return "?";
}

std::string_view OpName(const Command& cmd) {
  if (cmd.opcode == Opcode::kZoneMgmtSend) {
    switch (cmd.zone_action) {
      case ZoneAction::kReset: return "reset";
      case ZoneAction::kOpen: return "open";
      case ZoneAction::kClose: return "close";
      case ZoneAction::kFinish: return "finish";
      case ZoneAction::kNone: break;
    }
  }
  return zstor::nvme::ToString(cmd.opcode);
}

std::uint16_t SpanRecorder::Intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint16_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint16_t>(names_.size() - 1);
}

std::uint32_t SpanRecorder::Begin(Layer layer, std::string_view name,
                                  std::uint32_t parent,
                                  zstor::sim::Time vstart) {
  Span s;
  s.parent = parent;
  s.layer = layer;
  s.name = Intern(name);
  s.vstart = vstart;
  s.vend = vstart;
  spans_.push_back(s);
  return static_cast<std::uint32_t>(spans_.size());
}

void SpanRecorder::End(std::uint32_t id, zstor::sim::Time vend) {
  spans_[id - 1].vend = vend;
}

std::uint32_t SpanRecorder::BeginHost(Layer layer, std::string_view name,
                                      zstor::sim::Time vstart) {
  const std::uint32_t id = Begin(layer, name, 0, vstart);
  spans_[id - 1].hstart_ns = HostNowNs();
  return id;
}

void SpanRecorder::EndHost(std::uint32_t id, zstor::sim::Time vend) {
  spans_[id - 1].hend_ns = HostNowNs();
  End(id, vend);
}

void SpanRecorder::ExpectDevice(std::uint32_t hostif_span, const Command& c) {
  pending_.push_back({hostif_span, c.opcode, c.slba, c.nlb});
}

std::uint32_t SpanRecorder::ClaimIssuer(const Command& c) {
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->op == c.opcode && it->slba == c.slba && it->nlb == c.nlb) {
      const std::uint32_t span = it->span;
      pending_.erase(it);
      return span;
    }
  }
  ++link_misses_;
  return 0;
}

std::map<Layer, double> SpanRecorder::SelfTimeNs() const {
  // Children grouped by parent, as (start, end) intervals.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> by_parent;
  by_parent.reserve(spans_.size());
  for (std::uint32_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != 0) by_parent.emplace_back(spans_[i].parent, i);
  }
  std::sort(by_parent.begin(), by_parent.end());

  std::vector<double> covered(spans_.size(), 0.0);
  std::vector<std::pair<zstor::sim::Time, zstor::sim::Time>> iv;
  for (std::size_t a = 0; a < by_parent.size();) {
    const std::uint32_t parent = by_parent[a].first;
    const Span& p = spans_[parent - 1];
    iv.clear();
    std::size_t b = a;
    for (; b < by_parent.size() && by_parent[b].first == parent; ++b) {
      const Span& c = spans_[by_parent[b].second];
      const zstor::sim::Time s = std::max(c.vstart, p.vstart);
      const zstor::sim::Time e = std::min(c.vend, p.vend);
      if (e > s) iv.emplace_back(s, e);
    }
    std::sort(iv.begin(), iv.end());
    zstor::sim::Time run_s = 0, run_e = 0;
    double sum = 0;
    bool open = false;
    for (const auto& [s, e] : iv) {
      if (open && s <= run_e) {
        run_e = std::max(run_e, e);
        continue;
      }
      if (open) sum += static_cast<double>(run_e - run_s);
      run_s = s;
      run_e = e;
      open = true;
    }
    if (open) sum += static_cast<double>(run_e - run_s);
    covered[parent - 1] = sum;
    a = b;
  }

  std::map<Layer, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.layer] += static_cast<double>(s.vend - s.vstart) - covered[i];
  }
  return out;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"parent\":%u,\"layer\":\"%s\",\"name\":\"%s\","
                 "\"vstart_ns\":%lld,\"vend_ns\":%lld",
                 i + 1, s.parent, LayerName(s.layer), names_[s.name].c_str(),
                 static_cast<long long>(s.vstart),
                 static_cast<long long>(s.vend));
    if (s.hstart_ns >= 0) {
      std::fprintf(f, ",\"host_ns\":%lld",
                   static_cast<long long>(s.hend_ns - s.hstart_ns));
    }
    std::fputs("}\n", f);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
