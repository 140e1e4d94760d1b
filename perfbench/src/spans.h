// In-memory span recorder for the traced run.
//
// Every span carries its layer, a name, virtual start/end, host start/end
// when the call it brackets is synchronous (-1 otherwise), and the span
// that caused it. Spans stay in memory while the simulation runs and are
// written out once, after the measured phase, so the recorder's own cost
// is a vector push per span.
//
// Linking. A device command reaches nvme::Controller::Execute through the
// host stack's queue pair, asynchronously, so the nvme span cannot learn
// its issuer from the call stack. The hostif decorator announces each
// command it submits (ExpectDevice); the nvme decorator claims the oldest
// announced command with the same opcode, start LBA and length
// (ClaimIssuer). SPDK charges every command the same submission delay, so
// commands reach the device in submission order and the claim is exact.
// A hostif span is linked to the zkv call whose synchronous part issued
// it (`current`); I/O issued after a zkv call first suspends, or by
// background flush/compaction/reclaim, is a root.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "nvme/types.h"
#include "sim/time.h"

namespace perfbench {

enum class Layer : std::uint8_t { kHarness, kSim, kZkv, kHostif, kNvme };

const char* LayerName(Layer l);

struct Span {
  std::uint32_t parent = 0;  // 1-based id of the causing span; 0 = root
  Layer layer = Layer::kHarness;
  std::uint16_t name = 0;    // index into SpanRecorder::names()
  zstor::sim::Time vstart = 0;
  zstor::sim::Time vend = 0;
  std::int64_t hstart_ns = -1;  // host clock, synchronous calls only
  std::int64_t hend_ns = -1;
};

/// Name of a device command as the per-op metrics spell it: read, write,
/// append, reset, or the command's own name for everything else.
std::string_view OpName(const zstor::nvme::Command& cmd);

class SpanRecorder {
 public:
  /// Opens a span; returns its 1-based id.
  std::uint32_t Begin(Layer layer, std::string_view name,
                      std::uint32_t parent, zstor::sim::Time vstart);
  void End(std::uint32_t id, zstor::sim::Time vend);
  /// Opens/closes a span around a synchronous call, stamping the host
  /// clock as well as the virtual one.
  std::uint32_t BeginHost(Layer layer, std::string_view name,
                          zstor::sim::Time vstart);
  void EndHost(std::uint32_t id, zstor::sim::Time vend);

  void ExpectDevice(std::uint32_t hostif_span, const zstor::nvme::Command& c);
  /// The hostif span that issued `c`, or 0 (counted in link_misses()).
  std::uint32_t ClaimIssuer(const zstor::nvme::Command& c);

  /// The zkv span whose synchronous part is running, or 0.
  std::uint32_t current = 0;

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }
  std::uint64_t link_misses() const { return link_misses_; }

  /// Virtual self time summed per layer, in ns: each span's duration
  /// minus the part of it its children cover.
  std::map<Layer, double> SelfTimeNs() const;

  /// Writes one JSON object per span; false when `path` is unwritable.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Pending {
    std::uint32_t span;
    zstor::nvme::Opcode op;
    zstor::nvme::Lba slba;
    std::uint32_t nlb;
  };

  std::uint16_t Intern(std::string_view name);

  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::deque<Pending> pending_;
  std::uint64_t link_misses_ = 0;
};

}  // namespace perfbench
