// Tests for the benchmark's own helpers: the tail-percentile choice, the
// paper-error arithmetic, span self time, and that the tracing
// decorators leave a stack's completion stream untouched.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "decorators.h"
#include "harness/testbed.h"
#include "hostif/stack_factory.h"
#include "report.h"
#include "spans.h"
#include "zns/profile.h"

namespace {

using namespace perfbench;
namespace nvme = zstor::nvme;
namespace sim = zstor::sim;

int g_failures = 0;

#define EXPECT(cond)                                              \
  do {                                                            \
    if (!(cond)) {                                                \
      std::printf("%s:%d: expected %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                               \
    }                                                             \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestTailQuantile() {
  // The chosen percentile leaves at least ten samples beyond it.
  EXPECT(TailQuantile(10000) == 0.999);
  EXPECT(TailQuantile(9999) == 0.99);
  EXPECT(TailQuantile(1000) == 0.99);
  EXPECT(TailQuantile(999) == 0.95);
  EXPECT(TailQuantile(200) == 0.95);
  EXPECT(TailQuantile(199) == 0.90);
  EXPECT(TailQuantile(100) == 0.90);
  EXPECT(TailQuantile(99) == 0.50);
  EXPECT(TailQuantile(20) == 0.50);
  EXPECT(TailQuantile(19) == 0.0);
  EXPECT(TailQuantile(0) == 0.0);
}

void TestPaperErrPct() {
  // (|110-100|/100 + |45-50|/50) / 2 = (10% + 10%) / 2.
  EXPECT(Near(PaperErrPct({{110, 100}, {45, 50}}), 10.0));
  EXPECT(Near(PaperErrPct({{0, 4}}), 100.0));
  // (50% + 0%) / 2.
  EXPECT(Near(PaperErrPct({{3, 2}, {2, 2}}), 25.0));
  // Fig. 6 as EXPERIMENTS.md records it: 157 ms / 87 ms under writes,
  // 82.9 us read-only on both devices, 1152 MiB/s ZNS writes:
  // (142.89/299.89 + 11.04/98.04 + 2 * 1.49/81.41 + 3/1155) / 5.
  const double want =
      100.0 *
      (142.89 / 299.89 + 11.04 / 98.04 + 2 * 1.49 / 81.41 + 3.0 / 1155.0) / 5;
  EXPECT(Near(PaperErrPct({{157, 299.89},
                           {87, 98.04},
                           {82.9, 81.41},
                           {82.9, 81.41},
                           {1152, 1155}}),
              want));
  EXPECT(std::fabs(want - 12.5657) < 1e-3);
}

void TestMedian() {
  EXPECT(Median({}) == 0.0);
  EXPECT(Median({3, 1, 2}) == 2.0);
  EXPECT(Median({4, 1, 3, 2}) == 2.5);
}

void TestSelfTime() {
  // Parent [0,100] with children [10,30], [20,50], [80,120]: the children
  // cover [10,50] and [80,100], so the parent keeps 100 - 60 = 40.
  SpanRecorder rec;
  const std::uint32_t p = rec.Begin(Layer::kZkv, "put", 0, 0);
  rec.End(p, 100);
  const std::pair<sim::Time, sim::Time> kids[] = {
      {10, 30}, {20, 50}, {80, 120}};
  for (const auto& [s, e] : kids) {
    rec.End(rec.Begin(Layer::kHostif, "append", p, s), e);
  }
  const auto self = rec.SelfTimeNs();
  EXPECT(Near(self.at(Layer::kZkv), 40));
  EXPECT(Near(self.at(Layer::kHostif), 20 + 30 + 40));
}

struct Seen {
  nvme::Status status;
  nvme::Lba result_lba;
  sim::Time submitted, completed;
  std::uint64_t trace_id;
  bool operator==(const Seen&) const = default;
};

sim::Task<> IssueOne(zstor::hostif::Stack* stack, nvme::Command cmd,
                     std::vector<Seen>* out, int* live) {
  const nvme::TimedCompletion tc = co_await stack->Submit(cmd);
  out->push_back({tc.completion.status, tc.completion.result_lba,
                  tc.submitted, tc.completed, tc.trace_id});
  --*live;
}

/// A fixed command mix with overlapping commands: appends to two zones,
/// reads of what they wrote, a reset, and two commands the device rejects.
std::vector<Seen> Drive(bool decorated) {
  zstor::Testbed tb = zstor::TestbedBuilder()
                          .WithZnsProfile(zstor::zns::TinyProfile())
                          .Build();
  SpanRecorder rec;
  std::unique_ptr<TracingController> ctrl;
  nvme::Controller* c = &tb.controller();
  if (decorated) {
    ctrl = std::make_unique<TracingController>(tb.sim(), *c, rec);
    c = ctrl.get();
  }
  zstor::hostif::MadeStack made =
      zstor::hostif::MakeStack(zstor::StackChoice::kSpdk, tb.sim(), *c);
  std::unique_ptr<TracingStack> traced;
  zstor::hostif::Stack* stack = made.stack.get();
  if (decorated) {
    traced = std::make_unique<TracingStack>(tb.sim(), *stack, rec);
    stack = traced.get();
  }
  const std::uint64_t zone = tb.controller().info().zone_size_lbas;
  std::vector<Seen> seen;
  int live = 0;
  auto issue = [&](nvme::Command cmd) {
    ++live;
    sim::Spawn(IssueOne(stack, cmd, &seen, &live));
  };
  for (int i = 0; i < 8; ++i) {
    issue({.opcode = nvme::Opcode::kAppend, .slba = 0, .nlb = 2});
    issue({.opcode = nvme::Opcode::kAppend, .slba = zone, .nlb = 1});
  }
  tb.sim().Run();
  for (std::uint64_t lba = 0; lba < 8; ++lba) {
    issue({.opcode = nvme::Opcode::kRead, .slba = lba, .nlb = 1});
  }
  issue({.opcode = nvme::Opcode::kRead, .slba = 3 * zone, .nlb = 1});
  issue({.opcode = nvme::Opcode::kZoneMgmtSend,
         .slba = zone,
         .zone_action = nvme::ZoneAction::kReset});
  issue({.opcode = nvme::Opcode::kWrite, .slba = 5, .nlb = 1});
  tb.sim().Run();
  EXPECT(live == 0);
  if (decorated) {
    EXPECT(rec.link_misses() == 0);
    std::size_t nvme_spans = 0;
    for (const Span& s : rec.spans()) {
      if (s.layer != Layer::kNvme) continue;
      ++nvme_spans;
      EXPECT(s.parent != 0 &&
             rec.spans()[s.parent - 1].layer == Layer::kHostif);
    }
    EXPECT(nvme_spans == seen.size());
  }
  return seen;
}

void TestDecoratorsPassThrough() {
  const std::vector<Seen> bare = Drive(false);
  const std::vector<Seen> decorated = Drive(true);
  EXPECT(bare.size() == 27);
  EXPECT(bare == decorated);
  std::size_t failed = 0;
  for (const Seen& s : bare) failed += s.status != nvme::Status::kSuccess;
  EXPECT(failed >= 1);  // the stream covers error completions too
}

}  // namespace

int main() {
  TestTailQuantile();
  TestPaperErrPct();
  TestMedian();
  TestSelfTime();
  TestDecoratorsPassThrough();
  if (g_failures != 0) {
    std::printf("%d expectation(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_test: all passed\n");
  return 0;
}
