// Host stack tests: overhead calibration (Obs. 2) and mq-deadline zoned
// write staging/merging (the mechanism behind Obs. 7).
#include <gtest/gtest.h>

#include <vector>

#include "hostif/host_stack.h"
#include "sim/task.h"
#include "zns/zns_device.h"

namespace zstor::hostif {
namespace {

using sim::Time;
using sim::ToMicroseconds;
using zns::ZnsProfile;

ZnsProfile Quiet() {
  ZnsProfile p = zns::TinyProfile();
  p.io_sigma = 0;
  p.reset.sigma = 0;
  p.finish.sigma = 0;
  return p;
}

ZnsProfile QuietZn540() {
  ZnsProfile p = zns::Zn540Profile();
  p.io_sigma = 0;
  p.reset.sigma = 0;
  p.finish.sigma = 0;
  p.nand_timing.read_sigma = 0;
  p.nand_timing.program_sigma = 0;
  return p;
}

Time MeasureSecondWrite(sim::Simulator& s, HostStack& stack) {
  Time lat = 0;
  auto body = [&]() -> sim::Task<> {
    (void)co_await stack.Submit(
        {.opcode = nvme::Opcode::kWrite, .slba = 0, .nlb = 1});
    auto tc = co_await stack.Submit(
        {.opcode = nvme::Opcode::kWrite, .slba = 1, .nlb = 1});
    lat = tc.latency();
  };
  auto t = body();
  s.Run();
  return lat;
}

TEST(SpdkStack, Write4kLatencyMatchesPaper) {
  sim::Simulator s;
  zns::ZnsDevice dev(s, QuietZn540());
  HostStack stack(s, dev);
  Time lat = MeasureSecondWrite(s, stack);
  // Obs. 2/4: SPDK 4 KiB write = 11.36 us.
  EXPECT_NEAR(ToMicroseconds(lat), 11.36, 0.15);
}

TEST(KernelStack, NoSchedulerWrite4kLatencyMatchesPaper) {
  sim::Simulator s;
  zns::ZnsDevice dev(s, QuietZn540());
  HostStack stack(s, dev, StackChoice::kKernelNone);
  Time lat = MeasureSecondWrite(s, stack);
  // Obs. 2: kernel without a scheduler = 12.62 us.
  EXPECT_NEAR(ToMicroseconds(lat), 12.62, 0.15);
}

TEST(KernelStack, MqDeadlineAddsSchedulerOverhead) {
  sim::Simulator s;
  zns::ZnsDevice dev(s, QuietZn540());
  HostStack stack(s, dev, StackChoice::kKernelMq);
  Time lat = MeasureSecondWrite(s, stack);
  // Obs. 2: mq-deadline = 14.47 us (+1.85 us over no scheduler).
  EXPECT_NEAR(ToMicroseconds(lat), 14.47, 0.15);
}

TEST(KernelStack, MqDeadlineMergesContiguousZoneWrites) {
  sim::Simulator s;
  zns::ZnsDevice dev(s, Quiet());
  HostStack stack(s, dev, StackChoice::kKernelMq);
  // 16 concurrent sequential 4 KiB writes to one zone.
  auto w = [&](nvme::Lba slba) -> sim::Task<> {
    auto tc = co_await stack.Submit(
        {.opcode = nvme::Opcode::kWrite, .slba = slba, .nlb = 1});
    ZSTOR_CHECK(tc.completion.ok());
  };
  for (nvme::Lba i = 0; i < 16; ++i) sim::Spawn(w(i));
  s.Run();
  const SchedulerStats& st = stack.scheduler_stats();
  EXPECT_EQ(st.staged_writes, 16u);
  // First write dispatches alone; the rest coalesce into few requests.
  EXPECT_LT(st.dispatched_writes, 6u);
  EXPECT_GT(st.MergedFraction(), 0.6);
  // The device saw merged writes, not 16 commands.
  EXPECT_EQ(dev.counters().writes, st.dispatched_writes);
  EXPECT_EQ(dev.ZoneWrittenBytes(0), 16u * 4096);
}

TEST(KernelStack, MergeRespectsMaxRequestSize) {
  sim::Simulator s;
  zns::ZnsDevice dev(s, Quiet());
  HostStack stack(s, dev, StackChoice::kKernelMq);
  const std::uint32_t per_write = 16 * 1024;
  const auto nlb = static_cast<std::uint32_t>(
      per_write / dev.info().format.lba_bytes);
  // Block the zone with a first in-flight write, then stage 16 more.
  auto w = [&](nvme::Lba slba) -> sim::Task<> {
    (void)co_await stack.Submit(
        {.opcode = nvme::Opcode::kWrite, .slba = slba, .nlb = nlb});
  };
  for (nvme::Lba i = 0; i < 17; ++i) sim::Spawn(w(i * nlb));
  s.Run();
  // 1 + ceil(16 / 8): batches capped at 128 KiB = 8 writes of 16 KiB.
  static_assert(kMaxMergeBytes == 8 * 16 * 1024);
  EXPECT_EQ(stack.scheduler_stats().dispatched_writes, 3u);
  EXPECT_EQ(stack.scheduler_stats().merged_writes, 14u);
  EXPECT_EQ(dev.ZoneWrittenBytes(0), 17u * per_write);
}

TEST(KernelStack, NonContiguousWritesDoNotMerge) {
  sim::Simulator s;
  zns::ZnsDevice dev(s, Quiet());
  HostStack stack(s, dev, StackChoice::kKernelMq);
  std::vector<nvme::Status> results;
  // Two writes to DIFFERENT zones: separate queues, no merging.
  auto w = [&](nvme::Lba slba) -> sim::Task<> {
    auto tc = co_await stack.Submit(
        {.opcode = nvme::Opcode::kWrite, .slba = slba, .nlb = 1});
    results.push_back(tc.completion.status);
  };
  std::uint64_t zsz = dev.info().zone_size_lbas;
  sim::Spawn(w(0));
  sim::Spawn(w(zsz));
  s.Run();
  EXPECT_EQ(stack.scheduler_stats().dispatched_writes, 2u);
  EXPECT_EQ(stack.scheduler_stats().merged_writes, 0u);
  for (auto st : results) EXPECT_EQ(st, nvme::Status::kSuccess);
}

TEST(HostStack, MqDeadlineMergeKeepsEachWritesTags) {
  // The device stores tag + i at LBA slba + i of a tagged write, and a
  // merged request carries the head write's tag: a write joins a batch
  // only when its own tags continue the head's.
  auto run = [](std::vector<std::uint64_t> tags) {
    sim::Simulator s;
    zns::ZnsDevice dev(s, Quiet());
    HostStack stack(s, dev, StackChoice::kKernelMq);
    auto w = [&](nvme::Lba slba) -> sim::Task<> {
      auto tc = co_await stack.Submit({.opcode = nvme::Opcode::kWrite,
                                       .slba = slba,
                                       .nlb = 1,
                                       .payload_tag = tags[slba]});
      ZSTOR_CHECK(tc.completion.ok());
    };
    for (nvme::Lba i = 0; i < tags.size(); ++i) sim::Spawn(w(i));
    s.Run();
    std::vector<std::uint64_t> got;
    auto read = [&]() -> sim::Task<> {
      auto tc = co_await stack.Submit(
          {.opcode = nvme::Opcode::kRead,
           .slba = 0,
           .nlb = static_cast<std::uint32_t>(tags.size()),
           .payload_tag = 1});
      got = tc.completion.payload_tags;
    };
    auto t = read();
    s.Run();
    return std::make_pair(got, stack.scheduler_stats().merged_writes);
  };
  const std::vector<std::uint64_t> apart = {1000, 2000, 3000, 4000};
  auto [got_apart, merged_apart] = run(apart);
  EXPECT_EQ(got_apart, apart);
  EXPECT_EQ(merged_apart, 0u);
  // Tags that continue one another still merge.
  const std::vector<std::uint64_t> runs_on = {1000, 1001, 1002, 1003};
  auto [got_runs_on, merged_runs_on] = run(runs_on);
  EXPECT_EQ(got_runs_on, runs_on);
  EXPECT_GT(merged_runs_on, 0u);
}

TEST(KernelStack, MqDeadlineAllowsDeepQueueOnOneZone) {
  // The paper: "Applications can, hence, issue multiple write operations
  // to a single zone" with mq-deadline. QD32 sequential writes all land.
  sim::Simulator s;
  zns::ZnsDevice dev(s, Quiet());
  HostStack stack(s, dev, StackChoice::kKernelMq);
  int ok = 0;
  auto w = [&](nvme::Lba slba) -> sim::Task<> {
    auto tc = co_await stack.Submit(
        {.opcode = nvme::Opcode::kWrite, .slba = slba, .nlb = 1});
    if (tc.completion.ok()) ++ok;
  };
  for (nvme::Lba i = 0; i < 32; ++i) sim::Spawn(w(i));
  s.Run();
  EXPECT_EQ(ok, 32);
}

TEST(SpdkStack, PassesThroughAppendsAndMgmt) {
  sim::Simulator s;
  zns::ZnsDevice dev(s, Quiet());
  HostStack stack(s, dev);
  auto body = [&]() -> sim::Task<> {
    auto a = co_await stack.Submit(
        {.opcode = nvme::Opcode::kAppend, .slba = 0, .nlb = 2});
    ZSTOR_CHECK(a.completion.ok());
    ZSTOR_CHECK(a.completion.result_lba == 0);
    auto r = co_await stack.Submit(
        {.opcode = nvme::Opcode::kZoneMgmtSend,
         .slba = 0,
         .zone_action = nvme::ZoneAction::kReset});
    ZSTOR_CHECK(r.completion.ok());
  };
  auto t = body();
  s.Run();
  EXPECT_EQ(dev.counters().appends, 1u);
  EXPECT_EQ(dev.counters().resets, 1u);
}

}  // namespace
}  // namespace zstor::hostif
