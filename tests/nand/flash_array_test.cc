#include "nand/flash_array.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "sim/task.h"

namespace zstor::nand {
namespace {

Geometry SmallGeo() {
  Geometry g;
  g.channels = 2;
  g.dies_per_channel = 2;
  g.blocks_per_die = 4;
  g.pages_per_block = 8;
  g.page_bytes = 16 * 1024;
  return g;
}

TEST(Geometry, DerivedQuantities) {
  Geometry g = SmallGeo();
  EXPECT_EQ(g.total_dies(), 4u);
  EXPECT_EQ(g.total_blocks(), 16u);
  EXPECT_EQ(g.pages_per_die(), 32u);
  EXPECT_EQ(g.block_bytes(), 128u * 1024);
  EXPECT_EQ(g.total_bytes(), 4u * 32 * 16 * 1024);
  EXPECT_EQ(g.channel_of({0}), 0u);
  EXPECT_EQ(g.channel_of({1}), 1u);
  EXPECT_EQ(g.channel_of({2}), 0u);  // round-robin interleave
}

TEST(Geometry, Zn540ScaleBandwidthMatchesPaper) {
  // The default geometry+timing must reproduce the measured ~1155 MiB/s
  // device write bandwidth the paper reports (§III-F).
  sim::Simulator s;
  FlashArray arr(s, Geometry{}, Timing{});
  double mib_s = arr.PeakProgramBandwidth() / (1024.0 * 1024.0);
  EXPECT_NEAR(mib_s, 1155.0, 60.0);
}

TEST(FlashArray, ProgramThenReadTakesExpectedTime) {
  sim::Simulator s;
  Timing t;
  FlashArray arr(s, SmallGeo(), t);
  sim::Time done = 0;
  auto body = [&]() -> sim::Task<> {
    co_await arr.ProgramPage({0, 0, 0});
    co_await arr.ReadPage({0, 0, 0}, 16 * 1024);
    done = s.now();
  };
  auto task = body();
  s.Run();
  EXPECT_EQ(done,
            t.bus_xfer_page + t.program_page + t.read_page + t.bus_xfer_page);
  EXPECT_EQ(arr.counters().page_programs, 1u);
  EXPECT_EQ(arr.counters().page_reads, 1u);
}

TEST(FlashArray, SubPageReadTransfersProportionally) {
  sim::Simulator s;
  Timing t;
  FlashArray arr(s, SmallGeo(), t);
  sim::Time done = 0;
  auto body = [&]() -> sim::Task<> {
    co_await arr.ProgramPage({0, 0, 0});
    sim::Time start = s.now();
    co_await arr.ReadPage({0, 0, 0}, 4 * 1024);  // 1/4 page
    done = s.now() - start;
  };
  auto task = body();
  s.Run();
  EXPECT_EQ(done, t.read_page + t.bus_xfer_page / 4);
}

TEST(FlashArray, ProgramsOnSameDieSerialize) {
  sim::Simulator s;
  Timing t;
  FlashArray arr(s, SmallGeo(), t);
  auto body = [&](std::uint32_t page) -> sim::Task<> {
    co_await arr.ProgramPage({0, 0, page});
  };
  sim::Spawn(body(0));
  sim::Spawn(body(1));
  s.Run();
  // Two programs on one die: 2× (bus + tPROG) but bus of #2 overlaps die
  // busy of #1, so the span is bus + 2 * tPROG.
  EXPECT_EQ(s.now(), t.bus_xfer_page + 2 * t.program_page);
}

TEST(FlashArray, ProgramsOnDifferentDiesRunInParallel) {
  sim::Simulator s;
  Timing t;
  FlashArray arr(s, SmallGeo(), t);
  auto body = [&](std::uint32_t die) -> sim::Task<> {
    co_await arr.ProgramPage({die, 0, 0});
  };
  sim::Spawn(body(0));  // channel 0
  sim::Spawn(body(1));  // channel 1 — fully parallel
  s.Run();
  EXPECT_EQ(s.now(), t.bus_xfer_page + t.program_page);
}

TEST(FlashArray, DiesOnSameChannelShareTheBus) {
  sim::Simulator s;
  Timing t;
  FlashArray arr(s, SmallGeo(), t);
  auto body = [&](std::uint32_t die) -> sim::Task<> {
    co_await arr.ProgramPage({die, 0, 0});
  };
  sim::Spawn(body(0));  // channel 0
  sim::Spawn(body(2));  // channel 0 too: bus transfers serialize
  s.Run();
  EXPECT_EQ(s.now(), 2 * t.bus_xfer_page + t.program_page);
}

TEST(FlashArray, ReadQueuesBehindProgramOnBusyDie) {
  sim::Simulator s;
  Timing t;
  FlashArray arr(s, SmallGeo(), t);
  sim::Time read_latency = 0;
  auto prep = [&]() -> sim::Task<> { co_await arr.ProgramPage({0, 0, 0}); };
  auto w = [&]() -> sim::Task<> { co_await arr.ProgramPage({0, 0, 1}); };
  auto r = [&]() -> sim::Task<> {
    // Arrive while the second program holds the die.
    co_await s.Delay(t.bus_xfer_page + t.program_page / 2);
    sim::Time start = s.now();
    co_await arr.ReadPage({0, 0, 0}, 4096);
    read_latency = s.now() - start;
  };
  auto t1 = prep();
  s.Run();
  sim::Spawn(w());
  sim::Spawn(r());
  s.Run();
  // The read arrived 1 ns into the second program's die time and had to
  // wait for it to finish: latency ≈ tPROG + tR.
  EXPECT_GT(read_latency, t.read_page + t.program_page / 2);
}

TEST(FlashArray, DieServesReadsAndErasesInArrivalOrderBetweenPrograms) {
  // Die 0 is held by an erase while programs P1 and P2 queue on it, with
  // a read (then an erase) arriving between them: the die serves them in
  // arrival order, whatever their kind.
  for (const bool mid_is_erase : {false, true}) {
    sim::Simulator s;
    Timing t;
    FlashArray arr(s, SmallGeo(), t);
    arr.DebugProgramRange(0, 1, 1);  // a readable page
    std::vector<std::string> order;
    std::vector<sim::Time> at;
    auto note = [&](const char* name) {
      order.push_back(name);
      at.push_back(s.now());
    };
    auto hold = [&]() -> sim::Task<> {
      co_await arr.EraseBlock(0, 3);
      note("hold");
    };
    auto program = [&](std::uint32_t page, sim::Time arrive,
                       const char* name) -> sim::Task<> {
      co_await s.Delay(arrive);
      co_await arr.ProgramPage({0, 0, page});
      note(name);
    };
    auto mid = [&]() -> sim::Task<> {
      // P1 joined the die queue after its bus transfer; P2 will join
      // one bus transfer after it was submitted, 1 ns from now.
      co_await s.Delay(t.bus_xfer_page + 1);
      EXPECT_EQ(arr.DieQueueDepth(0), 2u);  // the erase and P1
      if (mid_is_erase) {
        co_await arr.EraseBlock(0, 2);
      } else {
        co_await arr.ReadPage({0, 1, 0}, 4096);
      }
      note("mid");
    };
    sim::Spawn(hold());
    sim::Spawn(program(0, 0, "p1"));
    sim::Spawn(mid());
    sim::Spawn(program(1, t.bus_xfer_page + 2, "p2"));
    s.Run();
    ASSERT_EQ(order, (std::vector<std::string>{"hold", "p1", "mid", "p2"}))
        << (mid_is_erase ? "erase" : "read");
    const sim::Time mid_die = mid_is_erase ? t.erase_block : t.read_page;
    const sim::Time mid_xfer = mid_is_erase ? 0 : t.bus_xfer_page / 4;
    EXPECT_EQ(at[1], t.erase_block + t.program_page);
    EXPECT_EQ(at[2], at[1] + mid_die + mid_xfer);
    EXPECT_EQ(at[3], at[1] + mid_die + t.program_page);
  }
}

TEST(FlashArray, RecordsQueueAndCompleteThroughTheirCallback) {
  struct Op : PageOp {
    std::vector<std::uint32_t>* log = nullptr;
  };
  sim::Simulator s;
  Timing t;
  FlashArray arr(s, SmallGeo(), t);
  std::vector<std::uint32_t> log;
  auto record = [](PageOp& op) {
    auto& self = static_cast<Op&>(op);
    self.log->push_back(self.addr.page);
  };
  std::vector<Op> ops(3);
  for (std::uint32_t i = 0; i < ops.size(); ++i) {
    ops[i].addr = {0, 0, i};
    ops[i].done = record;
    ops[i].log = &log;
    arr.SubmitProgram(ops[i]);
  }
  s.Run();
  EXPECT_EQ(log, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(s.now(), t.bus_xfer_page + 3 * t.program_page);
  for (const Op& op : ops) EXPECT_EQ(op.status, MediaStatus::kOk);

  // A program to a retired block completes before SubmitProgram returns;
  // the record is reused.
  ASSERT_TRUE(arr.MarkBlockRetired(0, 1));
  ops[0].addr = {0, 1, 0};
  arr.SubmitProgram(ops[0]);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(ops[0].status, MediaStatus::kProgramFail);
  EXPECT_TRUE(s.idle());
}

TEST(FlashArray, EraseResetsWritePointerAndCountsPe) {
  sim::Simulator s;
  FlashArray arr(s, SmallGeo(), Timing{});
  auto body = [&]() -> sim::Task<> {
    co_await arr.ProgramPage({1, 2, 0});
    co_await arr.ProgramPage({1, 2, 1});
    EXPECT_EQ(arr.BlockWritePointer(1, 2), 2u);
    co_await arr.EraseBlock(1, 2);
    EXPECT_EQ(arr.BlockWritePointer(1, 2), 0u);
    EXPECT_EQ(arr.BlockPeCycles(1, 2), 1u);
    co_await arr.ProgramPage({1, 2, 0});  // reusable after erase
  };
  auto task = body();
  s.Run();
  EXPECT_EQ(arr.counters().block_erases, 1u);
}

TEST(FlashArrayLazyState, UntouchedBlocksReadFreshWithoutAllocating) {
  sim::Simulator s;
  FlashArray arr(s, Geometry{}, Timing{});  // 8192 blocks
  bool probed = true;
  auto body = [&]() -> sim::Task<> {
    probed = co_await arr.ProbePage({5, 17, 3});
  };
  auto task = body();
  s.Run();
  EXPECT_FALSE(probed);
  for (std::uint32_t die : {0u, 7u, 31u}) {
    for (std::uint32_t blk : {0u, 63u, 64u, 255u}) {
      EXPECT_EQ(arr.BlockWritePointer(die, blk), 0u);
      EXPECT_EQ(arr.BlockPeCycles(die, blk), 0u);
      EXPECT_FALSE(arr.BlockRetired(die, blk));
    }
  }
  EXPECT_EQ(arr.AllocatedBlockChunks(), 0u);
}

TEST(FlashArrayLazyState, NoOpsOnNeverProgrammedBlocksAllocateNothing) {
  sim::Simulator s;
  FlashArray arr(s, Geometry{}, Timing{});
  arr.DeferredEraseBlock(3, 40);
  arr.CrashDiscardTail(3, 41, 0);
  arr.DebugProgramRange(3, 42, 0);
  EXPECT_EQ(arr.BlockPeCycles(3, 40), 0u);
  EXPECT_EQ(arr.counters().block_erases, 0u);
  EXPECT_EQ(arr.counters().crash_discarded_pages, 0u);
  EXPECT_EQ(arr.AllocatedBlockChunks(), 0u);
}

TEST(FlashArrayLazyState, BlocksBesideUntouchedOnesKeepTheirState) {
  // 100 blocks per die: chunks straddle dies, so die 0's last block and
  // die 1's first share a chunk.
  Geometry g = SmallGeo();
  g.blocks_per_die = 100;
  sim::Simulator s;
  FlashArray arr(s, g, Timing{});
  auto body = [&]() -> sim::Task<> {
    co_await arr.ProgramPage({0, 99, 0});
    co_await arr.ProgramPage({0, 99, 1});
    co_await arr.ProgramPage({1, 0, 0});
    co_await arr.EraseBlock(0, 99);
    co_await arr.ProgramPage({0, 99, 0});
  };
  auto task = body();
  s.Run();
  EXPECT_TRUE(arr.MarkBlockRetired(1, 1));
  EXPECT_EQ(arr.AllocatedBlockChunks(), 1u);
  EXPECT_EQ(arr.BlockWritePointer(0, 99), 1u);
  EXPECT_EQ(arr.BlockPeCycles(0, 99), 1u);
  EXPECT_EQ(arr.BlockWritePointer(1, 0), 1u);
  EXPECT_TRUE(arr.BlockRetired(1, 1));
  // Neighbours inside the same chunk and in untouched chunks.
  EXPECT_EQ(arr.BlockWritePointer(0, 98), 0u);
  EXPECT_FALSE(arr.BlockRetired(1, 0));
  EXPECT_EQ(arr.BlockWritePointer(1, 2), 0u);
  EXPECT_EQ(arr.BlockWritePointer(0, 63), 0u);
  EXPECT_EQ(arr.BlockPeCycles(1, 99), 0u);
  EXPECT_EQ(arr.AllocatedBlockChunks(), 1u);
  // The first write to a block in another chunk allocates that chunk.
  arr.DebugProgramRange(2, 0, 4);
  EXPECT_EQ(arr.BlockWritePointer(2, 0), 4u);
  EXPECT_EQ(arr.AllocatedBlockChunks(), 2u);
}

TEST(FlashArrayDeathTest, NonSequentialProgramAborts) {
  EXPECT_DEATH(
      {
        sim::Simulator s;
        FlashArray arr(s, SmallGeo(), Timing{});
        auto body = [&]() -> sim::Task<> {
          co_await arr.ProgramPage({0, 0, 3});  // block is empty; wp = 0
        };
        auto task = body();
        s.Run();
      },
      "non-sequential program");
}

TEST(FlashArrayDeathTest, ReadingUnprogrammedPageAborts) {
  EXPECT_DEATH(
      {
        sim::Simulator s;
        FlashArray arr(s, SmallGeo(), Timing{});
        auto body = [&]() -> sim::Task<> {
          co_await arr.ReadPage({0, 0, 0}, 4096);
        };
        auto task = body();
        s.Run();
      },
      "unprogrammed");
}

TEST(FlashArray, AggregateStreamApproachesPeakBandwidth) {
  sim::Simulator s;
  Geometry g = SmallGeo();
  Timing t;
  FlashArray arr(s, g, t);
  // Stream every page of every block on every die.
  auto stream = [&](std::uint32_t die) -> sim::Task<> {
    for (std::uint32_t b = 0; b < g.blocks_per_die; ++b) {
      for (std::uint32_t p = 0; p < g.pages_per_block; ++p) {
        co_await arr.ProgramPage({die, b, p});
      }
    }
  };
  for (std::uint32_t d = 0; d < g.total_dies(); ++d) sim::Spawn(stream(d));
  s.Run();
  double bytes = static_cast<double>(arr.counters().bytes_programmed);
  double bw = bytes / sim::ToSeconds(s.now());
  EXPECT_GT(bw, 0.95 * arr.PeakProgramBandwidth());
}

// ---- fault injection (src/fault) ------------------------------------

TEST(FlashArrayFaults, CorrectableReadPaysRetryLatency) {
  sim::Simulator s;
  Timing t;
  FlashArray arr(s, SmallGeo(), t);
  fault::FaultSpec spec;
  spec.enabled = true;
  spec.read_correctable_rate = 1.0;
  spec.max_read_retries = 1;  // exactly one voltage step per read
  spec.read_retry_penalty = sim::Microseconds(25);
  fault::FaultPlan plan{spec};
  arr.AttachFaultPlan(&plan);
  sim::Time read_time = 0;
  MediaStatus st = MediaStatus::kProgramFail;
  auto body = [&]() -> sim::Task<> {
    co_await arr.ProgramPage({0, 0, 0});
    sim::Time start = s.now();
    st = co_await arr.ReadPage({0, 0, 0}, 16 * 1024);
    read_time = s.now() - start;
  };
  auto task = body();
  s.Run();
  // The read succeeds but the die was busy one extra retry step.
  EXPECT_EQ(st, MediaStatus::kOk);
  EXPECT_EQ(read_time,
            t.read_page + sim::Microseconds(25) + t.bus_xfer_page);
  EXPECT_EQ(arr.counters().read_retries, 1u);
  EXPECT_EQ(arr.counters().read_errors, 0u);
}

TEST(FlashArrayFaults, UncorrectableReadErrorsAndTransfersNothing) {
  sim::Simulator s;
  Timing t;
  FlashArray arr(s, SmallGeo(), t);
  fault::FaultSpec spec;
  spec.enabled = true;
  spec.read_uncorrectable_rate = 1.0;
  spec.max_read_retries = 4;
  spec.read_retry_penalty = sim::Microseconds(25);
  fault::FaultPlan plan{spec};
  arr.AttachFaultPlan(&plan);
  sim::Time read_time = 0;
  MediaStatus st = MediaStatus::kOk;
  std::uint64_t bytes_before = 0;
  auto body = [&]() -> sim::Task<> {
    co_await arr.ProgramPage({0, 0, 0});
    bytes_before = arr.counters().bytes_read;
    sim::Time start = s.now();
    st = co_await arr.ReadPage({0, 0, 0}, 16 * 1024);
    read_time = s.now() - start;
  };
  auto task = body();
  s.Run();
  EXPECT_EQ(st, MediaStatus::kReadError);
  // The die stepped through the whole retry budget, then gave up: no
  // channel transfer happens for a failed read.
  EXPECT_EQ(read_time, t.read_page + 4 * sim::Microseconds(25));
  EXPECT_EQ(arr.counters().read_errors, 1u);
  EXPECT_EQ(arr.counters().bytes_read, bytes_before);
}

TEST(FlashArrayFaults, ScheduledProgramFailureRetiresTheBlock) {
  sim::Simulator s;
  FlashArray arr(s, SmallGeo(), Timing{});
  fault::FaultSpec spec;
  spec.enabled = true;
  spec.scheduled.push_back({.at = 0,
                            .kind = fault::FaultKind::kProgramFail,
                            .die = 0,
                            .block = 0});
  fault::FaultPlan plan{spec};
  arr.AttachFaultPlan(&plan);
  std::vector<MediaStatus> results;
  auto body = [&]() -> sim::Task<> {
    results.push_back(co_await arr.ProgramPage({0, 0, 0}));  // fails
    // The failed program still consumed the page slot.
    EXPECT_EQ(arr.BlockWritePointer(0, 0), 1u);
    EXPECT_TRUE(arr.MarkBlockRetired(0, 0));
    results.push_back(co_await arr.ProgramPage({0, 0, 1}));  // fail-fast
    results.push_back(co_await arr.ProgramPage({0, 1, 0}));  // other block ok
  };
  auto task = body();
  s.Run();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0], MediaStatus::kProgramFail);
  EXPECT_EQ(results[1], MediaStatus::kProgramFail);
  EXPECT_EQ(results[2], MediaStatus::kOk);
  EXPECT_EQ(arr.counters().program_failures, 2u);
  EXPECT_EQ(arr.counters().blocks_retired, 1u);
}

TEST(FlashArrayFaults, RetiredBlockStaysReadableAndIsNeverRecycled) {
  sim::Simulator s;
  FlashArray arr(s, SmallGeo(), Timing{});
  MediaStatus read_st = MediaStatus::kProgramFail;
  auto body = [&]() -> sim::Task<> {
    co_await arr.ProgramPage({0, 0, 0});
    EXPECT_TRUE(arr.MarkBlockRetired(0, 0));
    // Retiring twice charges spare accounting only once.
    EXPECT_FALSE(arr.MarkBlockRetired(0, 0));
    // Data programmed before retirement is still readable.
    read_st = co_await arr.ReadPage({0, 0, 0}, 4096);
  };
  auto task = body();
  s.Run();
  EXPECT_EQ(read_st, MediaStatus::kOk);
  EXPECT_TRUE(arr.BlockRetired(0, 0));
  EXPECT_EQ(arr.counters().blocks_retired, 1u);
  // The deferred-erase recycling path refuses retired blocks.
  const std::uint32_t pe_before = arr.BlockPeCycles(0, 0);
  arr.DeferredEraseBlock(0, 0);
  EXPECT_EQ(arr.BlockPeCycles(0, 0), pe_before);
  EXPECT_EQ(arr.BlockWritePointer(0, 0), 1u);  // wp not reset
}

TEST(FlashArrayFaults, DetachedPlanRestoresCleanOperation) {
  sim::Simulator s;
  FlashArray arr(s, SmallGeo(), Timing{});
  fault::FaultSpec spec;
  spec.enabled = true;
  spec.read_uncorrectable_rate = 1.0;
  fault::FaultPlan plan{spec};
  arr.AttachFaultPlan(&plan);
  std::vector<MediaStatus> results;
  auto body = [&]() -> sim::Task<> {
    co_await arr.ProgramPage({0, 0, 0});
    results.push_back(co_await arr.ReadPage({0, 0, 0}, 4096));
    arr.AttachFaultPlan(nullptr);
    results.push_back(co_await arr.ReadPage({0, 0, 0}, 4096));
  };
  auto task = body();
  s.Run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0], MediaStatus::kReadError);
  EXPECT_EQ(results[1], MediaStatus::kOk);
}

}  // namespace
}  // namespace zstor::nand
