// Conventional-FTL power-loss crash/recovery tests (DESIGN.md §11): the
// mapping journal's loss window (buffered-write rollback + unsynced-tail
// revert), flush durability, checkpoint-bounded replay, the
// sync-interval WA/recovery tradeoff, determinism, and a crash-point
// sweep against an oracle. Every recovery is followed by a mapping audit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "ftl/conv_device.h"
#include "hostif/host_stack.h"
#include "sim/rng.h"
#include "sim/task.h"

namespace zstor::ftl {
namespace {

using nvme::Opcode;
using nvme::Status;

constexpr std::uint64_t kTagA = 0x0A00;
constexpr std::uint64_t kTagB = 0x0B00;

struct Fixture {
  explicit Fixture(ConvProfile p = TinyConvProfile())
      : dev(sim, std::move(p)), stack(sim, dev) {}

  nvme::Completion Run(nvme::Command cmd) {
    nvme::Completion out;
    auto body = [&]() -> sim::Task<> {
      auto tc = co_await stack.Submit(cmd);
      out = tc.completion;
    };
    auto t = body();
    sim.Run();
    return out;
  }

  nvme::Completion Write(nvme::Lba lba, std::uint32_t nlb,
                         std::uint64_t tag) {
    return Run({.opcode = Opcode::kWrite,
                .slba = lba,
                .nlb = nlb,
                .payload_tag = tag});
  }
  nvme::Completion ReadTags(nvme::Lba lba, std::uint32_t nlb) {
    return Run({.opcode = Opcode::kRead,
                .slba = lba,
                .nlb = nlb,
                .payload_tag = 1});
  }
  void Crash() {
    auto body = [&]() -> sim::Task<> { co_await dev.CrashNow(); };
    auto t = body();
    sim.Run();
    dev.AuditMapping();
  }

  sim::Simulator sim;
  ConvDevice dev;
  hostif::HostStack stack;
};

/// One NAND page worth of mapping units (the program-batch granule).
std::uint32_t Upp(const Fixture& f) { return f.dev.profile().units_per_page(); }

TEST(ConvCrash, FlushedDataSurvivesByteExact) {
  Fixture f;
  const std::uint32_t n = 8 * Upp(f);
  ASSERT_TRUE(f.Write(0, n, kTagA).ok());
  ASSERT_TRUE(f.Run({.opcode = Opcode::kFlush}).ok());
  f.Crash();

  EXPECT_EQ(f.dev.counters().crashes, 1u);
  EXPECT_EQ(f.dev.counters().recoveries, 1u);
  EXPECT_EQ(f.dev.counters().crash_lost_units, 0u);
  EXPECT_EQ(f.dev.counters().journal_reverted_entries, 0u);
  nvme::Completion rd = f.ReadTags(0, n);
  ASSERT_TRUE(rd.ok());
  ASSERT_EQ(rd.payload_tags.size(), n);
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(rd.payload_tags[i], kTagA + i) << "LBA " << i;
  }
}

TEST(ConvCrash, UnsyncedJournalTailRevertsToNothing) {
  // A huge sync interval keeps every mapping delta volatile: the crash
  // reverts all of them, and never-flushed fresh writes are legally lost.
  ConvProfile p = TinyConvProfile();
  p.journal_sync_interval = 1 << 20;
  Fixture f(p);
  const std::uint32_t n = 4 * Upp(f);
  ASSERT_TRUE(f.Write(0, n, kTagA).ok());  // programs settle, tail unsynced
  f.Crash();

  EXPECT_EQ(f.dev.counters().journal_reverted_entries, n);
  EXPECT_EQ(f.dev.counters().recovery_replay_entries, 0u);
  nvme::Completion rd = f.ReadTags(0, n);
  ASSERT_TRUE(rd.ok());
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(rd.payload_tags[i], 0u) << "LBA " << i;  // unmapped again
  }
}

TEST(ConvCrash, UnflushedOverwriteRollsBackToTheFlushedVersion) {
  ConvProfile p = TinyConvProfile();
  p.journal_sync_interval = 1 << 20;  // keep the overwrite delta unsynced
  Fixture f(p);
  const std::uint32_t n = Upp(f);
  ASSERT_TRUE(f.Write(0, n, kTagA).ok());
  ASSERT_TRUE(f.Run({.opcode = Opcode::kFlush}).ok());  // certify version A
  ASSERT_TRUE(f.Write(0, n, kTagB).ok());  // B settles; its delta is volatile
  f.Crash();

  // The journal revert re-validated version A's physical copy.
  EXPECT_EQ(f.dev.counters().journal_reverted_entries, n);
  nvme::Completion rd = f.ReadTags(0, n);
  ASSERT_TRUE(rd.ok());
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(rd.payload_tags[i], kTagA + i) << "LBA " << i;
  }
  // The rolled-back mapping stays consistent: overwriting again works.
  ASSERT_TRUE(f.Write(0, n, kTagB).ok());
  ASSERT_TRUE(f.Run({.opcode = Opcode::kFlush}).ok());
  rd = f.ReadTags(0, n);
  ASSERT_TRUE(rd.ok());
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(rd.payload_tags[i], kTagB + i) << "LBA " << i;
  }
}

TEST(ConvCrash, BufferedWritesThatNeverProgrammedAreLost) {
  Fixture f;
  const std::uint32_t n = Upp(f);
  ASSERT_TRUE(f.Write(0, n, kTagA).ok());
  ASSERT_TRUE(f.Run({.opcode = Opcode::kFlush}).ok());
  // A sub-page overwrite sits in the write buffer (no program dispatches
  // until a full page accumulates): pure buffered state.
  const std::uint32_t half = n / 2 == 0 ? 1 : n / 2;
  ASSERT_TRUE(f.Write(0, half, kTagB).ok());
  f.Crash();

  EXPECT_EQ(f.dev.counters().crash_lost_units, half);
  nvme::Completion rd = f.ReadTags(0, n);
  ASSERT_TRUE(rd.ok());
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(rd.payload_tags[i], kTagA + i)
        << "LBA " << i << " must hold the flushed version";
  }
}

TEST(ConvCrash, CheckpointBoundsTheReplayTail) {
  ConvProfile p = TinyConvProfile();
  p.journal_sync_interval = 2;
  p.journal_checkpoint_syncs = 4;  // checkpoint every 8 entries
  Fixture f(p);
  const std::uint32_t upp = Upp(f);
  ASSERT_EQ(upp, 4u);  // the arithmetic below assumes 16 KiB pages
  // 20 settled units -> 10 syncs -> checkpoints after entries 8 and 16,
  // leaving a 4-entry replay tail.
  for (std::uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(f.Write(i * upp, upp, kTagA + i * upp).ok());
  }
  f.Crash();

  EXPECT_EQ(f.dev.counters().checkpoints, 2u);
  EXPECT_EQ(f.dev.counters().recovery_replay_entries, 4u);
  EXPECT_EQ(f.dev.counters().journal_reverted_entries, 0u);
  // Replay cost is charged per entry on top of the boot cost.
  EXPECT_EQ(f.dev.last_recovery_ns(),
            f.dev.profile().recovery_boot_cost +
                4 * f.dev.profile().recovery_per_entry);
  // Synced-and-replayed mappings survive.
  nvme::Completion rd = f.ReadTags(0, 5 * upp);
  ASSERT_TRUE(rd.ok());
  for (std::uint32_t i = 0; i < 5 * upp; ++i) {
    EXPECT_EQ(rd.payload_tags[i], kTagA + i) << "LBA " << i;
  }
}

TEST(ConvCrash, SyncIntervalTradesWriteAmpForLossWindow) {
  auto run = [](std::uint32_t interval, ConvCounters* out) {
    ConvProfile p = TinyConvProfile();
    p.journal_sync_interval = interval;
    Fixture f(p);
    const std::uint32_t upp = f.dev.profile().units_per_page();
    for (std::uint32_t i = 0; i < 32; ++i) {
      ASSERT_TRUE(f.Write(i * upp, upp, kTagA).ok());
    }
    f.Crash();
    *out = f.dev.counters();
  };
  ConvCounters tight{}, loose{};
  run(8, &tight);
  run(1 << 20, &loose);
  // Tight syncing: more journal programs (write amplification), but the
  // crash reverts almost nothing. Loose syncing: the mirror image.
  EXPECT_GT(tight.journal_units_written, loose.journal_units_written);
  EXPECT_LT(tight.journal_reverted_entries, loose.journal_reverted_entries);
  EXPECT_EQ(loose.journal_reverted_entries, 32u * 4);
  EXPECT_GT(tight.recovery_replay_entries, loose.recovery_replay_entries);
}

TEST(ConvCrash, CommandsDuringTheOutageFailWithDeviceReset) {
  Fixture f;
  nvme::Completion during, after;
  auto body = [&]() -> sim::Task<> {
    auto crash = [&]() -> sim::Task<> { co_await f.dev.CrashNow(); };
    sim::Spawn(crash());
    co_await f.sim.Delay(sim::Milliseconds(1));  // inside the boot window
    during = co_await f.dev.Execute(
        {.opcode = Opcode::kWrite, .slba = 0, .nlb = 1});
    co_await f.sim.Delay(f.dev.profile().recovery_boot_cost +
                         sim::Milliseconds(5));
    after = co_await f.dev.Execute(
        {.opcode = Opcode::kWrite, .slba = 0, .nlb = 1});
  };
  auto t = body();
  f.sim.Run();
  f.dev.AuditMapping();

  EXPECT_EQ(during.status, Status::kDeviceReset);
  EXPECT_TRUE(after.ok());
  EXPECT_GE(f.dev.counters().reset_drops, 1u);
}

TEST(ConvCrash, CrashRecoveryIsDeterministic) {
  auto run = [](ConvCounters* out) {
    Fixture f;
    const std::uint32_t upp = f.dev.profile().units_per_page();
    auto body = [&]() -> sim::Task<> {
      for (std::uint32_t i = 0; i < 16; ++i) {
        nvme::Completion c = co_await f.dev.Execute(
            {.opcode = Opcode::kWrite,
             .slba = i * upp,
             .nlb = upp,
             .payload_tag = kTagA});
        ZSTOR_CHECK(c.ok());
      }
      // Crash with programs still in flight (acks are write-back).
      co_await f.dev.CrashNow();
    };
    auto t = body();
    f.sim.Run();
    f.dev.AuditMapping();
    *out = f.dev.counters();
  };
  ConvCounters a{}, b{};
  run(&a);
  run(&b);
  EXPECT_EQ(a.crash_lost_units, b.crash_lost_units);
  EXPECT_EQ(a.journal_reverted_entries, b.journal_reverted_entries);
  EXPECT_EQ(a.recovery_replay_entries, b.recovery_replay_entries);
  EXPECT_EQ(a.recovery_ns_total, b.recovery_ns_total);
  EXPECT_EQ(a.reset_drops, b.reset_drops);
}

TEST(ConvCrash, PowerLossWithHostPagesQueuedAtDies) {
  // A write buffer far larger than the dies drain: version B's pages
  // pile up at the dies as queued program records when power fails.
  ConvProfile p = TinyConvProfile();
  p.write_buffer_bytes = 8ull << 20;  // 2048 units, 512 pages
  Fixture f(p);
  const std::uint32_t upp = Upp(f);
  const std::uint32_t n = 384 * upp;
  for (std::uint32_t lba = 0; lba < n; lba += 16 * upp) {
    ASSERT_TRUE(f.Write(lba, 16 * upp, kTagA + lba).ok());
  }
  ASSERT_TRUE(f.Run({.opcode = Opcode::kFlush}).ok());  // certify A

  std::size_t queued = 0;
  auto body = [&]() -> sim::Task<> {
    for (std::uint32_t lba = 0; lba < n; lba += 16 * upp) {
      auto w = co_await f.stack.Submit({.opcode = Opcode::kWrite,
                                        .slba = lba,
                                        .nlb = 16 * upp,
                                        .payload_tag = kTagB + lba});
      EXPECT_TRUE(w.completion.ok());
    }
    const std::uint32_t dies = f.dev.profile().nand_geometry.total_dies();
    for (std::uint32_t d = 0; d < dies; ++d) {
      queued += f.dev.flash().DieQueueDepth(d);
    }
    co_await f.dev.CrashNow();
  };
  auto t = body();
  f.sim.Run();
  f.dev.AuditMapping();
  ASSERT_GE(queued, 200u);

  // Every LBA holds its flushed version A or the B acknowledged since.
  nvme::Completion rd = f.ReadTags(0, n);
  ASSERT_TRUE(rd.ok());
  std::uint32_t kept_a = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t got = rd.payload_tags[i];
    EXPECT_TRUE(got == kTagA + i || got == kTagB + i)
        << "LBA " << i << " read tag " << got;
    kept_a += got == kTagA + i ? 1 : 0;
  }
  EXPECT_GT(kept_a, 0u);  // the crash did roll queued pages back
  // The stale-epoch records gave their buffer slots back.
  EXPECT_EQ(f.dev.free_buffer_units(), p.write_buffer_bytes / 4096);
  // And the device keeps working.
  ASSERT_TRUE(f.Write(0, n, kTagB).ok());
  ASSERT_TRUE(f.Run({.opcode = Opcode::kFlush}).ok());
  f.dev.AuditMapping();
  EXPECT_EQ(f.dev.free_buffer_units(), p.write_buffer_bytes / 4096);
}

// Deterministic crash-point sweep. One seeded workload of tagged
// overwrites with a flush every kFlushEvery writes runs on an aged drive
// until GC churns, and a power loss cuts it at each of a dense window of
// instants. After recovery every LBA must read back its last flushed
// tag, a tag acknowledged since that flush, or 0 — the last only while
// an unflushed overwrite was pending (GC erased the rollback copy before
// the rewrite reached flash).
struct SweepOutcome {
  sim::Time end = 0;            // virtual time the workload finished
  sim::Time first_erase = 0;    // first GC erase (0 if none)
  std::uint64_t forgotten = 0;  // flushed LBAs that read back 0
};

SweepOutcome RunCrashPoint(sim::Time crash_at) {
  constexpr std::uint32_t kWrites = 3000;
  constexpr std::uint32_t kFlushEvery = 64;
  struct Versions {
    std::uint64_t flushed = 0;          // certified by the last flush
    std::vector<std::uint64_t> since;   // acknowledged after it
    bool pending = false;               // a write issued after it
  };
  Fixture f;
  f.dev.DebugPrefill();
  const nvme::Lba cap = f.dev.info().capacity_lbas;
  std::map<nvme::Lba, Versions> oracle;
  SweepOutcome out;

  auto driver = [&]() -> sim::Task<> {
    sim::Rng rng(42);
    std::uint64_t next_tag = 1;
    for (std::uint32_t i = 0; i < kWrites; ++i) {
      const auto nlb = static_cast<std::uint32_t>(1 + rng.UniformU64(8));
      const nvme::Lba lba = rng.UniformU64(cap - nlb + 1);
      const std::uint64_t tag = next_tag;
      next_tag += nlb;
      for (std::uint32_t k = 0; k < nlb; ++k) oracle[lba + k].pending = true;
      auto w = co_await f.stack.Submit({.opcode = Opcode::kWrite,
                                        .slba = lba,
                                        .nlb = nlb,
                                        .payload_tag = tag});
      if (!w.completion.ok()) co_return;  // power is out
      for (std::uint32_t k = 0; k < nlb; ++k) {
        oracle[lba + k].since.push_back(tag + k);
      }
      if (out.first_erase == 0 && f.dev.counters().gc_blocks_erased > 0) {
        out.first_erase = f.sim.now();
      }
      if ((i + 1) % kFlushEvery != 0) continue;
      auto fl = co_await f.stack.Submit({.opcode = Opcode::kFlush});
      if (!fl.completion.ok()) co_return;
      for (auto& [l, v] : oracle) {
        if (!v.since.empty()) v.flushed = v.since.back();
        v.since.clear();
        v.pending = false;
      }
    }
    out.end = f.sim.now();
  };
  auto crash = [&]() -> sim::Task<> {
    co_await f.sim.Delay(crash_at);
    co_await f.dev.CrashNow();
  };
  auto d = driver();
  auto c = crash();
  f.sim.Run();
  f.dev.AuditMapping();

  constexpr std::uint32_t kChunk = 64;
  for (nvme::Lba lba = 0; lba < cap; lba += kChunk) {
    const auto n = static_cast<std::uint32_t>(std::min<nvme::Lba>(kChunk,
                                                                  cap - lba));
    nvme::Completion rd = f.ReadTags(lba, n);
    EXPECT_TRUE(rd.ok());
    if (!rd.ok()) break;
    for (std::uint32_t k = 0; k < n; ++k) {
      const std::uint64_t got = rd.payload_tags[k];
      const auto it = oracle.find(lba + k);
      const Versions v = it == oracle.end() ? Versions{} : it->second;
      const bool allowed =
          got == v.flushed ||
          std::find(v.since.begin(), v.since.end(), got) != v.since.end() ||
          (got == 0 && v.pending);
      EXPECT_TRUE(allowed) << "crash at " << crash_at << " ns: LBA "
                           << lba + k << " read tag " << got
                           << ", last flushed " << v.flushed;
      if (got == 0 && v.flushed != 0) ++out.forgotten;
    }
  }
  return out;
}

TEST(ConvCrash, CrashPointSweepKeepsEveryFlushedVersion) {
  // A crash past the end is a plain run: it finds the GC window.
  const SweepOutcome ref = RunCrashPoint(sim::Seconds(3600));
  ASSERT_GT(ref.first_erase, 0) << "workload never reached GC";
  ASSERT_GT(ref.end, ref.first_erase);
  constexpr int kPoints = 160;
  std::uint64_t forgotten = 0;
  for (int i = 0; i < kPoints; ++i) {
    const sim::Time at =
        ref.first_erase + (ref.end - ref.first_erase) * i / kPoints;
    forgotten += RunCrashPoint(at).forgotten;
    if (HasFailure()) break;
  }
  // The sweep must reach the forget path at least once: a flushed unit
  // lost because GC erased its rollback copy under a buffered rewrite.
  EXPECT_GT(forgotten, 0u);
}

}  // namespace
}  // namespace zstor::ftl
