// Parameterized cost-model sweeps: monotonicity and consistency
// properties that must hold across the whole (request size x LBA format x
// op) space, not just at the calibrated points.
#include <gtest/gtest.h>

#include "zns_test_util.h"

namespace zstor::zns {
namespace {

using nvme::Opcode;
using zstor::zns::testing::Harness;
using zstor::zns::testing::QuietZn540;

struct SweepParam {
  std::uint32_t lba_bytes;
  nvme::Opcode op;
};

class CostSweepTest : public ::testing::TestWithParam<SweepParam> {};

// Device-internal latency of the op at a given request size (second op,
// past the implicit-open penalty).
sim::Time LatAt(Harness& h, Opcode op, std::uint32_t nlb,
                std::uint32_t zone) {
  sim::Time lat = 0;
  if (op == Opcode::kWrite) {
    EXPECT_TRUE(h.WriteAtWp(zone, nlb, &lat).ok());
  } else {
    EXPECT_TRUE(h.Append(zone, nlb, &lat).ok());
  }
  return lat;
}

TEST_P(CostSweepTest, LatencyIsMonotonicInRequestSize) {
  const SweepParam p = GetParam();
  Harness h(QuietZn540(), p.lba_bytes);
  // Open the zone once so the penalty does not perturb the sweep.
  ASSERT_TRUE(h.Open(0).ok());
  std::uint32_t unit = 4096 / p.lba_bytes;  // one mapping unit in LBAs
  sim::Time prev = 0;
  for (std::uint32_t units = 1; units <= 64; units *= 2) {
    sim::Time lat = LatAt(h, p.op, units * unit, 0);
    EXPECT_GE(lat + sim::Microseconds(1), prev)
        << "latency regressed at " << units * 4 << " KiB";
    prev = lat;
  }
}

TEST_P(CostSweepTest, SmallFormatNeverFaster) {
  const SweepParam p = GetParam();
  if (p.lba_bytes == 512) GTEST_SKIP() << "baseline case";
  Harness h4(QuietZn540(), 4096);
  Harness h512(QuietZn540(), 512);
  ASSERT_TRUE(h4.Open(0).ok());
  ASSERT_TRUE(h512.Open(0).ok());
  for (std::uint32_t kib4 : {1u, 2u, 4u, 16u}) {
    sim::Time l4 = LatAt(h4, p.op, kib4, 0);
    sim::Time l512 = LatAt(h512, p.op, kib4 * 8, 0);
    EXPECT_GE(l512, l4) << "512 B format faster at " << 4 * kib4 << " KiB";
  }
}

INSTANTIATE_TEST_SUITE_P(
    OpsAndFormats, CostSweepTest,
    ::testing::Values(SweepParam{4096, Opcode::kWrite},
                      SweepParam{4096, Opcode::kAppend},
                      SweepParam{512, Opcode::kWrite},
                      SweepParam{512, Opcode::kAppend}),
    [](const ::testing::TestParamInfo<SweepParam>& p) {
      return std::string(p.param.op == Opcode::kWrite ? "write" : "append") +
             "_lba" + std::to_string(p.param.lba_bytes);
    });

TEST(CostSweep, ResetCostIsMonotonicInOccupancyEverywhere) {
  Harness h(QuietZn540());
  sim::Time prev = 0;
  int zone = 0;
  for (double occ = 0.05; occ <= 1.0; occ += 0.05) {
    auto bytes = static_cast<std::uint64_t>(
        occ * static_cast<double>(h.dev.profile().zone_cap_bytes));
    bytes -= bytes % 4096;
    h.dev.DebugFillZone(static_cast<std::uint32_t>(zone), bytes);
    h.dev.AuditZones();  // fills that end mid-page included
    sim::Time lat = 0;
    ASSERT_TRUE(h.Reset(static_cast<std::uint32_t>(zone), &lat).ok());
    h.dev.AuditZones();
    EXPECT_GE(lat, prev) << "reset cost regressed at occupancy " << occ;
    prev = lat;
    ++zone;
  }
}

TEST(CostSweep, FinishCostIsAntitoneInOccupancyEverywhere) {
  Harness h(QuietZn540());
  sim::Time prev = sim::Seconds(10);
  int zone = 0;
  for (double occ = 0.05; occ <= 0.95; occ += 0.05) {
    auto bytes = static_cast<std::uint64_t>(
        occ * static_cast<double>(h.dev.profile().zone_cap_bytes));
    bytes -= bytes % 4096;
    h.dev.DebugFillZone(static_cast<std::uint32_t>(zone), bytes);
    sim::Time lat = 0;
    ASSERT_TRUE(h.Finish(static_cast<std::uint32_t>(zone), &lat).ok());
    h.dev.AuditZones();
    EXPECT_LE(lat, prev) << "finish cost grew at occupancy " << occ;
    prev = lat;
    ASSERT_TRUE(h.Reset(static_cast<std::uint32_t>(zone)).ok());
    ++zone;
  }
}

TEST(CostSweep, AppendSaturationIsInverseOfFcpCost) {
  // Halving/doubling the FCP per-append cost doubles/halves the append
  // saturation plateau — the model's central proportionality (the read
  // and write ceilings are asserted against paper values in the
  // calibration suite; reads are additionally die-bound at low QD).
  auto plateau_kiops = [](double fcp_us) {
    ZnsProfile p = QuietZn540();
    p.fcp.append = sim::Microseconds(fcp_us);
    sim::Simulator s;
    zns::ZnsDevice dev(s, p);
    int done = 0;
    auto stream = [&](std::uint32_t id) -> sim::Task<> {
      for (int k = 0; k < 200; ++k) {
        auto c = co_await dev.Execute({.opcode = Opcode::kAppend,
                                       .slba = dev.ZoneStartLba(id % 4),
                                       .nlb = 1});
        ZSTOR_CHECK(c.ok());
        ++done;
      }
    };
    for (std::uint32_t w = 0; w < 32; ++w) sim::Spawn(stream(w));
    s.Run();
    return done / sim::ToSeconds(s.now()) / 1000.0;
  };
  double base = plateau_kiops(7.58);
  double halved = plateau_kiops(3.79);
  double doubled = plateau_kiops(15.16);
  EXPECT_NEAR(base, 131.9, 7.0);
  EXPECT_NEAR(halved / base, 2.0, 0.1);
  EXPECT_NEAR(doubled / base, 0.5, 0.03);
}

}  // namespace
}  // namespace zstor::zns
