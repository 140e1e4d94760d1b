// Property-based tests: random command sequences against a host-side
// reference model of the zone state machine, parameterized over LBA
// formats and seeds. The device must agree with the model on every status
// code, write pointer, state, and resource count — and its internal
// accounting must stay consistent throughout.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/rng.h"
#include "zns_test_util.h"

namespace zstor::zns {
namespace {

using nvme::Status;
using zstor::zns::testing::Harness;
using zstor::zns::testing::QuietTiny;

/// Host-side reference model: zone states per the ZNS spec, mirrored
/// independently of the device implementation.
class ReferenceModel {
 public:
  explicit ReferenceModel(const ZnsProfile& p, std::uint32_t lba_bytes)
      : p_(p), lba_(lba_bytes), zones_(p.num_zones) {}

  struct RefZone {
    ZoneState state = ZoneState::kEmpty;
    std::uint64_t wp = 0;  // bytes
    std::uint64_t seq = 0;
  };

  Status Write(std::uint32_t z, std::uint64_t off_bytes,
               std::uint64_t bytes) {
    RefZone& zn = zones_[z];
    if (off_bytes + bytes > p_.zone_cap_bytes) {
      return Status::kZoneBoundaryError;
    }
    if (zn.state == ZoneState::kFull) return Status::kZoneIsFull;
    if (off_bytes != zn.wp) return Status::kZoneInvalidWrite;
    if (Status st = EnsureOpen(z); st != Status::kSuccess) return st;
    Advance(z, bytes);
    return Status::kSuccess;
  }

  Status Append(std::uint32_t z, std::uint64_t bytes) {
    RefZone& zn = zones_[z];
    if (zn.state == ZoneState::kFull) return Status::kZoneIsFull;
    if (zn.wp + bytes > p_.zone_cap_bytes) {
      return Status::kZoneBoundaryError;
    }
    if (Status st = EnsureOpen(z); st != Status::kSuccess) return st;
    Advance(z, bytes);
    return Status::kSuccess;
  }

  Status Open(std::uint32_t z) {
    RefZone& zn = zones_[z];
    switch (zn.state) {
      case ZoneState::kExplicitlyOpened:
        return Status::kSuccess;
      case ZoneState::kImplicitlyOpened:
        zn.state = ZoneState::kExplicitlyOpened;
        return Status::kSuccess;
      case ZoneState::kEmpty:
        if (ActiveCount() >= p_.max_active_zones) {
          return Status::kTooManyActiveZones;
        }
        [[fallthrough]];
      case ZoneState::kClosed:
        if (!MakeOpenRoom()) return Status::kTooManyOpenZones;
        zn.state = ZoneState::kExplicitlyOpened;
        zn.seq = ++seq_;
        return Status::kSuccess;
      case ZoneState::kFull:
        return Status::kZoneIsFull;
      default:
        return Status::kZoneInvalidStateTransition;
    }
  }

  Status Close(std::uint32_t z) {
    RefZone& zn = zones_[z];
    if (zn.state == ZoneState::kClosed) return Status::kSuccess;
    if (!IsOpen(zn.state)) return Status::kZoneInvalidStateTransition;
    zn.state = zn.wp == 0 ? ZoneState::kEmpty : ZoneState::kClosed;
    return Status::kSuccess;
  }

  Status Finish(std::uint32_t z) {
    RefZone& zn = zones_[z];
    switch (zn.state) {
      case ZoneState::kEmpty: return Status::kZoneIsEmpty;
      case ZoneState::kFull: return Status::kZoneIsFull;
      case ZoneState::kImplicitlyOpened:
      case ZoneState::kExplicitlyOpened:
      case ZoneState::kClosed:
        zn.state = ZoneState::kFull;
        zn.wp = p_.zone_cap_bytes;
        return Status::kSuccess;
      default:
        return Status::kZoneInvalidStateTransition;
    }
  }

  Status Reset(std::uint32_t z) {
    zones_[z] = RefZone{};
    return Status::kSuccess;
  }

  std::uint32_t OpenCount() const {
    std::uint32_t n = 0;
    for (const auto& z : zones_) n += IsOpen(z.state) ? 1 : 0;
    return n;
  }
  std::uint32_t ActiveCount() const {
    std::uint32_t n = 0;
    for (const auto& z : zones_) n += IsActive(z.state) ? 1 : 0;
    return n;
  }
  const RefZone& zone(std::uint32_t z) const { return zones_[z]; }

 private:
  Status EnsureOpen(std::uint32_t z) {
    RefZone& zn = zones_[z];
    if (IsOpen(zn.state)) return Status::kSuccess;
    if (zn.state == ZoneState::kEmpty &&
        ActiveCount() >= p_.max_active_zones) {
      return Status::kTooManyActiveZones;
    }
    if (!MakeOpenRoom()) return Status::kTooManyOpenZones;
    zn.state = ZoneState::kImplicitlyOpened;
    zn.seq = ++seq_;
    return Status::kSuccess;
  }

  bool MakeOpenRoom() {
    if (OpenCount() < p_.max_open_zones) return true;
    // Evict the LRU implicitly-opened zone, as the device does.
    RefZone* victim = nullptr;
    for (auto& z : zones_) {
      if (z.state == ZoneState::kImplicitlyOpened &&
          (victim == nullptr || z.seq < victim->seq)) {
        victim = &z;
      }
    }
    if (victim == nullptr) return false;
    victim->state = ZoneState::kClosed;
    return true;
  }

  void Advance(std::uint32_t z, std::uint64_t bytes) {
    RefZone& zn = zones_[z];
    zn.wp += bytes;
    if (zn.wp == p_.zone_cap_bytes) zn.state = ZoneState::kFull;
  }

  ZnsProfile p_;
  std::uint32_t lba_;
  std::vector<RefZone> zones_;
  std::uint64_t seq_ = 0;
};

struct Param {
  std::uint32_t lba_bytes;
  std::uint64_t seed;
};

class ZnsPropertyTest : public ::testing::TestWithParam<Param> {};

TEST_P(ZnsPropertyTest, DeviceAgreesWithReferenceModelUnderRandomOps) {
  const Param param = GetParam();
  Harness h(QuietTiny(), param.lba_bytes);
  ReferenceModel ref(h.dev.profile(), param.lba_bytes);
  sim::Rng rng(param.seed);
  const std::uint32_t zones = h.dev.info().num_zones;
  const std::uint64_t cap_lbas = h.dev.info().zone_cap_lbas;

  for (int step = 0; step < 800; ++step) {
    auto z = static_cast<std::uint32_t>(rng.UniformU64(zones));
    std::uint64_t kind = rng.UniformU64(100);
    Status dev_st;
    Status ref_st;
    if (kind < 35) {  // write at a mostly-valid offset
      std::uint64_t off = rng.UniformU64(4) == 0
                              ? rng.UniformU64(cap_lbas)
                              : h.dev.ZoneWritePointerLba(z) -
                                    h.dev.ZoneStartLba(z);
      auto nlb = static_cast<std::uint32_t>(1 + rng.UniformU64(16));
      if (off + nlb > cap_lbas) continue;  // out-of-cap covered elsewhere
      dev_st = h.Write(z, off, nlb).status;
      ref_st = ref.Write(z, off * param.lba_bytes,
                         static_cast<std::uint64_t>(nlb) * param.lba_bytes);
    } else if (kind < 60) {  // append
      auto nlb = static_cast<std::uint32_t>(1 + rng.UniformU64(16));
      dev_st = h.Append(z, nlb).status;
      ref_st = ref.Append(z, static_cast<std::uint64_t>(nlb) * param.lba_bytes);
    } else if (kind < 70) {  // read (never changes state)
      std::uint64_t off = rng.UniformU64(cap_lbas);
      auto nlb = static_cast<std::uint32_t>(
          1 + rng.UniformU64(std::min<std::uint64_t>(16, cap_lbas - off)));
      EXPECT_TRUE(h.Read(z, off, nlb).ok());
      continue;
    } else if (kind < 78) {
      dev_st = h.Open(z).status;
      ref_st = ref.Open(z);
    } else if (kind < 86) {
      dev_st = h.Close(z).status;
      ref_st = ref.Close(z);
    } else if (kind < 93) {
      dev_st = h.Finish(z).status;
      ref_st = ref.Finish(z);
    } else {
      dev_st = h.Reset(z).status;
      ref_st = ref.Reset(z);
    }

    ASSERT_EQ(dev_st, ref_st)
        << "step " << step << " zone " << z << " kind " << kind;

    // Full-device agreement and internal consistency after every step.
    ASSERT_EQ(h.dev.open_zone_count(), ref.OpenCount());
    ASSERT_EQ(h.dev.active_zone_count(), ref.ActiveCount());
    ASSERT_LE(h.dev.open_zone_count(), h.dev.profile().max_open_zones);
    ASSERT_LE(h.dev.active_zone_count(), h.dev.profile().max_active_zones);
    for (std::uint32_t i = 0; i < zones; ++i) {
      ASSERT_EQ(h.dev.GetZoneState(i), ref.zone(i).state) << "zone " << i;
      ASSERT_EQ(h.dev.ZoneWrittenBytes(i), ref.zone(i).wp) << "zone " << i;
    }
    h.dev.AuditZones();
  }
}

INSTANTIATE_TEST_SUITE_P(
    FormatsAndSeeds, ZnsPropertyTest,
    ::testing::Values(Param{4096, 1}, Param{4096, 2}, Param{4096, 3},
                      Param{512, 1}, Param{512, 2}, Param{512, 7},
                      Param{4096, 0xDEADBEEF}, Param{512, 0xDEADBEEF}),
    [](const ::testing::TestParamInfo<Param>& p) {
      return "lba" + std::to_string(p.param.lba_bytes) + "_seed" +
             std::to_string(p.param.seed);
    });

// Degradation property: under random operations interleaved with random
// zone degradations, degraded zones must never hold open/active slots,
// must refuse all mutation, and the device's slot accounting must equal a
// recount from the per-zone states after every step.
TEST(ZnsDegradationProperty, DegradedZonesHoldNoSlotsAndStayDegraded) {
  Harness h(QuietTiny());
  sim::Rng rng(0xD15EA5E);
  const std::uint32_t zones = h.dev.info().num_zones;

  for (int step = 0; step < 600; ++step) {
    auto z = static_cast<std::uint32_t>(rng.UniformU64(zones));
    std::uint64_t kind = rng.UniformU64(100);
    const ZoneState before = h.dev.GetZoneState(z);
    const bool degraded =
        before == ZoneState::kReadOnly || before == ZoneState::kOffline;
    if (kind < 8 && !degraded) {
      h.dev.DebugSetZoneState(z, rng.UniformU64(2) == 0
                                     ? ZoneState::kReadOnly
                                     : ZoneState::kOffline);
    } else if (kind < 40) {
      Status st = h.WriteAtWp(z, 1).status;
      // Range validation runs before the state check, so a degraded zone
      // that froze at full capacity reports the boundary error instead.
      if (before == ZoneState::kReadOnly) {
        ASSERT_TRUE(st == Status::kZoneIsReadOnly ||
                    st == Status::kZoneBoundaryError)
            << ToString(st);
      } else if (before == ZoneState::kOffline) {
        ASSERT_TRUE(st == Status::kZoneIsOffline ||
                    st == Status::kZoneBoundaryError)
            << ToString(st);
      }
    } else if (kind < 65) {
      Status st = h.Append(z, 1).status;
      if (before == ZoneState::kReadOnly) {
        ASSERT_TRUE(st == Status::kZoneIsReadOnly ||
                    st == Status::kZoneBoundaryError)
            << ToString(st);
      } else if (before == ZoneState::kOffline) {
        ASSERT_TRUE(st == Status::kZoneIsOffline ||
                    st == Status::kZoneBoundaryError)
            << ToString(st);
      }
    } else if (kind < 75) {
      Status st = h.Read(z, 0, 1).status;
      if (before == ZoneState::kOffline) {
        ASSERT_EQ(st, Status::kZoneIsOffline);
      } else {
        ASSERT_EQ(st, Status::kSuccess);
      }
    } else {
      auto action = static_cast<nvme::ZoneAction>(
          1 + rng.UniformU64(4));  // open/close/finish/reset
      Status st = h.Mgmt(z, action).status;
      if (degraded) {
        ASSERT_EQ(st, Status::kZoneInvalidStateTransition)
            << "action " << static_cast<int>(action) << " on degraded zone";
      }
    }

    // Degraded zones never recover without device service.
    if (degraded) {
      ASSERT_EQ(h.dev.GetZoneState(z), before) << "step " << step;
    }

    // Slot accounting always equals a recount over zone states, and
    // degraded zones contribute to neither pool.
    std::uint32_t open = 0;
    std::uint32_t active = 0;
    for (std::uint32_t i = 0; i < zones; ++i) {
      ZoneState st = h.dev.GetZoneState(i);
      open += IsOpen(st) ? 1 : 0;
      active += IsActive(st) ? 1 : 0;
      ASSERT_FALSE(IsOpen(st) && (st == ZoneState::kReadOnly ||
                                  st == ZoneState::kOffline));
    }
    ASSERT_EQ(h.dev.open_zone_count(), open) << "step " << step;
    ASSERT_EQ(h.dev.active_zone_count(), active) << "step " << step;
    h.dev.AuditZones();
  }
}

// Conservation property: all bytes acknowledged as written are readable
// and accounted; counters match.
TEST(ZnsConservation, AcknowledgedBytesMatchWritePointers) {
  Harness h(QuietTiny());
  sim::Rng rng(99);
  std::uint64_t acked = 0;
  for (int i = 0; i < 300; ++i) {
    auto z = static_cast<std::uint32_t>(rng.UniformU64(4));
    auto nlb = static_cast<std::uint32_t>(1 + rng.UniformU64(8));
    auto c = h.Append(z, nlb);
    if (c.ok()) acked += static_cast<std::uint64_t>(nlb) * 4096;
  }
  std::uint64_t wp_sum = 0;
  for (std::uint32_t z = 0; z < 4; ++z) wp_sum += h.dev.ZoneWrittenBytes(z);
  EXPECT_EQ(acked, wp_sum);
  EXPECT_EQ(h.dev.counters().bytes_written, acked);
}

// Concurrent appends to one zone: every returned LBA range is disjoint,
// and together they tile the zone exactly (the paper's §II-B safety
// argument for reordering appends).
TEST(ZnsConservation, ConcurrentAppendsGetDisjointTilingLbas) {
  Harness h(QuietTiny());
  std::vector<std::pair<nvme::Lba, std::uint32_t>> got;
  auto issue = [&](std::uint32_t nlb) -> sim::Task<> {
    auto c = co_await h.dev.Execute({.opcode = nvme::Opcode::kAppend,
                                     .slba = h.dev.ZoneStartLba(0),
                                     .nlb = nlb});
    ZSTOR_CHECK(c.ok());
    got.emplace_back(c.result_lba, nlb);
  };
  std::uint32_t total = 0;
  sim::Rng rng(5);
  std::vector<std::uint32_t> sizes;
  for (int i = 0; i < 64; ++i) {
    auto nlb = static_cast<std::uint32_t>(1 + rng.UniformU64(8));
    sizes.push_back(nlb);
    total += nlb;
  }
  for (auto nlb : sizes) sim::Spawn(issue(nlb));
  h.sim.Run();
  ASSERT_EQ(got.size(), sizes.size());
  std::sort(got.begin(), got.end());
  nvme::Lba expect = h.dev.ZoneStartLba(0);
  for (auto [lba, nlb] : got) {
    EXPECT_EQ(lba, expect);  // disjoint and gap-free
    expect = lba + nlb;
  }
  EXPECT_EQ(expect - h.dev.ZoneStartLba(0), total);
}

// NAND-level conservation: after draining, programmed bytes cover all full
// pages of acknowledged data, and resets erase exactly the written blocks.
TEST(ZnsConservation, NandProgramsMatchAcknowledgedData) {
  Harness h(QuietTiny());
  const std::uint64_t page = h.dev.profile().nand_geometry.page_bytes;
  // Write 40 x 16 KiB = exactly 40 pages.
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(h.WriteAtWp(0, static_cast<std::uint32_t>(page / 4096)).ok());
  }
  h.sim.Run();  // drain
  EXPECT_EQ(h.dev.flash()->counters().page_programs, 40u);
  EXPECT_EQ(h.dev.flash()->counters().bytes_programmed, 40 * page);
}

}  // namespace
}  // namespace zstor::zns
