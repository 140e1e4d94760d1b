// Full-stack integration smoke tests, parameterized over every host
// stack x device combination: a small mixed workload must complete
// error-free with sane latencies, and stack overheads must preserve the
// paper's ordering (SPDK < io_uring < io_uring+mq-deadline < psync).
#include <gtest/gtest.h>

#include <memory>

#include "ftl/conv_device.h"
#include "hostif/stack_factory.h"
#include "workload/runner.h"
#include "zns/zns_device.h"

namespace zstor {
namespace {

using hostif::StackChoice;
enum class DeviceId { kZns, kConv };

struct Param {
  StackChoice stack;
  DeviceId device;
};

std::string Name(const ::testing::TestParamInfo<Param>& info) {
  std::string s;
  switch (info.param.stack) {
    case StackChoice::kSpdk: s = "spdk"; break;
    case StackChoice::kKernelNone: s = "kernel"; break;
    case StackChoice::kKernelMq: s = "mq"; break;
    case StackChoice::kPsync: s = "psync"; break;
  }
  s += info.param.device == DeviceId::kZns ? "_zns" : "_conv";
  return s;
}

class FullStackTest : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    if (GetParam().device == DeviceId::kZns) {
      zns::ZnsProfile p = zns::TinyProfile();
      p.io_sigma = 0;
      auto d = std::make_unique<zns::ZnsDevice>(sim_, p);
      zns_dev_ = d.get();
      dev_ = std::move(d);
    } else {
      auto d = std::make_unique<ftl::ConvDevice>(sim_,
                                                 ftl::TinyConvProfile());
      d->DebugPrefill();
      dev_ = std::move(d);
    }
    stack_ = hostif::MakeStack(GetParam().stack, sim_, *dev_).stack;
  }

  sim::Simulator sim_;
  std::unique_ptr<nvme::Controller> dev_;
  zns::ZnsDevice* zns_dev_ = nullptr;
  std::unique_ptr<hostif::Stack> stack_;
};

TEST_P(FullStackTest, WriteWorkloadRunsClean) {
  workload::JobSpec spec;
  spec.op = nvme::Opcode::kWrite;
  spec.random = GetParam().device == DeviceId::kConv;
  spec.zones = {0, 1};
  spec.queue_depth = GetParam().stack == StackChoice::kKernelMq ? 8 : 1;
  spec.request_bytes = 16 * 1024;
  spec.duration = sim::Milliseconds(30);
  auto r = workload::RunJob(sim_, *stack_, spec);
  EXPECT_GT(r.ops, 100u);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_GT(r.latency.mean_ns(), 10'000.0);   // > 10 us: device is real
  EXPECT_LT(r.latency.mean_ns(), 5e6);  // < 5 ms even with GC stalls
}

TEST_P(FullStackTest, ReadWorkloadRunsClean) {
  if (zns_dev_ != nullptr) {
    zns_dev_->DebugFillZone(3, zns_dev_->profile().zone_cap_bytes);
  }
  workload::JobSpec spec;
  spec.op = nvme::Opcode::kRead;
  spec.random = true;
  spec.zones = {3};
  spec.queue_depth = 4;
  spec.duration = sim::Milliseconds(30);
  auto r = workload::RunJob(sim_, *stack_, spec);
  EXPECT_GT(r.ops, 100u);
  EXPECT_EQ(r.errors, 0u);
  // Reads pay tR ~68 us on both devices.
  EXPECT_GT(r.latency.mean_ns(), 60'000.0);
}

TEST_P(FullStackTest, MixedWorkloadSplitsDirections) {
  if (GetParam().device == DeviceId::kZns) {
    workload::JobSpec spec;
    spec.op = nvme::Opcode::kAppend;
    spec.random = true;
    spec.read_fraction = 0.3;
    spec.zones = {0, 1};
    spec.duration = sim::Milliseconds(30);
    auto r = workload::RunJob(sim_, *stack_, spec);
    EXPECT_EQ(r.errors, 0u);
    EXPECT_GT(r.write_latency.count(), 0u);
  } else {
    workload::JobSpec spec;
    spec.op = nvme::Opcode::kWrite;
    spec.random = true;
    spec.read_fraction = 0.3;
    spec.duration = sim::Milliseconds(30);
    auto r = workload::RunJob(sim_, *stack_, spec);
    EXPECT_EQ(r.errors, 0u);
    EXPECT_GT(r.read_latency.count(), 0u);
    EXPECT_GT(r.write_latency.count(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, FullStackTest,
    ::testing::Values(Param{StackChoice::kSpdk, DeviceId::kZns},
                      Param{StackChoice::kKernelNone, DeviceId::kZns},
                      Param{StackChoice::kKernelMq, DeviceId::kZns},
                      Param{StackChoice::kPsync, DeviceId::kZns},
                      Param{StackChoice::kSpdk, DeviceId::kConv},
                      Param{StackChoice::kKernelNone, DeviceId::kConv},
                      Param{StackChoice::kKernelMq, DeviceId::kConv},
                      Param{StackChoice::kPsync, DeviceId::kConv}),
    Name);

TEST(StackOrdering, OverheadsFollowThePaper) {
  // SPDK < io_uring < io_uring+mq-deadline < psync (Obs. 2 + [14]/[82]).
  auto write_us = [](StackChoice id) {
    sim::Simulator s;
    zns::ZnsProfile p = zns::TinyProfile();
    p.io_sigma = 0;
    zns::ZnsDevice dev(s, p);
    std::unique_ptr<hostif::Stack> st = hostif::MakeStack(id, s, dev).stack;
    sim::Time lat = 0;
    auto body = [&]() -> sim::Task<> {
      (void)co_await st->Submit(
          {.opcode = nvme::Opcode::kWrite, .slba = 0, .nlb = 1});
      auto tc = co_await st->Submit(
          {.opcode = nvme::Opcode::kWrite, .slba = 1, .nlb = 1});
      lat = tc.latency();
    };
    auto t = body();
    s.Run();
    return sim::ToMicroseconds(lat);
  };
  double spdk = write_us(StackChoice::kSpdk);
  double kernel = write_us(StackChoice::kKernelNone);
  double mq = write_us(StackChoice::kKernelMq);
  double psync = write_us(StackChoice::kPsync);
  EXPECT_LT(spdk, kernel);
  EXPECT_LT(kernel, mq);
  EXPECT_LT(mq, psync);
  EXPECT_NEAR(psync - spdk, 3.9, 1.2);  // ~4 us of syscall overhead
}

}  // namespace
}  // namespace zstor
