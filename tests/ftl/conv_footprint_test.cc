// Footprint of the conventional FTL's write path: a host page queued at a
// die is a small pooled record, not a suspended coroutine with a heap
// vector. Every global allocation in this binary is counted, and so are
// the bytes still live; the test reads both at the moment hundreds of
// pages wait at the dies.
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "ftl/conv_device.h"
#include "sim/task.h"

namespace {
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_live_bytes{0};
}  // namespace

// GCC's mismatched-new-delete analysis peers through replacement
// operators into their malloc/free innards and misfires.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  void* p = std::malloc(n ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  g_live.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(1, std::memory_order_relaxed);
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}

namespace zstor::ftl {
namespace {

TEST(ConvFootprint, QueuedHostPagesAllocateNoFramesOrVectors) {
  ConvProfile p = TinyConvProfile();
  p.write_buffer_bytes = 8ull << 20;  // 512 pages: far more than 4 dies drain
  sim::Simulator s;
  ConvDevice dev(s, p);
  const std::uint32_t upp = p.units_per_page();
  const std::uint32_t dies = p.nand_geometry.total_dies();
  ASSERT_EQ(dies, 4u);

  std::int64_t allocs = 0;
  std::int64_t bytes = 0;
  std::size_t queued = 0;
  auto body = [&]() -> sim::Task<> {
    const std::int64_t live0 = g_live.load();
    const std::int64_t bytes0 = g_live_bytes.load();
    for (std::uint32_t lba = 0; lba < 384 * upp; lba += 16 * upp) {
      nvme::Completion c = co_await dev.Execute(
          {.opcode = nvme::Opcode::kWrite, .slba = lba, .nlb = 16 * upp});
      EXPECT_TRUE(c.ok());
    }
    // Every write is acknowledged (admitted to the buffer); its pages
    // wait at the dies.
    for (std::uint32_t d = 0; d < dies; ++d) {
      queued += dev.flash().DieQueueDepth(d);
    }
    allocs = g_live.load() - live0;
    bytes = g_live_bytes.load() - bytes0;
  };
  auto t = body();
  s.Run();
  ASSERT_GE(queued, 256u);
  // A queued page used to hold coroutine frames and a std::vector: ~3.2
  // live allocations and ~490 B per page. Now the pages share pooled
  // record chunks and the die FIFOs' deque nodes (~0.1 allocations and
  // ~200 B per page, the pool's unused chunk tail included).
  EXPECT_LT(allocs * 4, static_cast<std::int64_t>(queued))
      << allocs << " live allocations for " << queued << " queued pages";
  EXPECT_LT(bytes, static_cast<std::int64_t>(queued) * 256)
      << bytes << " live bytes for " << queued << " queued pages";
  // Once drained, every page went through and gave its slots back.
  EXPECT_EQ(dev.counters().host_units_programmed, 384u * upp);
  EXPECT_EQ(dev.free_buffer_units(), p.write_buffer_bytes / p.map_unit_bytes);
}

}  // namespace
}  // namespace zstor::ftl
