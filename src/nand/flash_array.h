// The flash array: per-die and per-channel service with real queueing.
//
// Dies execute one cell operation (read/program/erase) at a time; channels
// carry one bus transfer at a time. All contention effects in the paper —
// read tails behind program queues, GC erase storms, parallel scaling across
// dies — arise from these two resources plus the timings in geometry.h.
//
// Every cell operation is a PageOp record that the submitter owns. While
// it waits for a die or a channel it is only that record in the
// resource's FIFO (a FifoResource waiter that starts the next step once
// the slot is granted); no coroutine frame is held for it. Coroutine
// callers `co_await ReadPage/ProgramPage/EraseBlock/ProbePage`, thin
// awaiters that keep the record in the caller's frame.
//
// The array also enforces the physical flash contract (a deliberately
// checkable substrate for the FTL layers above):
//   * pages within a block must be programmed strictly sequentially,
//   * a page must be programmed before it is read,
//   * a block must be erased before its pages can be re-programmed.
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "fault/fault_plan.h"
#include "nand/geometry.h"
#include "sim/resource.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace zstor::nand {

/// Outcome of one cell operation, as observed by the layer above. kOk is
/// the only value possible unless a fault::FaultPlan is attached.
enum class MediaStatus : std::uint8_t {
  kOk,
  kReadError,    // uncorrectable read: ECC exhausted after every retry step
  kProgramFail,  // program failed (or targeted an already-retired block)
};

struct FlashCounters {
  std::uint64_t page_reads = 0;
  std::uint64_t page_programs = 0;
  std::uint64_t block_erases = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_programmed = 0;
  // Fault-path outcomes (all zero without an attached fault plan).
  std::uint64_t read_retries = 0;       // correctable reads (retry episodes)
  std::uint64_t read_errors = 0;        // uncorrectable reads surfaced
  std::uint64_t program_failures = 0;   // failed page programs
  std::uint64_t blocks_retired = 0;     // blocks taken out of service
  // Crash/recovery activity (zero unless a power loss was injected).
  std::uint64_t recovery_probes = 0;    // ProbePage scans
  std::uint64_t crash_discarded_pages = 0;  // tail pages dropped at boot

  /// Exports every counter into the registry under the "nand." prefix
  /// (the shared Describe protocol; see telemetry/metrics.h).
  void Describe(telemetry::MetricsRegistry& m) const;
};

/// One cell operation as a record. The submitter fills the inputs and
/// `done` and keeps the record alive at a fixed address until `done`
/// runs (hence no copies). `done` is the operation's last act: the array
/// never touches the record after calling it, so `done` may free or
/// resubmit it. Records are reusable; every submission resets the
/// array-private fields.
struct PageOp {
  using DoneFn = void (*)(PageOp&);

  PageOp() = default;
  PageOp(const PageOp&) = delete;
  PageOp& operator=(const PageOp&) = delete;

  PageAddr addr;            // erase: addr.page is unused
  std::uint32_t bytes = 0;  // read: bytes transferred out (<= page size)
  DoneFn done = nullptr;

  // Results, valid when `done` runs.
  MediaStatus status = MediaStatus::kOk;  // read, program
  bool programmed = false;                // probe: the page holds data

  // Array-private progress.
  bool fault = false;  // read: uncorrectable; program: fails its verify
  std::uint32_t retry_steps = 0;  // read-retry voltage steps
  sim::Time t0 = 0;               // submission time (trace spans)
  sim::Time service = 0;          // die-held time, drawn at the grant
};

/// Per-die service accounting, fed by the die-held portion of each cell
/// operation. busy_ns / sim.now() is that die's utilization — the raw
/// material of the Die Utilization log page (nvme/log_page.h).
struct DieStats {
  std::uint64_t reads = 0;
  std::uint64_t programs = 0;
  std::uint64_t erases = 0;
  sim::Time busy_ns = 0;  // total time the die executed cell operations
};

class FlashArray {
 public:
  FlashArray(sim::Simulator& s, const Geometry& geo, const Timing& timing);

  const Geometry& geometry() const { return geo_; }
  const Timing& timing() const { return timing_; }
  const FlashCounters& counters() const { return counters_; }

  /// Enables die/channel-level tracing (non-owning; null disables). Die
  /// spans carry no command id — cell service is decoupled from commands
  /// by the write-back buffer; `a` holds the die index instead. `lane`
  /// tags this array's timeline records in striped multi-device runs.
  void AttachTelemetry(telemetry::Telemetry* t, std::uint32_t lane = 0) {
    telem_ = t;
    lane_ = lane;
  }

  /// Emits any still-open die_busy timeline windows. Called by the
  /// testbed at Finish(); a no-op without an attached timeline.
  void FlushDieWindows();

  /// Injects media faults into subsequent cell operations (non-owning;
  /// null disables — the default, under which every operation is kOk and
  /// timing is bit-identical to a build without fault support).
  void AttachFaultPlan(fault::FaultPlan* p) { faults_ = p; }

  /// Record submissions (see PageOp); each calls op.done once, at the
  /// operation's end. A program to a retired block completes before
  /// SubmitProgram returns; every other operation completes in a later
  /// event.
  ///
  /// Read: `op.bytes` (<= page size) from a programmed page. Occupies the
  /// die for tR (plus any read-retry voltage steps under an attached
  /// fault plan), then the channel for the data-out transfer. kReadError
  /// means ECC gave up after the full retry budget; no data is
  /// transferred.
  void SubmitRead(PageOp& op);
  /// Program: the next page of a block (addr.page must equal the block's
  /// write pointer). Channel data-in transfer, then die busy for tPROG.
  /// A failing program still consumes the page slot (the write pointer
  /// advances) so queued follow-on programs keep the sequential contract;
  /// programs to a retired block fail immediately without die time.
  void SubmitProgram(PageOp& op);
  /// Erase of block (addr.die, addr.block): die busy for tBERS; resets
  /// the block write pointer.
  void SubmitErase(PageOp& op);
  /// Recovery probe: senses whether `addr` holds programmed data, costing
  /// a full tR of die time (no channel transfer — the controller only
  /// inspects the ECC/meta region). Unlike a read it is legal on
  /// unprogrammed pages; write-pointer rediscovery scans after a power
  /// loss are built from these. Sets op.programmed.
  void SubmitProbe(PageOp& op);

  /// `co_await` adapter over one submission: the awaiting coroutine's
  /// frame holds the record, and the completion resumes the coroutine
  /// inline (as a finished sim::Task resumes its awaiter). Yields the
  /// status (read, program), whether the page holds data (probe), or
  /// nothing (erase).
  template <typename T>
  class [[nodiscard]] Awaiter : public PageOp {
   public:
    using Submit = void (FlashArray::*)(PageOp&);
    Awaiter(FlashArray& array, Submit submit, PageAddr a,
            std::uint32_t b = 0)
        : array_(array), submit_(submit) {
      addr = a;
      bytes = b;
      done = &Finish;
    }

    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) {
      (array_.*submit_)(*this);
      if (finished_) return false;  // completed without waiting
      waiter_ = h;
      return true;
    }
    T await_resume() const noexcept {
      if constexpr (std::is_same_v<T, bool>) {
        return programmed;
      } else if constexpr (!std::is_void_v<T>) {
        return status;
      }
    }

   private:
    static void Finish(PageOp& op) {
      auto& self = static_cast<Awaiter&>(op);
      self.finished_ = true;
      if (self.waiter_) self.waiter_.resume();
    }

    FlashArray& array_;
    Submit submit_;
    std::coroutine_handle<> waiter_;
    bool finished_ = false;
  };

  Awaiter<MediaStatus> ReadPage(PageAddr addr, std::uint32_t bytes) {
    return {*this, &FlashArray::SubmitRead, addr, bytes};
  }
  Awaiter<MediaStatus> ProgramPage(PageAddr addr) {
    return {*this, &FlashArray::SubmitProgram, addr};
  }
  Awaiter<void> EraseBlock(std::uint32_t die, std::uint32_t block) {
    return {*this, &FlashArray::SubmitErase, {die, block, 0}};
  }
  /// Returns true if the page is programmed.
  Awaiter<bool> ProbePage(PageAddr addr) {
    return {*this, &FlashArray::SubmitProbe, addr};
  }

  /// Power-loss tail discard: drops pages [new_write_ptr, write_ptr) of a
  /// block — programs that were in flight (or torn) when power cut and
  /// that the controller's recovery scan refuses to trust. Models the
  /// controller remapping the partially-programmed word lines away; no
  /// die time, no P/E cycle. Never raises the write pointer; no-op on
  /// retired blocks.
  void CrashDiscardTail(std::uint32_t die, std::uint32_t block,
                        std::uint32_t new_write_ptr);

  /// Marks pages [0, upto_page) of a block as programmed without simulating
  /// the programs (no virtual time, no counters). Test/bench acceleration
  /// for pre-filling state whose write *history* does not matter — see
  /// DESIGN.md §6. Never lowers an existing write pointer.
  void DebugProgramRange(std::uint32_t die, std::uint32_t block,
                         std::uint32_t upto_page);

  /// Erases a block instantly (no die time) while still counting the P/E
  /// cycle. Models erases that firmware hides off the critical path (the
  /// paper: "the reset operation does not immediately force a block
  /// erasure" [74]).
  void DeferredEraseBlock(std::uint32_t die, std::uint32_t block);

  /// Block write pointer: the next page index to program (0 = empty block).
  std::uint32_t BlockWritePointer(std::uint32_t die,
                                  std::uint32_t block) const;
  /// Program/erase cycles endured by the block so far.
  std::uint32_t BlockPeCycles(std::uint32_t die, std::uint32_t block) const;

  /// Takes a block out of service after a program failure: its programmed
  /// pages stay readable, but further programs fail fast and erases are
  /// refused. Returns true if the block was newly retired (callers use
  /// this to charge spare-block accounting exactly once per block).
  bool MarkBlockRetired(std::uint32_t die, std::uint32_t block);
  bool BlockRetired(std::uint32_t die, std::uint32_t block) const;

  /// Number of block-state chunks allocated so far. Block state is kept in
  /// chunks of kBlockChunk blocks, allocated by the first operation that
  /// changes a block in the chunk; a block in an unallocated chunk is
  /// fresh (write pointer 0, no P/E cycles, not retired). Queries never
  /// allocate. Exposed so tests can pin the footprint to the blocks a run
  /// touched.
  std::size_t AllocatedBlockChunks() const;
  static constexpr std::uint32_t kBlockChunk = 64;

  /// Queue length (in-service + waiting) at a die; used by tests and by
  /// utilization-aware policies.
  std::size_t DieQueueDepth(std::uint32_t die) const;

  /// Per-die service accounting, indexed by die; size == total_dies().
  const std::vector<DieStats>& die_stats() const { return die_stats_; }

  /// Aggregate program bandwidth achievable when all dies stream (bytes/s).
  double PeakProgramBandwidth() const;

 private:
  struct BlockState {
    std::uint32_t write_ptr = 0;
    std::uint32_t pe_cycles = 0;
    bool retired = false;
  };

  using BlockChunk = std::array<BlockState, kBlockChunk>;

  /// Mutable state of a block, allocating its chunk on first use.
  BlockState& Block(std::uint32_t die, std::uint32_t block);
  /// Read-only state of a block; never allocates (an unallocated block
  /// reads as a fresh one).
  BlockState Peek(std::uint32_t die, std::uint32_t block) const;
  std::size_t BlockIndex(std::uint32_t die, std::uint32_t block) const;

  sim::Time NoisyRead();
  sim::Time NoisyProgram();
  sim::FifoResource& ChannelOf(const PageOp& op) {
    return *channels_[geo_.channel_of({op.addr.die})];
  }
  // The steps of each operation after its die service (see the .cc).
  void EndRead(PageOp& op);
  void EndProgram(PageOp& op);
  void EndErase(PageOp& op);
  void EndProbe(PageOp& op);
  /// Books the die-held interval [now - op.service, now] that just ended
  /// (stats, die_busy window) and hands the die to its next waiter.
  void EndDieService(const PageOp& op, std::uint64_t DieStats::*count);
  telemetry::Tracer* trace() const {
    return telem_ != nullptr ? &telem_->tracer() : nullptr;
  }
  telemetry::TimelineWriter* timeline() const {
    return telem_ != nullptr ? telem_->timeline() : nullptr;
  }
  /// Folds one die-held service interval [begin, end] into that die's
  /// pending die_busy window: extend it when the idle gap is below the
  /// writer's merge threshold, otherwise emit it and start a new one.
  void NoteDieService(std::uint32_t die, sim::Time begin, sim::Time end);
  void EmitMediaError(std::uint32_t die, std::uint32_t block);

  /// A pending (not yet emitted) die_busy window; `busy` sums the actual
  /// service time inside [begin, end] so utilization stays exact even
  /// though the window spans merged idle gaps.
  struct DieWindow {
    sim::Time begin = 0;
    sim::Time end = 0;
    sim::Time busy = 0;
    std::uint64_t ops = 0;
    bool open = false;
  };

  telemetry::Telemetry* telem_ = nullptr;
  std::uint32_t lane_ = 0;
  std::vector<DieWindow> die_windows_;
  fault::FaultPlan* faults_ = nullptr;
  sim::Simulator& sim_;
  Geometry geo_;
  Timing timing_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<sim::FifoResource>> dies_;
  std::vector<std::unique_ptr<sim::FifoResource>> channels_;
  // Chunk i holds blocks [i * kBlockChunk, (i + 1) * kBlockChunk) of the
  // index die * blocks_per_die + block; null until first written. Chunks
  // are never freed, so a BlockState& stays valid across co_await.
  std::vector<std::unique_ptr<BlockChunk>> chunks_;
  std::vector<DieStats> die_stats_;
  FlashCounters counters_;
};

}  // namespace zstor::nand
