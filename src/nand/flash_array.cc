#include "nand/flash_array.h"

namespace zstor::nand {

using telemetry::Layer;

void FlashCounters::Describe(telemetry::MetricsRegistry& m) const {
  m.GetCounter("nand.page_reads").Set(page_reads);
  m.GetCounter("nand.page_programs").Set(page_programs);
  m.GetCounter("nand.block_erases").Set(block_erases);
  m.GetCounter("nand.bytes_read").Set(bytes_read);
  m.GetCounter("nand.bytes_programmed").Set(bytes_programmed);
  m.GetCounter("nand.read_retries").Set(read_retries);
  m.GetCounter("nand.read_errors").Set(read_errors);
  m.GetCounter("nand.program_failures").Set(program_failures);
  m.GetCounter("nand.blocks_retired").Set(blocks_retired);
  m.GetCounter("nand.recovery_probes").Set(recovery_probes);
  m.GetCounter("nand.crash_discarded_pages").Set(crash_discarded_pages);
}

FlashArray::FlashArray(sim::Simulator& s, const Geometry& geo,
                       const Timing& timing)
    : sim_(s), geo_(geo), timing_(timing), rng_(timing.noise_seed) {
  geo_.Validate();
  dies_.reserve(geo_.total_dies());
  for (std::uint32_t d = 0; d < geo_.total_dies(); ++d) {
    dies_.push_back(std::make_unique<sim::FifoResource>(s, 1));
  }
  channels_.reserve(geo_.channels);
  for (std::uint32_t c = 0; c < geo_.channels; ++c) {
    channels_.push_back(std::make_unique<sim::FifoResource>(s, 1));
  }
  chunks_.resize((geo_.total_blocks() + kBlockChunk - 1) / kBlockChunk);
  die_stats_.resize(geo_.total_dies());
  die_windows_.resize(geo_.total_dies());
}

void FlashArray::NoteDieService(std::uint32_t die, sim::Time begin,
                                sim::Time end) {
  telemetry::TimelineWriter* tl = timeline();
  if (tl == nullptr) return;
  DieWindow& w = die_windows_[die];
  if (w.open && begin - w.end <= tl->die_merge_gap_ns()) {
    w.end = end;
    w.busy += end - begin;
    w.ops++;
    return;
  }
  if (w.open) {
    tl->DieBusy(w.begin, w.end - w.begin, telem_->timeline_label(), lane_,
                die, w.ops, w.busy);
  }
  w = DieWindow{begin, end, end - begin, 1, true};
}

void FlashArray::FlushDieWindows() {
  telemetry::TimelineWriter* tl = timeline();
  if (tl == nullptr) return;
  for (std::uint32_t die = 0; die < die_windows_.size(); ++die) {
    DieWindow& w = die_windows_[die];
    if (!w.open) continue;
    tl->DieBusy(w.begin, w.end - w.begin, telem_->timeline_label(), lane_,
                die, w.ops, w.busy);
    w = DieWindow{};
  }
}

void FlashArray::EmitMediaError(std::uint32_t die, std::uint32_t block) {
  if (telemetry::TimelineWriter* tl = timeline(); tl != nullptr) {
    tl->Window(sim_.now(), /*dur=*/0, telem_->timeline_label(), lane_,
               "media.error", static_cast<std::int64_t>(die),
               static_cast<std::int64_t>(block));
  }
}

std::size_t FlashArray::BlockIndex(std::uint32_t die,
                                   std::uint32_t block) const {
  ZSTOR_CHECK(die < geo_.total_dies());
  ZSTOR_CHECK(block < geo_.blocks_per_die);
  return static_cast<std::size_t>(die) * geo_.blocks_per_die + block;
}

FlashArray::BlockState& FlashArray::Block(std::uint32_t die,
                                          std::uint32_t block) {
  const std::size_t i = BlockIndex(die, block);
  std::unique_ptr<BlockChunk>& chunk = chunks_[i / kBlockChunk];
  if (chunk == nullptr) chunk = std::make_unique<BlockChunk>();
  return (*chunk)[i % kBlockChunk];
}

FlashArray::BlockState FlashArray::Peek(std::uint32_t die,
                                        std::uint32_t block) const {
  const std::size_t i = BlockIndex(die, block);
  const std::unique_ptr<BlockChunk>& chunk = chunks_[i / kBlockChunk];
  return chunk == nullptr ? BlockState{} : (*chunk)[i % kBlockChunk];
}

std::size_t FlashArray::AllocatedBlockChunks() const {
  std::size_t n = 0;
  for (const auto& chunk : chunks_) n += chunk != nullptr ? 1 : 0;
  return n;
}

// Each operation runs as a chain of steps over its record: a step that
// needs a die or a channel queues on it (AcquireThen) and runs once the
// slot is granted, and each timed service is one scheduled event. The
// chain keeps the event structure of a coroutine that awaits the same
// resources and delays, so the FIFO order at every die and channel, the
// RNG draw order and the (time, seq) order of events are exactly those
// of that coroutine.

void FlashArray::EndDieService(const PageOp& op,
                               std::uint64_t DieStats::*count) {
  const std::uint32_t die = op.addr.die;
  ++(die_stats_[die].*count);
  die_stats_[die].busy_ns += op.service;
  NoteDieService(die, sim_.now() - op.service, sim_.now());
  dies_[die]->Release();
}

void FlashArray::SubmitRead(PageOp& op) {
  ZSTOR_CHECK(op.bytes > 0 && op.bytes <= geo_.page_bytes);
  const BlockState blk = Peek(op.addr.die, op.addr.block);
  ZSTOR_CHECK_MSG(op.addr.page < blk.write_ptr,
                  "read of an unprogrammed page");
  fault::ReadVerdict verdict;
  if (faults_ != nullptr) {
    verdict = faults_->OnRead(sim_.now(), op.addr.die, op.addr.block,
                              blk.pe_cycles);
  }
  op.retry_steps = verdict.retry_steps;
  op.fault = verdict.uncorrectable;
  op.t0 = sim_.now();
  dies_[op.addr.die]->AcquireThen([this, &op] {
    op.service = NoisyRead();
    if (op.retry_steps > 0) {
      // Read-retry: the die re-senses with stepped voltages; every step
      // costs a full extra sensing pass.
      sim::Time t_retry = op.retry_steps * faults_->spec().read_retry_penalty;
      if (telemetry::Tracer* tr = trace(); tr != nullptr) {
        tr->Span(sim_.now() + op.service, sim_.now() + op.service + t_retry,
                 /*cmd=*/0, Layer::kNand, "die.read_retry",
                 static_cast<std::int64_t>(op.addr.die),
                 static_cast<std::int64_t>(op.retry_steps));
      }
      op.service += t_retry;
    }
    sim_.ScheduleIn(op.service, [this, &op] { EndRead(op); });
  });
}

void FlashArray::EndRead(PageOp& op) {
  EndDieService(op, &DieStats::reads);
  if (op.fault) {
    // ECC exhausted: nothing to transfer to the host.
    if (telemetry::Tracer* tr = trace(); tr != nullptr) {
      tr->Instant(sim_.now(), /*cmd=*/0, Layer::kNand, "media.error",
                  static_cast<std::int64_t>(op.addr.die),
                  static_cast<std::int64_t>(op.addr.block));
    }
    EmitMediaError(op.addr.die, op.addr.block);
    counters_.page_reads++;
    counters_.read_errors++;
    op.status = MediaStatus::kReadError;
    op.done(op);
    return;
  }
  ChannelOf(op).AcquireThen([this, &op] {
    // Bus time scales with the fraction of the page transferred.
    sim_.ScheduleIn(timing_.bus_xfer_page * op.bytes / geo_.page_bytes,
                    [this, &op] {
                      ChannelOf(op).Release();
                      if (telemetry::Tracer* tr = trace(); tr != nullptr) {
                        tr->Span(op.t0, sim_.now(), /*cmd=*/0, Layer::kNand,
                                 "die.read",
                                 static_cast<std::int64_t>(op.addr.die),
                                 static_cast<std::int64_t>(op.bytes));
                      }
                      counters_.page_reads++;
                      counters_.bytes_read += op.bytes;
                      if (op.retry_steps > 0) counters_.read_retries++;
                      op.status = MediaStatus::kOk;
                      op.done(op);
                    });
  });
}

void FlashArray::SubmitProgram(PageOp& op) {
  BlockState& blk = Block(op.addr.die, op.addr.block);
  ZSTOR_CHECK_MSG(op.addr.page == blk.write_ptr,
                  "non-sequential program within a block");
  ZSTOR_CHECK(op.addr.page < geo_.pages_per_block);
  blk.write_ptr++;
  if (blk.retired) {
    // The slot is still consumed (queued follow-on programs must keep the
    // sequential contract), but the die refuses the operation outright.
    counters_.program_failures++;
    op.status = MediaStatus::kProgramFail;
    op.done(op);
    return;
  }
  fault::ProgramVerdict verdict;
  if (faults_ != nullptr) {
    verdict = faults_->OnProgram(sim_.now(), op.addr.die, op.addr.block,
                                 blk.pe_cycles);
  }
  op.fault = verdict.fail;
  op.t0 = sim_.now();
  ChannelOf(op).AcquireThen([this, &op] {
    sim_.ScheduleIn(timing_.bus_xfer_page, [this, &op] {
      ChannelOf(op).Release();
      dies_[op.addr.die]->AcquireThen([this, &op] {
        op.service = NoisyProgram();
        sim_.ScheduleIn(op.service, [this, &op] { EndProgram(op); });
      });
    });
  });
}

void FlashArray::EndProgram(PageOp& op) {
  EndDieService(op, &DieStats::programs);
  telemetry::Tracer* tr = trace();
  if (op.fault) {
    // The program-verify pass failed after the full tPROG was spent.
    if (tr != nullptr) {
      tr->Instant(sim_.now(), /*cmd=*/0, Layer::kNand, "media.error",
                  static_cast<std::int64_t>(op.addr.die),
                  static_cast<std::int64_t>(op.addr.block));
    }
    EmitMediaError(op.addr.die, op.addr.block);
    counters_.page_programs++;
    counters_.program_failures++;
    op.status = MediaStatus::kProgramFail;
    op.done(op);
    return;
  }
  if (tr != nullptr) {
    tr->Span(op.t0, sim_.now(), /*cmd=*/0, Layer::kNand, "die.program",
             static_cast<std::int64_t>(op.addr.die),
             static_cast<std::int64_t>(geo_.page_bytes));
  }
  counters_.page_programs++;
  counters_.bytes_programmed += geo_.page_bytes;
  op.status = MediaStatus::kOk;
  op.done(op);
}

void FlashArray::SubmitProbe(PageOp& op) {
  ZSTOR_CHECK(op.addr.page < geo_.pages_per_block);
  op.t0 = sim_.now();
  dies_[op.addr.die]->AcquireThen([this, &op] {
    op.service = timing_.read_page;
    sim_.ScheduleIn(op.service, [this, &op] { EndProbe(op); });
  });
}

void FlashArray::EndProbe(PageOp& op) {
  EndDieService(op, &DieStats::reads);
  if (telemetry::Tracer* tr = trace(); tr != nullptr) {
    tr->Span(op.t0, sim_.now(), /*cmd=*/0, Layer::kNand, "die.probe",
             static_cast<std::int64_t>(op.addr.die),
             static_cast<std::int64_t>(op.addr.page));
  }
  counters_.recovery_probes++;
  op.programmed = op.addr.page < Peek(op.addr.die, op.addr.block).write_ptr;
  op.done(op);
}

void FlashArray::SubmitErase(PageOp& op) {
  ZSTOR_CHECK_MSG(!Block(op.addr.die, op.addr.block).retired,
                  "erase of a retired block");
  op.t0 = sim_.now();
  dies_[op.addr.die]->AcquireThen([this, &op] {
    op.service = timing_.erase_block;
    sim_.ScheduleIn(op.service, [this, &op] { EndErase(op); });
  });
}

void FlashArray::EndErase(PageOp& op) {
  EndDieService(op, &DieStats::erases);
  if (telemetry::Tracer* tr = trace(); tr != nullptr) {
    tr->Span(op.t0, sim_.now(), /*cmd=*/0, Layer::kNand, "die.erase",
             static_cast<std::int64_t>(op.addr.die),
             static_cast<std::int64_t>(op.addr.block));
  }
  BlockState& blk = Block(op.addr.die, op.addr.block);
  blk.write_ptr = 0;
  blk.pe_cycles++;
  counters_.block_erases++;
  op.status = MediaStatus::kOk;
  op.done(op);
}

void FlashArray::CrashDiscardTail(std::uint32_t die, std::uint32_t block,
                                  std::uint32_t new_write_ptr) {
  const BlockState cur = Peek(die, block);
  if (cur.retired || new_write_ptr >= cur.write_ptr) return;
  BlockState& blk = Block(die, block);
  counters_.crash_discarded_pages += blk.write_ptr - new_write_ptr;
  blk.write_ptr = new_write_ptr;
}

sim::Time FlashArray::NoisyRead() {
  if (timing_.read_sigma == 0) return timing_.read_page;
  return static_cast<sim::Time>(
      static_cast<double>(timing_.read_page) *
      rng_.LogNormalNoise(timing_.read_sigma));
}

sim::Time FlashArray::NoisyProgram() {
  if (timing_.program_sigma == 0) return timing_.program_page;
  return static_cast<sim::Time>(
      static_cast<double>(timing_.program_page) *
      rng_.LogNormalNoise(timing_.program_sigma));
}

void FlashArray::DebugProgramRange(std::uint32_t die, std::uint32_t block,
                                   std::uint32_t upto_page) {
  ZSTOR_CHECK(upto_page <= geo_.pages_per_block);
  if (Peek(die, block).write_ptr >= upto_page) return;
  Block(die, block).write_ptr = upto_page;
}

void FlashArray::DeferredEraseBlock(std::uint32_t die, std::uint32_t block) {
  const BlockState cur = Peek(die, block);
  if (cur.retired) return;         // retired blocks are never recycled
  if (cur.write_ptr == 0) return;  // nothing was programmed
  BlockState& blk = Block(die, block);
  blk.write_ptr = 0;
  blk.pe_cycles++;
  counters_.block_erases++;
}

std::uint32_t FlashArray::BlockWritePointer(std::uint32_t die,
                                            std::uint32_t block) const {
  return Peek(die, block).write_ptr;
}

std::uint32_t FlashArray::BlockPeCycles(std::uint32_t die,
                                        std::uint32_t block) const {
  return Peek(die, block).pe_cycles;
}

bool FlashArray::MarkBlockRetired(std::uint32_t die, std::uint32_t block) {
  BlockState& blk = Block(die, block);
  if (blk.retired) return false;
  blk.retired = true;
  counters_.blocks_retired++;
  return true;
}

bool FlashArray::BlockRetired(std::uint32_t die, std::uint32_t block) const {
  return Peek(die, block).retired;
}

std::size_t FlashArray::DieQueueDepth(std::uint32_t die) const {
  ZSTOR_CHECK(die < geo_.total_dies());
  const auto& r = *dies_[die];
  return (r.free_slots() == 0 ? 1 : 0) + r.queue_length();
}

double FlashArray::PeakProgramBandwidth() const {
  return static_cast<double>(geo_.total_dies()) * geo_.page_bytes /
         sim::ToSeconds(timing_.program_page);
}

}  // namespace zstor::nand
