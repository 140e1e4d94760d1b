// Pass-through decorators that let the traced run record spans at three
// layer boundaries without touching the program: the host stack
// (hostif::Stack::Submit), the device (nvme::Controller::Execute) and the
// key-value engine (workload::KvBackend Put/Get).
//
// Each forwards the call unchanged and returns the inner result
// unchanged. sim::Task starts eagerly and resumes its awaiter by
// symmetric transfer, so a decorator adds a coroutine frame but no
// simulator event: virtual time is identical with and without them (the
// benchmark's correctness gate checks this on every traced run).
#pragma once

#include <utility>

#include "hostif/stack.h"
#include "nvme/controller.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "spans.h"
#include "workload/ycsb.h"

namespace perfbench {

class TracingController : public zstor::nvme::Controller {
 public:
  TracingController(zstor::sim::Simulator& s, zstor::nvme::Controller& inner,
                    SpanRecorder& rec)
      : sim_(s), inner_(inner), rec_(rec) {}

  const zstor::nvme::NamespaceInfo& info() const override {
    return inner_.info();
  }

  zstor::sim::Task<zstor::nvme::Completion> Execute(
      const zstor::nvme::Command& cmd) override {
    const std::uint32_t id = rec_.Begin(Layer::kNvme, OpName(cmd),
                                        rec_.ClaimIssuer(cmd), sim_.now());
    zstor::nvme::Completion c = co_await inner_.Execute(cmd);
    rec_.End(id, sim_.now());
    co_return c;
  }

 private:
  zstor::sim::Simulator& sim_;
  zstor::nvme::Controller& inner_;
  SpanRecorder& rec_;
};

class TracingStack : public zstor::hostif::Stack {
 public:
  TracingStack(zstor::sim::Simulator& s, zstor::hostif::Stack& inner,
               SpanRecorder& rec)
      : sim_(s), inner_(inner), rec_(rec) {}

  const zstor::nvme::NamespaceInfo& info() const override {
    return inner_.info();
  }

  zstor::sim::Task<zstor::nvme::TimedCompletion> Submit(
      zstor::nvme::Command cmd) override {
    const std::uint32_t id =
        rec_.Begin(Layer::kHostif, OpName(cmd), rec_.current, sim_.now());
    rec_.ExpectDevice(id, cmd);
    zstor::nvme::TimedCompletion tc = co_await inner_.Submit(std::move(cmd));
    rec_.End(id, sim_.now());
    co_return tc;
  }

 private:
  zstor::sim::Simulator& sim_;
  zstor::hostif::Stack& inner_;
  SpanRecorder& rec_;
};

class TracingKv : public zstor::workload::KvBackend {
 public:
  TracingKv(zstor::sim::Simulator& s, zstor::workload::KvBackend& inner,
            SpanRecorder& rec)
      : sim_(s), inner_(inner), rec_(rec) {}

  zstor::sim::Task<zstor::nvme::Status> Put(std::uint64_t key,
                                            std::uint64_t value_bytes)
      override {
    const std::uint32_t id = rec_.Begin(Layer::kZkv, "put", 0, sim_.now());
    // The inner call runs eagerly up to its first suspension; I/O it
    // submits in that stretch is this span's child.
    const std::uint32_t saved = std::exchange(rec_.current, id);
    zstor::sim::Task<zstor::nvme::Status> t = inner_.Put(key, value_bytes);
    rec_.current = saved;
    const zstor::nvme::Status st = co_await t;
    rec_.End(id, sim_.now());
    co_return st;
  }

  zstor::sim::Task<zstor::nvme::Status> Get(std::uint64_t key,
                                            bool* found) override {
    const std::uint32_t id = rec_.Begin(Layer::kZkv, "get", 0, sim_.now());
    const std::uint32_t saved = std::exchange(rec_.current, id);
    zstor::sim::Task<zstor::nvme::Status> t = inner_.Get(key, found);
    rec_.current = saved;
    const zstor::nvme::Status st = co_await t;
    rec_.End(id, sim_.now());
    co_return st;
  }

 private:
  zstor::sim::Simulator& sim_;
  zstor::workload::KvBackend& inner_;
  SpanRecorder& rec_;
};

}  // namespace perfbench
