// MakeStack: a StackChoice as an owned, type-erased host stack.
//
//   auto made = hostif::MakeStack(StackChoice::kKernelMq, sim, dev);
//   co_await made.stack->Submit(cmd);
#pragma once

#include <cstdint>
#include <memory>

#include "hostif/host_stack.h"
#include "hostif/stack.h"
#include "nvme/controller.h"
#include "sim/simulator.h"

namespace zstor::hostif {

struct MadeStack {
  std::unique_ptr<Stack> stack;
};

inline MadeStack MakeStack(StackChoice choice, sim::Simulator& sim,
                           nvme::Controller& ctrl,
                           std::uint32_t qp_depth = 4096) {
  return {std::make_unique<HostStack>(sim, ctrl, choice, qp_depth)};
}

}  // namespace zstor::hostif
