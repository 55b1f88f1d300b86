// Instantiation of the handoff mailbox (runtime/handoff_core.h) over the
// real std::atomic-backed traits and a range-or-task payload. The runtime
// does not use it; it is kept only for loopbench's wake-latency ladder.
#pragma once

#include <cstdint>

#include "runtime/handoff_core.h"
#include "runtime/range_slot.h"  // range_span_runner
#include "util/cacheline.h"
#include "verify/sync.h"

namespace hls::rt {

class task;

// A mailbox payload: either a loop range (with the runner thunk a
// range-slot steal uses) or a task.
struct handoff_item {
  enum class kind : std::uint8_t { range, task };
  kind k = kind::range;
  std::uint32_t donor = 0;
  range_span_runner run = nullptr;  // range payloads
  void* ctx = nullptr;              // range payloads
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  rt::task* t = nullptr;  // task payloads
};

// Padded so a mailbox never false-shares with its neighbours.
struct alignas(kCacheLine) handoff_slot
    : handoff_slot_core<handoff_item, sync::real_traits> {};

}  // namespace hls::rt
