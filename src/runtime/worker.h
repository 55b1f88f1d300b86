// A worker: the surrogate of one processing core (paper Section II).
//
// Each worker owns a Chase-Lev deque and, when idle, (1) pops local work,
// (2) visits the loop participation board, (3) steals from a random victim.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "runtime/deque.h"
#include "runtime/parking.h"
#include "runtime/range_slot.h"
#include "telemetry/registry.h"
#include "util/cacheline.h"
#include "util/rng.h"

namespace hls::rt {

class runtime;
class task;

// Snapshot of a worker's scheduler event counters (monotonic over the
// runtime's life). The field list is generated from the telemetry x-macro
// (telemetry/counters.h), so every counter automatically participates in
// snapshots, sums, and deltas. The live counters are relaxed atomics
// updated only by the owning worker; snapshots read from any thread may
// lag but are well-defined.
using worker_stats = telemetry::counter_set;

class worker {
 public:
  worker(runtime& rt, std::uint32_t id, std::uint64_t seed,
         telemetry::worker_state& tel);

  worker(const worker&) = delete;
  worker& operator=(const worker&) = delete;

  std::uint32_t id() const noexcept { return id_; }
  runtime& rt() noexcept { return rt_; }
  ws_deque& deque() noexcept { return deque_; }
  xoshiro256ss& rng() noexcept { return rng_; }

  // Span nesting cap: one splittable-range slot per depth. A loop nested
  // inside an open span's chunk body (or a range stolen while one is
  // open) publishes at the next depth; a span opened past the cap runs as
  // serial chunks, the only span fallback (counted in alloc_fallbacks).
  static constexpr std::uint32_t kMaxSpanDepth = 4;

  // The splittable-range slot at nesting depth d (lazy loop splitting;
  // see runtime/range_slot.h). Open spans always fill a prefix of the
  // depths; thieves probe a victim's open depths, shallowest first,
  // before its deque.
  range_slot& range(std::uint32_t d) noexcept { return ranges_[d]; }

  // Owner thread only. Publishes [lo, hi) in the slot at the next free
  // depth and returns it; nullptr past kMaxSpanDepth (or for a span the
  // slot rejects). Every successful open is paired with close_span().
  range_slot* open_span(void* ctx, range_span_runner run, std::int64_t lo,
                        std::int64_t hi, std::int64_t grain) noexcept;

  // Owner thread only. Closes the innermost open span (draining its
  // thieves) and returns true when a steal split it.
  bool close_span() noexcept;

  // This worker's telemetry state: counters, histograms, event ring.
  telemetry::worker_state& tel() noexcept { return tel_; }
  const telemetry::worker_state& tel() const noexcept { return tel_; }

  // Pushes a task onto this worker's own deque (owner thread only) and
  // wakes sleeping thieves.
  void push(task* t);

  // Pops from the local deque (owner thread only).
  task* pop_local();

  // Executes t and deletes it.
  void run(task* t);

  // One scheduling step: local pop, board visit, or one round of steal
  // attempts. Returns true if progress was made.
  bool try_progress();

  // Drains and executes the local deque until it is empty. Used by the
  // hybrid loop to finish a claimed partition depth-first before the next
  // claim, mirroring the serial execution order of continuation stealing.
  void drain_local();

  worker_stats stats() const noexcept { return tel_.counters.snapshot(); }

  // ---- heartbeat (consumed by runtime/health.h) ---------------------
  // A cacheline-padded epoch word the owning worker bumps at chunk and
  // park boundaries; the watchdog classifies a worker whose heartbeat
  // goes silent past the progress budget as stalled. Owner-only store
  // (plain load+store, no RMW — same discipline as the counters).
  void beat() noexcept {
    hb_beats_.store(hb_beats_.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
  }
  std::uint64_t beats() const noexcept {
    return hb_beats_.load(std::memory_order_relaxed);
  }
  // True while the worker is blocked in a park: the watchdog classifies a
  // parked worker as healthy-idle rather than stalled (it holds no work
  // and wakes on demand).
  bool parked_hint() const noexcept {
    return hb_parked_.load(std::memory_order_relaxed) != 0;
  }

  // Runs scheduling steps until pred() holds, backing off when idle. The
  // predicate is threaded into the park path so the check-then-park
  // re-check covers completion broadcasts that fired before the waiter was
  // announced (the predicate flipped, but there was nobody to unpark).
  template <typename Pred>
  void work_until(Pred&& pred) {
    int idle = 0;
    while (!pred()) {
      if (try_progress()) {
        idle = 0;
        continue;
      }
      pause(++idle, park_predicate(pred));
    }
  }

 private:
  friend class runtime;

  // Progressive backoff: relax -> yield -> park on the runtime's
  // per-worker parking slot (runtime::idle_park). `done` is the caller's
  // work_until predicate (empty from the top-level worker loop); it joins
  // the pre-park re-check and refines spurious-wake accounting.
  void pause(int idle_count, park_predicate done = {});

  // Steal backoff: after kBackoffAfter consecutive idle_park attempts
  // came back cancelled (work stayed visible but unacquirable — the
  // spinning-thief signature), take one bounded exponential jittered nap
  // via runtime::backoff_park instead of burning the straggler's cycles.
  void backoff_nap(park_predicate done);
  static constexpr int kBackoffAfter = 2;
  static constexpr int kMaxBackoffLevel = 7;  // 2us << 7 = 256us cap input

  // One round of steal attempts: up to P victims chosen uniformly at
  // random, each probed for its range slots (shallowest depth first), then
  // for one task from its deque.
  bool try_steal_round();

  runtime& rt_;
  std::uint32_t id_;
  ws_deque deque_;
  std::array<range_slot, kMaxSpanDepth> ranges_;
  std::uint32_t depth_ = 0;  // open spans (owner thread only)
  xoshiro256ss rng_;
  telemetry::worker_state& tel_;

  // Heartbeat words, padded so the watchdog's cross-thread reads never
  // false-share with the worker's hot state.
  alignas(kCacheLine) std::atomic<std::uint64_t> hb_beats_{0};
  std::atomic<std::uint8_t> hb_parked_{0};

  // Steal-backoff state (owner thread only).
  int backoff_streak_ = 0;  // consecutive cancelled idle parks
  int backoff_level_ = 0;   // current exponent of the nap length
};

}  // namespace hls::rt
