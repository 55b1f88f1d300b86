// Internal policy implementations behind parallel_for.
//
// Each work-sharing policy is a loop_record posted on the runtime's board;
// dynamic_ws posts nothing — its span lives in the caller's range slot and
// peers join only by stealing from it. Exposed in a header (rather than an
// anonymous namespace) so the tests can exercise records directly.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "core/partition_set.h"
#include "runtime/board.h"
#include "sched/loop.h"
#include "util/cacheline.h"

namespace hls::sched {

// State shared by every chunk of one parallel loop. Heap-allocated
// (shared_ptr) because board records and their visitors may hold
// references until the last iteration retires.
//
// Completion is accounted per reservation, not per chunk: whoever claims
// a unit of work (a range_slot reservation, a static block, one
// participate() call's queue chunks) runs its chunks and then retires the
// whole unit with a single retire(). The shared `remaining` line
// therefore sees one RMW per claim, not one per chunk.
struct loop_ctx {
  // Why this loop stopped handing out bodies (maps onto loop_status).
  enum : std::uint8_t { kRunning = 0, kCancelled = 1, kDeadline = 2 };

  loop_ctx(std::int64_t b, std::int64_t e, chunk_body body_,
           std::int64_t grain_, trace::loop_trace* trace_)
      : begin(b), end(e), body(body_), grain(grain_), trace(trace_),
        remaining(e - b) {}

  const std::int64_t begin;
  const std::int64_t end;
  const chunk_body body;
  const std::int64_t grain;
  trace::loop_trace* const trace;

  // Read-mostly stop state, polled by every chunk and written at most once
  // per loop. It sits with the const fields above, off the line every
  // retire writes.
  //
  // `failed` latches on the first exception thrown by any chunk body.
  // Later chunks are skipped (their iterations still retire, so the loop
  // completes and the posting worker can rethrow). `stop` latches the
  // first cancellation or deadline observed. `cancel` borrows
  // loop_options::cancel's flag (the options outlive the blocking call);
  // deadline_at_ns is an absolute telemetry::steady_now_ns instant, 0 for
  // none. parallel_for sets both before the loop is published.
  std::atomic<bool> failed{false};
  std::atomic<std::uint8_t> stop{kRunning};
  const std::atomic<bool>* cancel = nullptr;
  std::uint64_t deadline_at_ns = 0;

  alignas(kCacheLine) std::atomic<std::int64_t> remaining;
  // Written only by the first throwing body, under error_mu.
  std::exception_ptr first_error;
  std::mutex error_mu;

  alignas(kCacheLine) std::atomic<std::int64_t> skipped{0};

  bool finished() const noexcept {
    return remaining.load(std::memory_order_acquire) <= 0;
  }

  // Polls cancellation and the deadline; latches the first observed stop
  // reason. Called once per chunk (w pays for the deadline's clock read
  // only when a deadline is set and bumps deadline_expirations on the
  // latching transition).
  bool stop_requested(rt::worker& w) noexcept;

  // Rethrows the first captured body exception, if any. Called by the
  // posting worker after the loop completes.
  void rethrow_if_failed();

  // Runs body on [lo, hi) on worker w — unless the loop has failed or
  // stopped, in which case the body is skipped — and records the trace
  // and chunk telemetry. It does not retire: the caller owns [lo, hi) as
  // part of a claimed unit and retires the unit once its last chunk has
  // run. Never throws (body exceptions are captured for rethrow_if_failed).
  void run_chunk(rt::worker& w, std::int64_t lo, std::int64_t hi);

  // Runs [lo, hi) as grain-sized chunks, then retires all of it with one
  // retire(). The one "walk a range in grain chunks" path: range_span
  // reservations, the depth-cap fallback, and the serial-with-stop and
  // admission-gate loops in parallel_for.
  //
  // The reservation-invariant reads (chaos, events, trace, whether the
  // loop has a cancel token or deadline, the pending-wake flag) happen
  // once, at the start. With chaos, events and trace all off the chunks
  // run in a bare loop that pays per chunk only the heartbeat, one drain
  // check and the body, and bumps chunks_run / cancelled_chunks once for
  // the whole range; otherwise every chunk walks through run_chunk. Both
  // walks give the same counter totals and skip accounting.
  void run_range(rt::worker& w, std::int64_t lo, std::int64_t hi);

  // Retires n iterations, after the last body among them has returned.
  // This is the loop's linearization point: once remaining hits 0 the
  // posting thread may return and the body callable may die, so the
  // caller must not touch `body` (or anything else in the ctx) afterwards.
  // The call that drops `remaining` to zero wakes every parked worker: the
  // posting worker may be parked inside work_until waiting on finished(),
  // and that predicate flip has no other tracked wake edge — without this
  // broadcast it would only notice at the park backstop.
  void retire(rt::worker& w, std::int64_t n) noexcept;

 private:
  // run_range's bare walk: chaos, events and trace are off.
  void run_bare(rt::worker& w, std::int64_t lo, std::int64_t hi);

  // Records the exception being handled as a body failure: bumps
  // exceptions_caught and keeps the first one for rethrow_if_failed.
  // Call only from inside a catch handler. Shared by both walks.
  [[gnu::cold]] void capture_error(rt::worker& w) noexcept;

  // Latches `reason` if still running; returns true for the latching call.
  bool latch_stop(std::uint8_t reason) noexcept {
    std::uint8_t expect = kRunning;
    return stop.compare_exchange_strong(expect, reason,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire);
  }
};

// Per-chunk reads (the stop state) must stay off the line every retire
// writes, or each chunk's drain check would miss on a line the other
// workers' retires keep invalidating.
static_assert(offsetof(loop_ctx, failed) / kCacheLine !=
              offsetof(loop_ctx, remaining) / kCacheLine);
static_assert(offsetof(loop_ctx, stop) / kCacheLine !=
              offsetof(loop_ctx, remaining) / kCacheLine);

// Lazy steal-driven range splitting: the one span execution path for
// dynamic_ws, hybrid partitions, loops nested inside either, and stolen
// ranges. The owner publishes the span in its worker's range slot at the
// next free nesting depth (rt::worker::open_span) and consumes it in
// grain-sized chunks with zero allocations and zero shared_ptr traffic;
// thieves split off the upper half via the slot's CAS and seed their own
// next slot recursively, so the divide-and-conquer span bound is
// preserved while the no-steal fast path costs two shared stores per span
// total. Each range_slot::reserve batch is retired once, after its last
// chunk (loop_ctx::run_range). Past rt::worker::kMaxSpanDepth open spans,
// a span runs as serial chunks — the only fallback.
class range_span {
 public:
  // Runs [lo, hi) of the loop_ctx `ctx` on w. Also the range_slot runner
  // thunk that executes a stolen range on the thief, so ctx is untyped and
  // no shared_ptr is taken: the span's iterations are unretired, so the
  // loop cannot join — and ctx cannot die — before the span's own
  // reservations retire them. Nothing touches ctx after the last one.
  static void run(rt::worker& w, void* ctx, std::int64_t lo, std::int64_t hi);
};

// Strict static partitioning: block k is executed serially by worker k and
// nobody else (omp static semantics).
class static_record final : public rt::loop_record {
 public:
  static_record(std::shared_ptr<loop_ctx> ctx, std::uint32_t num_workers);
  bool participate(rt::worker& w) override;
  bool finished() const noexcept override { return ctx_->finished(); }

 private:
  std::shared_ptr<loop_ctx> ctx_;
  std::uint32_t blocks_;
  std::unique_ptr<padded<std::atomic<std::uint8_t>>[]> taken_;
};

// Central queue of fixed-size chunks (omp dynamic semantics).
class shared_queue_record final : public rt::loop_record {
 public:
  shared_queue_record(std::shared_ptr<loop_ctx> ctx, std::int64_t chunk);
  bool participate(rt::worker& w) override;
  bool finished() const noexcept override { return ctx_->finished(); }

 private:
  std::shared_ptr<loop_ctx> ctx_;
  const std::int64_t chunk_;
  alignas(kCacheLine) std::atomic<std::int64_t> next_;
};

// Central queue of decreasing chunks (omp guided semantics):
// chunk = max(min_chunk, remaining / (2 P)).
class guided_record final : public rt::loop_record {
 public:
  guided_record(std::shared_ptr<loop_ctx> ctx, std::int64_t min_chunk,
                std::uint32_t num_workers);
  bool participate(rt::worker& w) override;
  bool finished() const noexcept override { return ctx_->finished(); }

 private:
  std::shared_ptr<loop_ctx> ctx_;
  const std::int64_t min_chunk_;
  const std::uint32_t p_;
  alignas(kCacheLine) std::atomic<std::int64_t> next_;
};

// The hybrid loop (paper Section III). participate() implements the
// DoHybridLoop steal protocol: check the arriving worker's designated
// partition; if unclaimed, run the claim loop under the worker's own ID,
// executing each claimed partition as a stealable divide-and-conquer span.
class hybrid_record final : public rt::loop_record {
 public:
  hybrid_record(std::shared_ptr<loop_ctx> ctx, std::uint32_t partitions);

  // Weighted initial partitioning (loop_options::iteration_weight).
  hybrid_record(std::shared_ptr<loop_ctx> ctx, std::uint32_t partitions,
                const std::function<double(std::int64_t)>& weight);
  bool participate(rt::worker& w) override;
  bool finished() const noexcept override { return ctx_->finished(); }

  // Watchdog escalation (board::request_rescue): latches the rescue sweep
  // on so every subsequent participate() linearly try_claims leftover
  // partitions instead of trusting the "designated claimed => subtree
  // covered" implication — a stalled owner's earmarked partitions become
  // claimable by any helper immediately. Idempotent, callable from any
  // thread, and exactly-once-safe: rescue only ever wins real claim flags.
  void request_rescue() noexcept override {
    rescue_armed_.store(true, std::memory_order_release);
  }
  bool rescue_armed() const noexcept {
    return rescue_armed_.load(std::memory_order_acquire);
  }

  const core::partition_set& partitions() const noexcept { return parts_; }
  // Mutable access so deterministic tests can pre-claim a "straggler's"
  // partition before arming a rescue.
  core::partition_set& partitions() noexcept { return parts_; }

 private:
  void execute_partition(rt::worker& w, std::uint64_t r);

  // Coverage restoration: forced claim failures (faultsim) can leave
  // partitions unclaimed after every claim loop has exited, which the
  // real protocol's "failure implies claimed" invariant rules out; a
  // watchdog rescue (request_rescue) deliberately asks for the same
  // sweep to strip a stalled owner of its unclaimed earmarks. The sweep
  // linearly try_claims leftovers so faults and stalls delay execution
  // but can never lose a partition. Returns true if it ran any.
  bool rescue_sweep(rt::worker& w);

  std::shared_ptr<loop_ctx> ctx_;
  core::partition_set parts_;
  std::atomic<bool> rescue_armed_{false};
};

}  // namespace hls::sched
