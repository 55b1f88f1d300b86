#include "runtime/worker.h"

#include <chrono>
#include <thread>

#include "faultsim/faultsim.h"
#include "runtime/runtime.h"
#include "runtime/task.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace hls::rt {

namespace {
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}
}  // namespace

worker::worker(runtime& rt, std::uint32_t id, std::uint64_t seed,
               telemetry::worker_state& tel)
    : rt_(rt), id_(id), rng_(seed), tel_(tel) {}

void worker::push(task* t) {
  deque_.push(t);
  rt_.notify_work();
}

range_slot* worker::open_span(void* ctx, range_span_runner run,
                              std::int64_t lo, std::int64_t hi,
                              std::int64_t grain) noexcept {
  if (depth_ == kMaxSpanDepth) return nullptr;
  range_slot& slot = ranges_[depth_];
  if (!slot.open(ctx, run, lo, hi, grain)) return nullptr;
  ++depth_;
  return &slot;
}

bool worker::close_span() noexcept { return ranges_[--depth_].close(); }

task* worker::pop_local() {
  if (faultsim::injector* c = rt_.chaos();
      c != nullptr && c->fire(faultsim::hook::deque_pop, id_)) {
    // Skipped, not lost: the task stays queued for the next pop or a thief.
    telemetry::bump(tel_.counters.faults_injected);
    return nullptr;
  }
  return deque_.pop();
}

void worker::run(task* t) {
  telemetry::bump(tel_.counters.tasks_run);
  // Last-resort exception boundary: loop chunks and task_group callables
  // catch their own exceptions, so anything arriving here escaped a raw
  // task's execute(). Swallowing it would lose it and rethrowing would
  // kill the worker thread (std::terminate); instead it parks on the
  // runtime for take_orphan_exception() and the worker survives.
  const auto guarded = [&] {
    try {
      t->execute(*this);
    } catch (...) {
      telemetry::bump(tel_.counters.exceptions_caught);
      rt_.capture_orphan(std::current_exception());
    }
  };
  if (tel_.events_on()) {
    const std::uint64_t t0 = tel_.now();
    guarded();
    tel_.emit({t0, tel_.now() - t0, 0, 0, telemetry::event_kind::task_span});
  } else {
    guarded();
  }
  delete t;
}

void worker::drain_local() {
  while (task* t = pop_local()) run(t);
}

bool worker::try_steal_round() {
  const std::uint32_t p = rt_.num_workers();
  if (p <= 1) return false;
  faultsim::injector* chaos = rt_.chaos();
  if (chaos != nullptr && chaos->maybe_delay(id_)) {
    telemetry::bump(tel_.counters.faults_injected);
  }
  const std::uint64_t t0 = tel_.now();
  std::uint64_t probes = 0;

  // Probes one victim; on success the stolen range or task runs here.
  const auto probe = [&](std::uint32_t v) -> bool {
    ++probes;
    if (chaos != nullptr && chaos->fire(faultsim::hook::steal_probe, id_)) {
      // Forced empty probe: counts as a miss, the victim keeps its task.
      telemetry::bump(tel_.counters.faults_injected);
      return false;
    }
    // The victim's range slots outrank its deque: stealing half of a live
    // span is one CAS, no allocation, and seeds this worker's own next
    // slot (recursive splitting). Shallowest first: an outer span holds
    // the most work. Open depths form a prefix, so the first closed one
    // ends the walk — one relaxed load when the victim has no span open
    // (a racy early stop only costs this probe).
    worker& victim = rt_.worker_at(v);
    for (std::uint32_t d = 0; d < kMaxSpanDepth; ++d) {
      range_slot& rs = victim.range(d);
      if (!rs.looks_open()) break;
      if (chaos != nullptr &&
          chaos->fire(faultsim::hook::range_steal, id_)) {
        // Forced failed split CAS: the span stays whole for the owner.
        telemetry::bump(tel_.counters.faults_injected);
      } else if (range_slot::stolen s = rs.try_steal()) {
        telemetry::bump(tel_.counters.steal_probes, probes);
        telemetry::bump(tel_.counters.range_steals);
        telemetry::bump(tel_.counters.steal_latency_ns, tel_.now() - t0);
        tel_.steal_probe_hist.record(probes);
        if (tel_.events_on()) {
          tel_.emit({tel_.now(), 0, static_cast<std::int64_t>(v),
                     s.hi - s.lo, telemetry::event_kind::range_steal});
        }
        s.run(*this, s.ctx, s.lo, s.hi);
        return true;
      }
    }
    task* t = victim.deque().steal();
    if (t == nullptr) return false;
    telemetry::bump(tel_.counters.steal_probes, probes);
    telemetry::bump(tel_.counters.steals);
    telemetry::bump(tel_.counters.steal_latency_ns, tel_.now() - t0);
    tel_.steal_probe_hist.record(probes);
    if (tel_.events_on()) {
      tel_.emit({tel_.now(), 0, static_cast<std::int64_t>(v),
                 static_cast<std::int64_t>(probes),
                 telemetry::event_kind::steal});
    }
    run(t);
    return true;
  };

  // Up to P victims chosen uniformly at random (randomized work stealing,
  // the model behind the paper's Corollary 6; the round bound keeps the
  // idle loop responsive to board posts).
  for (std::uint32_t attempt = 0; attempt < p; ++attempt) {
    const auto victim =
        static_cast<std::uint32_t>(rng_.next_below(p - 1));
    const std::uint32_t v = victim >= id_ ? victim + 1 : victim;
    if (probe(v)) return true;
  }
  telemetry::bump(tel_.counters.steal_probes, probes);
  tel_.steal_probe_hist.record(probes);
  return false;
}

bool worker::try_progress() {
  if (task* t = pop_local()) {
    run(t);
    return true;
  }
  if (rt_.loop_board().visit(*this)) {
    telemetry::bump(tel_.counters.board_participations);
    return true;
  }
  return try_steal_round();
}

void worker::pause(int idle_count, park_predicate done) {
  // Heartbeat at the park boundary: an idle-but-scheduled worker keeps
  // beating through this loop, so the watchdog only sees silence when the
  // thread is truly off-CPU or wedged (runtime/health.h).
  beat();
  if (idle_count == 1) {
    // Progress happened since the last pause streak; restart the backoff
    // ladder from the spin rungs.
    backoff_streak_ = 0;
    backoff_level_ = 0;
  }
  if (idle_count < 4) {
    cpu_relax();
  } else if (idle_count < 16) {
    std::this_thread::yield();
  } else {
    if (faultsim::injector* c = rt_.chaos();
        c != nullptr && c->maybe_delay(faultsim::hook::delay_park, id_)) {
      // Injected pre-park preemption (the delay fault class).
      telemetry::bump(tel_.counters.faults_injected);
    }
    const std::uint64_t t0 = tel_.now();
    // Count only parks that actually blocked: idle_park reports
    // blocked == false when it bailed out in the check-then-park re-check
    // (work or the caller's completion predicate became visible, or the
    // runtime is stopping), and those must not inflate the sleep counter
    // or emit zero-length idle spans.
    hb_parked_.store(1, std::memory_order_relaxed);
    const runtime::park_outcome out = rt_.idle_park(*this, done);
    hb_parked_.store(0, std::memory_order_relaxed);
    if (!out.blocked) {
      // A cancelled park means work is visible but this worker keeps
      // failing to acquire it (all iterations claimed by a straggler, or
      // every split CAS lost). Repeated cancellations are the spinning-
      // thief signature the steal backoff damps.
      if (++backoff_streak_ >= kBackoffAfter) backoff_nap(done);
      return;
    }
    backoff_streak_ = 0;
    backoff_level_ = 0;
    telemetry::bump(tel_.counters.idle_sleeps);
    const std::uint64_t dt = tel_.now() - t0;
    telemetry::bump(tel_.counters.idle_sleep_ns, dt);
    const bool notified = out.reason == parking_lot::wake_reason::notified;
    // A targeted wake that finds no visible work means the work was taken
    // before this worker arrived; tracked so wake efficiency is
    // observable. A wake that delivered a completion edge (the caller's
    // predicate now holds) did its job and is not spurious.
    if (notified && !rt_.work_visible(id_) && !done.satisfied()) {
      telemetry::bump(tel_.counters.wakes_spurious);
    }
    // Arm the wake-to-first-chunk measurement: a notified unpark that did
    // not deliver the completion edge is the "go run loop work" case; the
    // next chunk this worker starts closes the interval (registry.h,
    // wake_to_chunk_hist). Timeout/stop wakeups disarm instead so backstop
    // parks don't pollute the histogram.
    if (notified && !done.satisfied()) {
      tel_.mark_woken(t0 + dt);
    } else {
      tel_.clear_pending_wake();
    }
    if (tel_.events_on()) {
      tel_.emit({t0, dt, notified ? 1 : 0, 0,
                 telemetry::event_kind::idle_span});
    }
  }
}

void worker::backoff_nap(park_predicate done) {
  // Bounded exponential nap with jitter: 2us << level, jittered to
  // 50-150% so synchronized thieves don't re-collide, capped at the park
  // backstop. The nap goes through runtime::backoff_park (announced
  // waiter, completion-predicate re-check, bounded timeout), so no wake
  // edge is lost — see the model-checked parking-backoff protocol.
  const std::int64_t base_ns = 2'000ll << backoff_level_;
  const std::int64_t cap_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          rt_.options().park_backstop)
          .count();
  std::int64_t nap_ns = base_ns / 2 +
                        static_cast<std::int64_t>(
                            rng_.next_below(static_cast<std::uint64_t>(base_ns)));
  if (nap_ns > cap_ns) nap_ns = cap_ns;
  telemetry::bump(tel_.counters.steal_backoffs);
  hb_parked_.store(1, std::memory_order_relaxed);
  const runtime::park_outcome out =
      rt_.backoff_park(*this, std::chrono::nanoseconds(nap_ns), done);
  hb_parked_.store(0, std::memory_order_relaxed);
  backoff_streak_ = 0;
  if (out.blocked && backoff_level_ < kMaxBackoffLevel) ++backoff_level_;
}

}  // namespace hls::rt
