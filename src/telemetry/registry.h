// The telemetry registry: one per runtime, one worker_state per worker.
//
// Three layers, from cheapest to richest:
//
//   1. counters (counters.h)   — always on; relaxed per-worker atomics
//      with a consistent snapshot/delta API (totals(), counter_set
//      arithmetic). Each field is monotonic, so repeated snapshots taken
//      while workers run never go backwards.
//   2. histograms (histogram.h) — always on; power-of-two buckets for
//      claim-sequence length and steal-probe counts (chunk durations are
//      recorded only while event tracing is on, to keep clock reads off
//      the always-on path).
//   3. event rings (events.h)  — off by default; per-worker timestamped
//      scheduler events behind a runtime toggle (enable_events) and a
//      compile-time kill switch (-DHLS_TELEMETRY_NO_EVENTS), exported as
//      Chrome trace-event JSON by chrome_trace.h.
//
// The registry also runs the paper's Lemma 4 as a live online assertion:
// every completed hybrid claim sequence is checked against the
// lg R + 1 bound, and violations bump a counter and fire a hook.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/counters.h"
#include "telemetry/events.h"
#include "telemetry/histogram.h"
#include "util/bits.h"
#include "util/thread_safety.h"

namespace hls::telemetry {

inline std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class registry;
class loop_profiler;

// An event together with the worker that recorded it (drained form).
struct worker_event {
  std::uint32_t worker = 0;
  event ev;
};

// Per-worker telemetry state. Written only by the owning worker (except
// for the rare registry-side setup), read by anyone.
struct worker_state {
  atomic_counter_set counters;

  // Always-on histograms.
  pow2_histogram claim_seq_hist;    // max consecutive failed claims + 1
  pow2_histogram steal_probe_hist;  // victim probes per steal round

  // Populated only while event tracing is on (needs clock reads).
  pow2_histogram chunk_ns_hist;  // chunk body duration, ns

  // Always-on: latency from a notified unpark to the first chunk this
  // worker starts afterwards (the push-based work-sharing baseline). The
  // park path already reads the clock, so arming costs nothing; the only
  // extra clock read happens on the first chunk after a wake.
  pow2_histogram wake_to_chunk_hist;

  std::uint32_t worker_id() const noexcept { return id_; }

  // True when event tracing is enabled (constant false under the
  // compile-time kill switch). Call once per recording site and skip the
  // clock reads and the emit when off.
  bool events_on() const noexcept;  // defined after registry

  // Nanoseconds since the registry epoch.
  std::uint64_t now() const noexcept { return steady_now_ns() - epoch_ns_; }

  // Owner thread only; call only when events_on().
  void emit(const event& e) noexcept {
    if (event_ring* r = ring_.load(std::memory_order_relaxed)) r->emit(e);
  }

  // Records one completed pass through the hybrid claim loop: updates the
  // claim counters/histogram and runs the live Lemma 4 check.
  void note_claim_sequence(std::uint64_t successes, std::uint64_t failures,
                           std::uint64_t max_consec_failures,
                           std::uint64_t partitions) noexcept;

  // ---- wake-to-first-chunk latency (owner thread only) ---------------
  // The park path calls mark_woken(t) when a blocked park ends because of
  // a notify; the chunk path calls note_chunk_started(t) on the next chunk
  // begin, which records t - wake into wake_to_chunk_hist and disarms.
  // Timeout/stop wakeups call clear_pending_wake() instead. All plain
  // fields: only the owning worker touches them.
  void mark_woken(std::uint64_t t_ns) noexcept {
    pending_wake_ns_ = t_ns;
    wake_pending_ = true;
  }
  void clear_pending_wake() noexcept { wake_pending_ = false; }
  bool wake_pending() const noexcept { return wake_pending_; }
  void note_chunk_started(std::uint64_t t_ns) noexcept {
    wake_pending_ = false;
    const std::uint64_t gap =
        t_ns >= pending_wake_ns_ ? t_ns - pending_wake_ns_ : 0;
    wake_to_chunk_hist.record(gap);
  }

 private:
  friend class registry;
  registry* owner_ = nullptr;
  std::atomic<event_ring*> ring_{nullptr};
  std::uint64_t epoch_ns_ = 0;
  std::uint32_t id_ = 0;
  std::uint64_t pending_wake_ns_ = 0;
  bool wake_pending_ = false;
};

class registry {
 public:
  // Called when a claim sequence exceeds the Lemma 4 bound. Must be
  // async-signal-lean: it runs on the worker that closed the sequence.
  using lemma4_hook = void (*)(std::uint32_t worker, std::uint64_t seq_len,
                               std::uint64_t partitions);

  static constexpr std::size_t kDefaultRingCapacity = 1 << 13;

  explicit registry(std::uint32_t num_workers);

  registry(const registry&) = delete;
  registry& operator=(const registry&) = delete;

  std::uint32_t num_workers() const noexcept { return num_workers_; }
  worker_state& of(std::uint32_t w) noexcept { return states_[w]; }
  const worker_state& of(std::uint32_t w) const noexcept { return states_[w]; }

  // The service lane: one extra worker_state owned by the runtime's
  // service threads (today: the health watchdog). It follows the same
  // single-writer rule as a worker lane — only one service thread may
  // bump it — and its id is num_workers() (the trace exporter names that
  // tid "watchdog"). Included in totals()/events but not in of_worker's
  // 0..num_workers()-1 range.
  worker_state& service() noexcept { return states_[num_workers_]; }
  const worker_state& service() const noexcept {
    return states_[num_workers_];
  }

  std::uint64_t now() const noexcept { return steady_now_ns() - epoch_ns_; }
  std::uint64_t epoch_ns() const noexcept { return epoch_ns_; }

  // ---- counters: consistent snapshot / delta API --------------------
  counter_set totals() const noexcept {
    counter_set t;
    for (std::uint32_t w = 0; w <= num_workers_; ++w) {  // + service lane
      t += states_[w].counters.snapshot();
    }
    return t;
  }
  counter_set of_worker(std::uint32_t w) const noexcept {
    return states_[w].counters.snapshot();
  }

  histogram_snapshot claim_seq_histogram() const noexcept {
    return merged(&worker_state::claim_seq_hist);
  }
  histogram_snapshot steal_probe_histogram() const noexcept {
    return merged(&worker_state::steal_probe_hist);
  }
  histogram_snapshot chunk_ns_histogram() const noexcept {
    return merged(&worker_state::chunk_ns_hist);
  }
  histogram_snapshot wake_to_chunk_histogram() const noexcept {
    return merged(&worker_state::wake_to_chunk_hist);
  }

  // ---- loop profiler hookup -----------------------------------------
  // The registry does not own the profiler (a run_session or test does);
  // it only publishes the pointer so parallel_for can find it with one
  // relaxed load. Install nullptr to turn profiling off. The caller must
  // keep the profiler alive until no loop can still be running.
  void set_profiler(loop_profiler* p) noexcept {
    profiler_.store(p, std::memory_order_release);
  }
  loop_profiler* profiler() const noexcept {
    return profiler_.load(std::memory_order_relaxed);
  }

  // ---- event tracing ------------------------------------------------
  // Allocates the per-worker rings on first use and turns recording on.
  // Safe to call while workers run; a no-op under the compile-time kill
  // switch. Rings, once allocated, live until the registry dies (workers
  // may hold references), so capacity is fixed by the first call.
  void enable_events(std::size_t ring_capacity = kDefaultRingCapacity);
  void disable_events() noexcept;

  bool events_enabled() const noexcept {
#ifdef HLS_TELEMETRY_NO_EVENTS
    return false;
#else
    return events_on_.load(std::memory_order_acquire);
#endif
  }

  // All retained events, merged across workers and sorted by timestamp.
  // drain_events additionally forgets them (the next drain starts fresh).
  std::vector<worker_event> collect_events() const;
  std::vector<worker_event> drain_events();

  // ---- loop labels (Chrome trace span names) ------------------------
  // Interns a label, returning a stable id >= 1 (0 means "no label").
  int intern_label(const std::string& s);
  std::string label(int id) const;  // "" for unknown ids

  // ---- Lemma 4 live check -------------------------------------------
  std::uint64_t lemma4_violations() const noexcept {
    return lemma4_violations_.load(std::memory_order_relaxed);
  }
  void set_lemma4_hook(lemma4_hook h) noexcept {
    lemma4_hook_.store(h, std::memory_order_release);
  }
  // The check itself (exposed for tests): a claim sequence with
  // max_consec_failures consecutive failed claims over `partitions`
  // partitions violates Lemma 4 iff its length exceeds lg R + 1.
  void lemma4_check(std::uint32_t worker, std::uint64_t max_consec_failures,
                    std::uint64_t partitions) noexcept;

 private:
  histogram_snapshot merged(pow2_histogram worker_state::* h) const noexcept {
    histogram_snapshot s;
    for (std::uint32_t w = 0; w <= num_workers_; ++w) {  // + service lane
      s += (states_[w].*h).snapshot();
    }
    return s;
  }

  std::uint32_t num_workers_;
  std::uint64_t epoch_ns_;
  std::unique_ptr<worker_state[]> states_;

  std::atomic<bool> events_on_{false};
  mutable annotated_mutex setup_mu_;  // ring allocation + label table
  std::vector<std::unique_ptr<event_ring>> rings_ HLS_GUARDED_BY(setup_mu_);
  std::vector<std::string> labels_ HLS_GUARDED_BY(setup_mu_);

  std::atomic<std::uint64_t> lemma4_violations_{0};
  std::atomic<lemma4_hook> lemma4_hook_{nullptr};
  std::atomic<loop_profiler*> profiler_{nullptr};
};

inline bool worker_state::events_on() const noexcept {
  return owner_ != nullptr && owner_->events_enabled();
}

inline void worker_state::note_claim_sequence(
    std::uint64_t successes, std::uint64_t failures,
    std::uint64_t max_consec_failures, std::uint64_t partitions) noexcept {
  bump(counters.claim_sequences);
  bump(counters.claims_ok, successes);
  bump(counters.claims_failed, failures);
  const std::uint64_t seq_len = max_consec_failures + 1;
  claim_seq_hist.record(seq_len);
  raise_max(counters.max_claim_seq_len, seq_len);
  if (successes > 0 && owner_ != nullptr) {
    owner_->lemma4_check(id_, max_consec_failures, partitions);
  }
}

}  // namespace hls::telemetry
