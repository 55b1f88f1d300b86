// Factories for the verification models: small closed scenarios that
// exercise the shipping protocol cores (the exact templates the runtime
// instantiates) under the model-checking harness.
//
// Each factory returns a verify::model for explore(). The `broken_*`
// parameters select a deliberately-miscompiled protocol variant (a Policy
// with one safeguard removed, or a model-side omission of a required
// protocol step); the verification suite proves the harness catches each
// one with a replayable trace, which is the evidence that the passing
// results on the real protocol mean something.
//
// Invariants checked, and where they come from:
//
//   claim      — every partition executed exactly once (Theorem 3) and
//                per-worker max consecutive claim failures <= lg R
//                (Lemma 4), over the real run_claim_loop + fetch_or flags.
//   deque      — work conservation: every pushed task is executed exactly
//                once, no double-execution and no stranded task, over
//                ws_deque_core's push/pop/steal_batch (including the
//                locked near-empty pop and its generation word).
//   range_slot — every iteration of every published span executed exactly
//                once across owner reserve and thief steals, including a
//                close-then-reopen of the same slot; the close() drain is
//                what makes the reopen safe, and the vector-clock checker
//                is what catches its absence.
//   range-depth — the same exactly-once and no-reopen-under-a-reader
//                properties with two nesting depths open at once and a
//                thief probing both (rt::worker's per-depth slots).
//   loop-retire — per-reservation completion accounting: the retired
//                total equals N exactly and the completion edge (remaining
//                reaching 0) happens after every body, so the poster's
//                teardown never races a chunk body.
//   parking    — no lost wakeup: a consumer using the prepare/re-check/
//                park protocol always terminates; skipping the re-check
//                deadlocks (detected, with the interleaving that lost the
//                wake).
#pragma once

#include <cstdint>
#include <memory>

#include "verify/sched.h"

namespace hls::verify {

// Claim protocol of Algorithms 2/3 with `workers` model threads over
// `partitions` flags (power of two, workers <= partitions, workers <= 8).
std::unique_ptr<model> make_claim_model(std::uint32_t workers,
                                        std::uint64_t partitions);

// Owner (push x3, pop-all) vs batch thief on one ws_deque_core.
// broken_no_gen_bump selects deque_policy_no_gen_bump, reintroducing the
// locked-pop ABA (double-executed + stranded tasks).
std::unique_ptr<model> make_deque_model(bool broken_no_gen_bump);

// Owner publishing, consuming, closing and REOPENING one range_slot_core
// span vs a thief probing try_steal. broken_no_drain selects
// range_slot_policy_no_drain, reintroducing the use-after-reopen race the
// close() drain prevents (caught as a vector-clock data race).
std::unique_ptr<model> make_range_slot_model(bool broken_no_drain);

// The 64-bit two-word range_slot layout's split/hi handshake: an owner
// consuming one fine-grained span (announce + committed-hi re-read,
// loss-retreat) vs a thief's tentative BUSY CAS + split re-read.
// broken_no_recheck selects range_slot_policy_no_recheck, committing
// steals without the Dekker split re-read (caught as a double-executed
// iteration).
std::unique_ptr<model> make_range_word_model(bool broken_no_recheck);

// Per-depth range slots: an owner opens, consumes and closes (then
// reopens) an inner span at depth 1 while its outer span at depth 0 stays
// open, against a thief probing both depths shallowest first.
// broken_no_drain selects range_slot_policy_no_drain, so the inner
// slot's reopen races a thief still reading its fields (caught as a
// vector-clock data race).
std::unique_ptr<model> make_range_depth_model(bool broken_no_drain);

// Batched claim-flag bitmap: run_claim_loop over bit-packed fetch_or
// flags (one word, mirroring partition_set's R >= threshold storage) with
// one permanently-lying partition, then the word-at-a-time leftover sweep
// that restores coverage. broken_nonatomic replaces the sweep's fetch_or
// with a load-then-store RMW (caught as a double-executed partition).
std::unique_ptr<model> make_claim_bitmap_model(bool broken_nonatomic);

// Producer/consumer over parking_lot_core. broken_skip_recheck makes the
// consumer park without the post-prepare_park re-check, reintroducing the
// classic lost-wakeup (caught as a deadlock).
std::unique_ptr<model> make_parking_model(bool broken_skip_recheck);

// Steal-backoff nap over parking_lot_core (runtime::backoff_park): the
// consumer re-checks only the completion edge after prepare_park, and
// liveness comes from the retire-time unpark_all broadcast.
// broken_no_broadcast omits that broadcast, leaving the nap to lean on
// the (harness-disabled) backstop timeout — caught as a deadlock.
std::unique_ptr<model> make_backoff_model(bool broken_no_broadcast);

// Push-based work handoff: donor deposit/publish + targeted unpark_at vs
// the owner's consume, a thief's poach, and the donor's failed-wake
// reclaim, over handoff_slot_core + parking_lot_core. Lost work is
// modeled as a deadlock (the donor cannot retire the loop until the
// payload executes). broken_dropped drops the deposit on a failed wake
// with every rescue layer removed (no reclaim, no mailbox term in the
// idle re-check, no poach) — caught as a deadlock with the stranding
// interleaving.
std::unique_ptr<model> make_handoff_model(bool broken_dropped);

// Per-reservation completion accounting (sched::loop_ctx::run_range):
// owner and thief each run a two-chunk reservation whose bodies write
// race-checked outputs, then retire it with one acq_rel fetch_sub; the
// poster waits on finished() and reads every output (the ctx teardown).
// broken_early retires each reservation before its last body (caught as
// an unwritten output or a body/teardown data race).
std::unique_ptr<model> make_loop_retire_model(bool broken_early);

}  // namespace hls::verify
