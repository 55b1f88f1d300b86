// Per-reservation completion accounting: every claimed unit of a loop (a
// range_slot reservation, one participate() call's queue chunks) runs its
// chunks and then retires them with one shared RMW. These tests pin the
// invariants that batching must keep, for each policy that batches:
//
//   * the completion edge follows the last body — parallel_for never
//     returns while a body of a multi-chunk reservation is still running;
//   * a body exception mid-reservation still joins and rethrows, and every
//     iteration is either executed or counted as skipped;
//   * a cancel mid-reservation reports skipped == N - executed;
//   * under seeded faults (delay_chunk, range_fail) plus body throws, no
//     iteration runs twice and none is lost from the accounting;
//   * the bare per-reservation walk (chaos, events and trace off) and the
//     instrumented per-chunk walk (run_chunk) give the same skip and
//     counter totals, and events switched on between two loops trace
//     every chunk of the second.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "faultsim/faultsim.h"
#include "runtime/worker.h"
#include "sched/loop.h"
#include "sched/policies.h"

namespace hls {
namespace {

using namespace std::chrono_literals;

constexpr std::uint32_t kWorkers = 4;

// Grain 1 everywhere: range reservations hold max(1, remaining / 8)
// chunks and a queue participant claims many one-iteration chunks, so
// nearly every retire covers several bodies.
loop_options fine_options() {
  loop_options opt;
  opt.grain = 1;
  opt.chunk = 1;
  opt.min_chunk = 1;
  opt.partitions = kWorkers;
  return opt;
}

// Drives one loop the way parallel_for does, but hands the loop_ctx back
// so a test can read its skip accounting even after a body threw (the
// exception path of parallel_for returns no loop_result).
std::shared_ptr<sched::loop_ctx> drive(
    rt::runtime& rt, policy pol, std::int64_t n, chunk_body body,
    std::int64_t grain = 1, const std::atomic<bool>* cancel = nullptr) {
  auto ctx = std::make_shared<sched::loop_ctx>(0, n, body, grain, nullptr);
  ctx->cancel = cancel;
  rt::worker& me = rt.current_worker();
  if (pol == policy::dynamic_ws) {
    sched::range_span::run(me, ctx.get(), 0, n);
    me.work_until([&] { return ctx->finished(); });
    return ctx;
  }
  std::shared_ptr<rt::loop_record> rec;
  if (pol == policy::dynamic_shared) {
    rec = std::make_shared<sched::shared_queue_record>(ctx, 1);
  } else if (pol == policy::guided) {
    rec = std::make_shared<sched::guided_record>(ctx, 1, kWorkers);
  } else {
    rec = std::make_shared<sched::hybrid_record>(ctx, kWorkers);
  }
  const int slot = rt.loop_board().post(rec, me.id());
  EXPECT_GE(slot, 0);
  rt.notify_work();
  rec->participate(me);
  me.work_until([&] { return ctx->finished(); });
  rt.loop_board().clear(slot);
  return ctx;
}

class RetireBatch : public ::testing::TestWithParam<policy> {};

TEST_P(RetireBatch, PosterNeverReturnsBeforeTheLastBody) {
  rt::runtime rt(kWorkers);
  constexpr std::int64_t kN = 2048;
  for (int rep = 0; rep < 5; ++rep) {
    // Plain bytes, not atomics: the only ordering between a body's write
    // and the reads below is the loop's own completion edge, so a retire
    // that overtook a body shows up as a wrong value (and as a race under
    // TSAN).
    std::vector<char> done(kN, 0);
    std::atomic<bool> last_returned{false};
    parallel_for(
        rt, 0, kN, GetParam(),
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i) {
            if (i == kN - 1) {
              std::this_thread::sleep_for(20ms);
              last_returned.store(true, std::memory_order_relaxed);
            } else if (i % 256 == 255) {
              std::this_thread::sleep_for(1ms);
            }
            done[static_cast<std::size_t>(i)] = 1;
          }
        },
        fine_options());
    ASSERT_TRUE(last_returned.load(std::memory_order_relaxed));
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(done[static_cast<std::size_t>(i)], 1) << "iteration " << i;
    }
  }
}

TEST_P(RetireBatch, BodyExceptionMidReservationJoinsAndAccounts) {
  rt::runtime rt(kWorkers);
  constexpr std::int64_t kN = 4096;
  // Iteration 5 sits inside the first reservation of every policy at
  // grain 1 (a range reservation of N / 8, or one queue participant's run).
  constexpr std::int64_t kThrowAt = 5;
  std::atomic<std::int64_t> entered{0};
  std::atomic<std::int64_t> returned{0};
  std::atomic<std::int64_t> thrown{0};  // size of the throwing chunk
  const auto body = [&](std::int64_t lo, std::int64_t hi) {
    entered.fetch_add(hi - lo, std::memory_order_relaxed);
    std::this_thread::sleep_for(2us);
    if (lo <= kThrowAt && kThrowAt < hi) {
      thrown.store(hi - lo, std::memory_order_relaxed);
      throw std::runtime_error("mid");
    }
    returned.fetch_add(hi - lo, std::memory_order_relaxed);
  };

  // Through parallel_for: the loop joins (every body that started has
  // returned or thrown) before the first exception is rethrown.
  EXPECT_THROW(parallel_for(rt, 0, kN, GetParam(), body, fine_options()),
               std::runtime_error);
  EXPECT_EQ(entered.load(), returned.load() + thrown.load());
  EXPECT_LT(entered.load(), kN);

  // The same loop on a kept loop_ctx: executed + skipped == N exactly.
  entered.store(0);
  returned.store(0);
  auto ctx = drive(rt, GetParam(), kN, body);
  EXPECT_TRUE(ctx->finished());
  EXPECT_EQ(ctx->remaining.load(), 0);
  EXPECT_EQ(entered.load() + ctx->skipped.load(), kN);
  EXPECT_GT(ctx->skipped.load(), 0);
  EXPECT_THROW(ctx->rethrow_if_failed(), std::runtime_error);
}

TEST_P(RetireBatch, CancelMidReservationAccountsEverySkippedIteration) {
  rt::runtime rt(kWorkers);
  constexpr std::int64_t kN = 4096;
  for (int rep = 0; rep < 5; ++rep) {
    cancel_source src;
    loop_options opt = fine_options();
    opt.cancel = src.token();
    std::atomic<std::int64_t> executed{0};
    const loop_result res = parallel_for(
        rt, 0, kN, GetParam(),
        [&](std::int64_t lo, std::int64_t hi) {
          if (lo <= 7 && 7 < hi) src.request_cancel();
          std::this_thread::sleep_for(2us);
          executed.fetch_add(hi - lo, std::memory_order_relaxed);
        },
        opt);
    EXPECT_EQ(res.status, loop_status::cancelled);
    EXPECT_LT(executed.load(), kN);
    EXPECT_EQ(res.skipped, kN - executed.load());
  }
}

TEST_P(RetireBatch, FaultSweepKeepsEveryIterationExactlyOnce) {
  rt::runtime rt(kWorkers);
  constexpr std::int64_t kN = 1024;
  std::uint64_t range_faults = 0;
  std::uint64_t delays = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    auto cfg = faultsim::config::parse(
        "seed=" + std::to_string(seed) +
        ",delay_chunk=0.02,delay_us=20,range_fail=0.3");
    ASSERT_TRUE(cfg.has_value());
    auto inj = std::make_shared<faultsim::injector>(*cfg, kWorkers);
    rt.set_chaos(inj);
    // Every fourth seed also throws from one seed-chosen iteration.
    const std::int64_t throw_at =
        seed % 4 == 0 ? static_cast<std::int64_t>(seed * 7919 % kN) : -1;
    std::vector<std::atomic<int>> hits(kN);
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    auto ctx = drive(rt, GetParam(), kN, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                    std::memory_order_relaxed);
      }
      if (lo <= throw_at && throw_at < hi) throw std::runtime_error("seeded");
    });
    std::int64_t executed = 0;
    for (std::int64_t i = 0; i < kN; ++i) {
      const int h = hits[static_cast<std::size_t>(i)].load();
      ASSERT_LE(h, 1) << "seed " << seed << " iteration " << i;
      executed += h;
    }
    ASSERT_EQ(ctx->remaining.load(), 0) << "seed " << seed;
    ASSERT_EQ(executed + ctx->skipped.load(), kN) << "seed " << seed;
    if (throw_at < 0) {
      ASSERT_EQ(executed, kN) << "seed " << seed;
    } else {
      EXPECT_THROW(ctx->rethrow_if_failed(), std::runtime_error);
    }
    range_faults += inj->fired(faultsim::hook::range_steal);
    delays += inj->fired(faultsim::hook::delay_chunk);
  }
  rt.set_chaos(nullptr);
  EXPECT_GT(delays, 0u);
  if (GetParam() == policy::dynamic_ws || GetParam() == policy::hybrid) {
    EXPECT_GT(range_faults, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Batched, RetireBatch,
                         ::testing::Values(policy::dynamic_ws, policy::hybrid,
                                           policy::dynamic_shared,
                                           policy::guided),
                         [](const auto& info) {
                           return std::string(policy_name(info.param));
                         });

// ------------------------------------------------- bare vs per-chunk walk

enum class stop_kind { cancel, body_throw };

// What one loop left behind: its iterations and the counter deltas both
// walks must agree on.
struct walk_totals {
  std::int64_t executed = 0;
  std::int64_t skipped = 0;
  std::uint64_t chunks_run = 0;
  std::uint64_t cancelled_chunks = 0;
  std::uint64_t exceptions_caught = 0;
};

// Runs one loop whose stop (a cancel, or a body throw) lands mid-way
// through the first reservation, with event tracing on or off. Events on
// sends every reservation through run_chunk; off, through the bare walk.
walk_totals run_walk(rt::runtime& rt, policy pol, stop_kind kind,
                     bool events, std::int64_t n, std::int64_t grain) {
  // Inside the first reservation at any P: a range reservation takes
  // max(grain, remaining / 8) iterations, and each of the four hybrid
  // partitions spans n / 4.
  constexpr std::int64_t kStopAt = 40;
  std::atomic<bool> cancel{false};
  std::atomic<std::int64_t> executed{0};
  if (events) rt.tel().enable_events();
  const telemetry::counter_set before = rt.tel().totals();
  auto ctx = drive(
      rt, pol, n,
      [&](std::int64_t lo, std::int64_t hi) {
        executed.fetch_add(hi - lo, std::memory_order_relaxed);
        if (lo <= kStopAt && kStopAt < hi) {
          if (kind == stop_kind::body_throw) throw std::runtime_error("mid");
          cancel.store(true, std::memory_order_relaxed);
        }
      },
      grain, kind == stop_kind::cancel ? &cancel : nullptr);
  const telemetry::counter_set d = rt.tel().totals() - before;
  if (events) {
    rt.tel().disable_events();
    rt.tel().drain_events();
  }
  EXPECT_TRUE(ctx->finished());
  if (kind == stop_kind::body_throw) {
    EXPECT_THROW(ctx->rethrow_if_failed(), std::runtime_error);
  } else {
    EXPECT_EQ(ctx->stop.load(), sched::loop_ctx::kCancelled);
  }
  return {executed.load(), ctx->skipped.load(), d.chunks_run,
          d.cancelled_chunks, d.exceptions_caught};
}

struct walk_case {
  policy pol;
  stop_kind kind;
};

class WalkAgreement : public ::testing::TestWithParam<walk_case> {};

// One worker makes a loop deterministic, so the two walks must agree
// exactly. Grain 3 over an n that is not a multiple of it leaves short
// chunks at reservation ends, which the bare walk counts per reservation.
TEST_P(WalkAgreement, BareAndPerChunkWalksGiveTheSameTotals) {
  rt::runtime rt(1);
  constexpr std::int64_t kN = 4099;
  constexpr std::int64_t kGrain = 3;
  const walk_case c = GetParam();
  const walk_totals bare = run_walk(rt, c.pol, c.kind, false, kN, kGrain);
  const walk_totals walked = run_walk(rt, c.pol, c.kind, true, kN, kGrain);
  for (const walk_totals& t : {bare, walked}) {
    EXPECT_EQ(t.executed + t.skipped, kN);
    EXPECT_GT(t.skipped, 0);
    EXPECT_GT(t.cancelled_chunks, 0u);
    EXPECT_GE(t.chunks_run, static_cast<std::uint64_t>(kN / kGrain));
    EXPECT_EQ(t.exceptions_caught, c.kind == stop_kind::body_throw ? 1u : 0u);
  }
  EXPECT_EQ(bare.executed, walked.executed);
  EXPECT_EQ(bare.skipped, walked.skipped);
  EXPECT_EQ(bare.chunks_run, walked.chunks_run);
  EXPECT_EQ(bare.cancelled_chunks, walked.cancelled_chunks);
  EXPECT_EQ(bare.exceptions_caught, walked.exceptions_caught);
}

// Four workers: who runs what varies, but at grain 1 every iteration is
// one chunk, so either walk counts N chunks, and exactly the skipped ones
// as cancelled.
TEST_P(WalkAgreement, GrainOneCountsEveryIterationAsOneChunk) {
  rt::runtime rt(kWorkers);
  constexpr std::int64_t kN = 4096;
  const walk_case c = GetParam();
  for (const bool events : {false, true}) {
    const walk_totals t = run_walk(rt, c.pol, c.kind, events, kN, 1);
    EXPECT_EQ(t.executed + t.skipped, kN) << "events " << events;
    EXPECT_EQ(t.chunks_run, static_cast<std::uint64_t>(kN))
        << "events " << events;
    EXPECT_EQ(t.cancelled_chunks, static_cast<std::uint64_t>(t.skipped))
        << "events " << events;
    EXPECT_EQ(t.exceptions_caught, c.kind == stop_kind::body_throw ? 1u : 0u)
        << "events " << events;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Walks, WalkAgreement,
    ::testing::Values(walk_case{policy::dynamic_ws, stop_kind::cancel},
                      walk_case{policy::dynamic_ws, stop_kind::body_throw},
                      walk_case{policy::hybrid, stop_kind::cancel},
                      walk_case{policy::hybrid, stop_kind::body_throw}),
    [](const auto& info) {
      return std::string(policy_name(info.param.pol)) +
             (info.param.kind == stop_kind::cancel ? "_cancel" : "_throw");
    });

#ifndef HLS_TELEMETRY_NO_EVENTS
// Events switched on between two loops: the first loop ran bare, and the
// second emits exactly one chunk_span per chunk, covering every iteration
// once.
TEST(WalkSwitch, EnablingEventsBetweenLoopsTracesEveryChunkOfTheNext) {
  rt::runtime rt(kWorkers);
  constexpr std::int64_t kN = 2048;
  const auto noop = [](std::int64_t, std::int64_t) {};
  parallel_for(rt, 0, kN, policy::dynamic_ws, noop, fine_options());
  rt.tel().enable_events();
  rt.tel().drain_events();
  const std::uint64_t chunks_before = rt.tel().totals().chunks_run;
  parallel_for(rt, 0, kN, policy::dynamic_ws, noop, fine_options());
  const std::uint64_t chunks = rt.tel().totals().chunks_run - chunks_before;
  rt.tel().disable_events();
  std::vector<int> covered(kN, 0);
  std::uint64_t spans = 0;
  for (const telemetry::worker_event& e : rt.tel().drain_events()) {
    if (e.ev.kind != telemetry::event_kind::chunk_span) continue;
    ++spans;
    for (std::int64_t i = e.ev.a; i < e.ev.b; ++i) {
      ++covered[static_cast<std::size_t>(i)];
    }
  }
  EXPECT_EQ(chunks, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(spans, chunks);
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(covered[static_cast<std::size_t>(i)], 1) << "iteration " << i;
  }
}
#endif

}  // namespace
}  // namespace hls
