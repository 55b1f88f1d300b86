// The handoff mailbox protocol core (claim/publish/take cycle,
// exactly-once under contention), kept only for loopbench's wake-latency
// ladder; the parking lot's targeted unpark_at edge; and the default wake
// path: a wide span wakes a parked peer, which joins through a range
// steal.
#include "runtime/handoff.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "runtime/parking.h"
#include "runtime/runtime.h"
#include "sched/loop.h"

namespace hls::rt {
namespace {

using namespace std::chrono_literals;

// ---- mailbox protocol core -------------------------------------------

TEST(HandoffSlot, ClaimPublishTakeCycle) {
  handoff_slot box;
  EXPECT_FALSE(box.full());
  handoff_item out;
  EXPECT_FALSE(box.try_take(out));  // empty: nothing to take

  ASSERT_TRUE(box.try_claim());
  EXPECT_FALSE(box.try_claim());  // claimed: second donor bounces
  EXPECT_FALSE(box.full());       // claimed-but-unpublished is invisible

  handoff_item it;
  it.k = handoff_item::kind::range;
  it.donor = 3;
  it.lo = 100;
  it.hi = 200;
  box.publish(it);
  EXPECT_TRUE(box.full());
  EXPECT_FALSE(box.try_claim());  // full: donors bounce too

  ASSERT_TRUE(box.try_take(out));
  EXPECT_EQ(out.donor, 3u);
  EXPECT_EQ(out.lo, 100);
  EXPECT_EQ(out.hi, 200);
  EXPECT_FALSE(box.full());
  EXPECT_FALSE(box.try_take(out));  // exactly-once: second take bounces

  // abort_claim releases a claimed-but-unfilled slot for the next donor.
  ASSERT_TRUE(box.try_claim());
  box.abort_claim();
  EXPECT_TRUE(box.try_claim());
}

// Exactly-once under contention: one donor publishes a sequence of
// payloads while several takers race for them; each payload is taken
// exactly once and no payload is lost.
TEST(HandoffSlot, ExactlyOnceUnderContention) {
  constexpr int kPayloads = 2000;
  constexpr int kTakers = 3;
  handoff_slot box;
  std::vector<std::atomic<int>> taken(kPayloads);
  for (auto& t : taken) t.store(0);
  std::atomic<bool> done{false};

  std::vector<std::thread> takers;
  for (int t = 0; t < kTakers; ++t) {
    takers.emplace_back([&] {
      handoff_item out;
      while (!done.load(std::memory_order_acquire) || box.full()) {
        if (box.try_take(out)) {
          taken[static_cast<std::size_t>(out.lo)].fetch_add(1);
        }
      }
    });
  }

  for (int i = 0; i < kPayloads; ++i) {
    // The donor spins for an empty slot, so no payload is dropped.
    while (!box.try_claim()) {
    }
    handoff_item it;
    it.lo = i;
    box.publish(it);
  }
  // Drain: all published payloads observed before stopping the takers.
  while (box.full()) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  for (auto& t : takers) t.join();

  for (int i = 0; i < kPayloads; ++i) {
    EXPECT_EQ(taken[static_cast<std::size_t>(i)].load(), 1) << "payload " << i;
  }
}

// ---- parking lot: targeted wake -------------------------------------

TEST(ParkingTargeted, UnparkAtDeliversBetweenPrepareAndPark) {
  parking_lot pl(2);
  const std::uint32_t ticket = pl.prepare_park(1);
  EXPECT_TRUE(pl.unpark_at(1));
  EXPECT_FALSE(pl.unpark_at(1));  // unconsumed wake: not eligible again
  const parking_lot::park_result res = pl.park(1, ticket, 10ms);
  EXPECT_EQ(res.reason, parking_lot::wake_reason::notified);
  EXPECT_FALSE(res.waited);
}

// A targeted wake to a slot with no waiter reports failure, and the
// deposit is still there to take back.
TEST(ParkingTargeted, FailedUnparkAtLetsTheDonorReclaim) {
  parking_lot pl(2);
  handoff_slot box;
  ASSERT_TRUE(box.try_claim());
  handoff_item it;
  it.lo = 7;
  it.hi = 9;
  box.publish(it);
  EXPECT_FALSE(pl.unpark_at(1));  // worker 1 is active, not parked
  handoff_item back;
  ASSERT_TRUE(box.try_take(back));  // donor wins the reclaim
  EXPECT_EQ(back.lo, 7);
  EXPECT_FALSE(box.full());
}

// ---- the default wake path ------------------------------------------

// A wide span posted while the peers are parked sends a plain wake; the
// woken peer finds the work by probing and joins through a range steal.
// Every iteration still runs exactly once. A few rounds absorb scheduler
// noise on loaded hosts (a peer that has not parked yet joins without a
// wake).
TEST(DefaultWakePath, WideSpanWakesParkedPeerThatJoinsByRangeSteal) {
  constexpr std::int64_t kN = 1 << 14;
  runtime rt(4);
  worker_stats total{};
  for (int round = 0; round < 50; ++round) {
    std::this_thread::sleep_for(2ms);  // let the peers park
    std::vector<std::atomic<int>> hits(kN);
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    const loop_result res =
        for_each(rt, 0, kN, policy::dynamic_ws, [&](std::int64_t i) {
          hits[static_cast<std::size_t>(i)].fetch_add(
              1, std::memory_order_relaxed);
        });
    ASSERT_TRUE(res.ok());
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "iteration " << i << " round " << round;
    }
    total = rt.stats_snapshot();
    if (total.wakes_sent > 0 && total.range_steals > 0) break;
  }
  EXPECT_GT(total.wakes_sent, 0u);
  EXPECT_GT(total.range_steals, 0u);
  EXPECT_EQ(total.handoffs_sent, 0u);
  EXPECT_EQ(total.handoffs_consumed, 0u);
}

}  // namespace
}  // namespace hls::rt
