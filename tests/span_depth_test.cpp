// Nested spans on the per-depth range slots: a loop nested inside a span's
// chunk body publishes its own span one depth further down and stays on
// the lazy, allocation-free path; loops nested past
// rt::worker::kMaxSpanDepth run as serial chunks (the only span fallback,
// counted in alloc_fallbacks) and still complete exactly once with a
// correct loop_result.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "runtime/worker.h"
#include "sched/loop.h"

namespace hls {
namespace {

constexpr std::uint32_t kCapDepth = rt::worker::kMaxSpanDepth;

std::vector<std::atomic<int>> zeroed_hits(std::int64_t n) {
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  return hits;
}

void expect_each_once(const std::vector<std::atomic<int>>& hits) {
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "iteration " << i;
  }
}

TEST(SpanDepth, HybridOuterDynamicWsInnerIsLazyAndExactlyOnce) {
  // The paper's shape: each claimed hybrid partition runs as a span, and
  // the loop nested in its rows is itself a stealable span — published at
  // the next depth, never as deque tasks.
  rt::runtime rt(4);
  constexpr std::int64_t kRows = 64;
  constexpr std::int64_t kCols = 512;
  loop_options outer;
  outer.grain = 1;
  loop_options inner;
  inner.grain = 16;
  const telemetry::counter_set before = rt.tel().totals();
  for (int rep = 0; rep < 10; ++rep) {
    auto hits = zeroed_hits(kRows * kCols);
    const loop_result res = for_each(
        rt, 0, kRows, policy::hybrid,
        [&](std::int64_t r) {
          const loop_result row = for_each(
              rt, 0, kCols, policy::dynamic_ws,
              [&](std::int64_t c) {
                hits[static_cast<std::size_t>(r * kCols + c)].fetch_add(
                    1, std::memory_order_relaxed);
              },
              inner);
          EXPECT_TRUE(row.ok());
        },
        outer);
    ASSERT_TRUE(res.ok());
    expect_each_once(hits);
  }
  const telemetry::counter_set delta = rt.tel().totals() - before;
  EXPECT_EQ(delta.tasks_run, 0u);
  EXPECT_GT(delta.range_splits, 0u);
  EXPECT_EQ(rt.tel().lemma4_violations(), 0u);
}

// Runs `levels` nested dynamic_ws loops of width `width` at grain 1; the
// innermost body marks its cell in `hits` (width^levels cells).
void run_nested(rt::runtime& rt, std::uint32_t levels, std::int64_t width,
                std::vector<std::atomic<int>>& hits) {
  loop_options opt;
  opt.grain = 1;
  std::function<void(std::uint32_t, std::int64_t)> level =
      [&](std::uint32_t depth, std::int64_t prefix) {
        const loop_result res = for_each(
            rt, 0, width, policy::dynamic_ws,
            [&](std::int64_t i) {
              const std::int64_t cell = prefix * width + i;
              if (depth + 1 == levels) {
                hits[static_cast<std::size_t>(cell)].fetch_add(
                    1, std::memory_order_relaxed);
              } else {
                level(depth + 1, cell);
              }
            },
            opt);
        EXPECT_TRUE(res.ok());
      };
  level(0, 0);
}

TEST(SpanDepth, NestedPastDepthCapFallsBackExactlyOnce) {
  // kMaxSpanDepth + 1 levels: the caller opens every slot on its leftmost
  // path (an owner always runs the low end of its own span), so at least
  // the innermost loop on that path runs past the cap. With one worker
  // nothing is stolen and a loop's depth is its nesting level, so exactly
  // the width^kMaxSpanDepth innermost loops fall back, and every span
  // above them closes whole.
  constexpr std::uint32_t kLevels = kCapDepth + 1;
  constexpr std::int64_t kWidth = 4;
  constexpr int kReps = 3;
  std::uint64_t loops_at_cap = 1;
  std::uint64_t spans_above = 0;
  for (std::uint32_t l = 0; l < kCapDepth; ++l) {
    spans_above += loops_at_cap;
    loops_at_cap *= kWidth;
  }
  const std::int64_t cells = static_cast<std::int64_t>(loops_at_cap) * kWidth;
  for (std::uint32_t workers : {1u, 4u}) {
    rt::runtime rt(workers);
    const telemetry::counter_set before = rt.tel().totals();
    for (int rep = 0; rep < kReps; ++rep) {
      auto hits = zeroed_hits(cells);
      run_nested(rt, kLevels, kWidth, hits);
      expect_each_once(hits);
    }
    const telemetry::counter_set delta = rt.tel().totals() - before;
    EXPECT_GT(delta.alloc_fallbacks, 0u) << workers << " workers";
    EXPECT_EQ(delta.tasks_run, 0u) << workers << " workers";
    if (workers == 1) {
      EXPECT_EQ(delta.alloc_fallbacks, kReps * loops_at_cap);
      EXPECT_EQ(delta.spans_unsplit, kReps * spans_above);
    }
  }
}

TEST(SpanDepth, DepthCapFallbackPreservesCancelStatus) {
  // kMaxSpanDepth enclosing spans fill every slot on the caller's leftmost
  // path; the cancellable loop inside them runs as serial chunks on the
  // caller alone, so executed + skipped accounts for every iteration.
  rt::runtime rt(4);
  constexpr std::int64_t kN = 4096;
  cancel_source src;
  loop_options cancellable;
  cancellable.grain = 1;
  cancellable.cancel = src.token();
  std::atomic<std::int64_t> seen{0};
  loop_result inner_res;
  const telemetry::counter_set before = rt.tel().totals();

  loop_options opt;
  opt.grain = 1;
  std::function<void(std::uint32_t)> enclose = [&](std::uint32_t depth) {
    for_each(
        rt, 0, 2, policy::dynamic_ws,
        [&](std::int64_t i) {
          if (i != 0) return;  // the leftmost path is the caller's own
          if (depth + 1 < kCapDepth) {
            enclose(depth + 1);
            return;
          }
          inner_res = for_each(
              rt, 0, kN, policy::dynamic_ws,
              [&](std::int64_t) {
                if (seen.fetch_add(1) == 100) src.request_cancel();
              },
              cancellable);
        },
        opt);
  };
  enclose(0);

  const telemetry::counter_set delta = rt.tel().totals() - before;
  EXPECT_GT(delta.alloc_fallbacks, 0u);
  EXPECT_EQ(inner_res.status, loop_status::cancelled);
  EXPECT_EQ(seen.load(), 101);
  EXPECT_EQ(inner_res.skipped, kN - seen.load());
}

}  // namespace
}  // namespace hls
