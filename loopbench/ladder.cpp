// The primitive ladder: direct calls into each scheduler layer's public
// functions, timed at 1 thread (.c1) and at 4 contending threads (.c4).
// Runs only in traced mode, after the timed phase. Threads that are not
// runtime workers are plain std::threads joined before returning.
#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

#include "bench.h"
#include "core/partition_set.h"
#include "runtime/board.h"
#include "runtime/deque.h"
#include "runtime/handoff.h"
#include "runtime/parking.h"
#include "runtime/range_slot.h"
#include "runtime/task.h"
#include "runtime/task_pool.h"
#include "runtime/worker.h"
#include "sched/policies.h"

namespace loopbench {
namespace {

using namespace hls;

class nop_task final : public rt::task {
 public:
  void execute(rt::worker&) override {}
};

// Spin barrier for a fixed team; `timeout` bounds a wait on a team member
// that never arrives (the caller then sees fewer contenders).
class spin_barrier {
 public:
  explicit spin_barrier(std::uint32_t n) : n_(n) {}
  bool wait(std::chrono::milliseconds timeout = std::chrono::seconds(2)) {
    const std::uint32_t gen = gen_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
      arrived_.store(0, std::memory_order_relaxed);
      gen_.fetch_add(1, std::memory_order_release);
      return true;
    }
    const auto until = std::chrono::steady_clock::now() + timeout;
    while (gen_.load(std::memory_order_acquire) == gen) {
      if (std::chrono::steady_clock::now() > until) return false;
    }
    return true;
  }

 private:
  const std::uint32_t n_;
  std::atomic<std::uint32_t> arrived_{0};
  std::atomic<std::uint32_t> gen_{0};
};

// Runs fn(tid) on `n` threads (the caller is tid 0) and joins them.
void on_threads(std::uint32_t n, const std::function<void(std::uint32_t)>& fn) {
  std::vector<std::thread> ts;
  for (std::uint32_t t = 1; t < n; ++t) ts.emplace_back(fn, t);
  fn(0);
  for (auto& t : ts) t.join();
}

double ns_per(std::uint64_t t0, std::uint64_t t1, std::uint64_t ops) {
  return ops > 0 ? static_cast<double>(t1 - t0) / static_cast<double>(ops)
                 : 0.0;
}

// ---- deque ---------------------------------------------------------------

double deque_push_pop_ns() {
  rt::ws_deque d;
  nop_task t;
  constexpr std::uint64_t kOps = 2'000'000;
  const std::uint64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    d.push(&t);
    if (d.pop() == nullptr) std::abort();
  }
  return ns_per(t0, now_ns(), kOps);
}

// One owner keeps the deque stocked; c - 1 thieves time their steal calls
// (hits and misses alike).
double deque_steal_ns(std::uint32_t c) {
  if (c < 2) return 0.0;
  rt::ws_deque d;
  nop_task t;
  std::atomic<bool> done{false};
  std::atomic<std::uint32_t> finished{0};
  std::vector<double> per(c, 0.0);
  spin_barrier start(c);
  constexpr std::uint64_t kSteals = 400'000;
  on_threads(c, [&](std::uint32_t tid) {
    start.wait();
    if (tid == 0) {
      while (!done.load(std::memory_order_relaxed)) {
        if (d.size_estimate() < 64) {
          d.push(&t);
        } else {
          d.pop();
        }
      }
      while (d.pop() != nullptr) {
      }
      return;
    }
    const std::uint64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < kSteals; ++i) (void)d.steal();
    per[tid] = ns_per(t0, now_ns(), kSteals);
    if (finished.fetch_add(1) + 1 == c - 1) done.store(true);
  });
  double s = 0;
  for (std::uint32_t i = 1; i < c; ++i) s += per[i];
  return c > 1 ? s / (c - 1) : 0.0;
}

double task_pool_alloc_ns() {
  rt::block_pool pool;
  constexpr std::uint64_t kOps = 2'000'000;
  const std::uint64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    void* p = pool.allocate();
    rt::block_pool::deallocate(p);
  }
  return ns_per(t0, now_ns(), kOps);
}

// ---- range slot ----------------------------------------------------------

void null_runner(rt::worker&, void*, std::int64_t, std::int64_t) {}

// Owner reserve loop over reopened spans, with c - 1 thieves calling
// try_steal on the same slot. Returns {reserve ns, steal ns}.
std::pair<double, double> range_slot_ns(std::uint32_t c) {
  rt::range_slot slot;
  std::atomic<bool> done{false};
  std::vector<double> per(c, 0.0);
  spin_barrier start(c);
  constexpr std::uint64_t kReserves = 400'000;
  constexpr std::int64_t kSpan = std::int64_t{1} << 40;
  on_threads(c, [&](std::uint32_t tid) {
    start.wait();
    if (tid == 0) {
      std::uint64_t calls = 0;
      const std::uint64_t t0 = now_ns();
      while (calls < kReserves) {
        if (!slot.open(nullptr, &null_runner, 0, kSpan, 1)) std::abort();
        std::int64_t cur = 0;
        for (;;) {
          const std::int64_t next = slot.reserve(cur);
          ++calls;
          if (next == cur) break;
          cur = next;
        }
        slot.close();
      }
      per[0] = ns_per(t0, now_ns(), calls);
      done.store(true);
      return;
    }
    std::uint64_t calls = 0;
    const std::uint64_t t0 = now_ns();
    while (!done.load(std::memory_order_relaxed)) {
      (void)slot.try_steal();
      ++calls;
    }
    per[tid] = ns_per(t0, now_ns(), calls);
  });
  double steal = 0;
  for (std::uint32_t i = 1; i < c; ++i) steal += per[i];
  return {per[0], c > 1 ? steal / (c - 1) : 0.0};
}

// ---- partition claims ----------------------------------------------------

// c threads claim every partition of 256 fresh 32-partition sets, each in
// its own XOR order (the claim loop's visiting order). Per-claim ns.
double try_claim_ns(std::uint32_t c) {
  constexpr std::size_t kSets = 256;
  constexpr std::uint32_t kParts = 32;
  constexpr int kPasses = 40;
  std::vector<std::unique_ptr<core::partition_set>> sets(kSets);
  std::vector<double> per(c, 0.0);
  spin_barrier bar(c);
  on_threads(c, [&](std::uint32_t tid) {
    double total = 0;
    for (int pass = 0; pass < kPasses; ++pass) {
      if (tid == 0) {
        for (auto& s : sets) {
          s = std::make_unique<core::partition_set>(0, 1 << 20, kParts);
        }
      }
      bar.wait();
      const std::uint64_t t0 = now_ns();
      std::uint64_t won = 0;
      for (auto& s : sets) {
        for (std::uint32_t r = 0; r < kParts; ++r) {
          won += s->try_claim(r ^ (tid * 8u % kParts)) ? 1 : 0;
        }
      }
      total += static_cast<double>(now_ns() - t0);
      if (won > kSets * kParts) std::abort();
      bar.wait();
    }
    per[tid] = total / (static_cast<double>(kPasses) * kSets * kParts);
  });
  double s = 0;
  for (double v : per) s += v;
  return s / c;
}

// ---- parking and handoff -------------------------------------------------

// Notify-to-running latency of a parked thread, in us: the median over
// rounds where the parker really blocked. With `handoff` the notifier
// first deposits a payload in the parker's mailbox and the parker takes it
// before stopping its clock.
double wake_to_run_us(bool handoff) {
  rt::parking_lot lot(2);
  rt::handoff_slot box;
  std::atomic<std::uint64_t> sent_at{0};
  std::atomic<int> round{0};
  std::atomic<bool> stop{false};
  std::vector<double> lat;
  constexpr int kRounds = 200;
  std::thread parker([&] {
    int seen = 0;
    while (!stop.load()) {
      const std::uint32_t ticket = lot.prepare_park(1);
      if (stop.load()) {
        lot.cancel_park(1);
        break;
      }
      const auto res = lot.park(1, ticket, std::chrono::milliseconds(50));
      std::uint64_t t = now_ns();
      if (handoff) {
        rt::handoff_item it;
        if (box.try_take(it)) {
          t = now_ns();
          const auto sent = static_cast<std::uint64_t>(it.lo);
          if (res.waited &&
              res.reason == rt::parking_lot::wake_reason::notified) {
            lat.push_back(static_cast<double>(t - sent) * 1e-3);
          }
          round.store(++seen);
        }
      } else if (res.reason == rt::parking_lot::wake_reason::notified) {
        if (res.waited) {
          lat.push_back(static_cast<double>(t - sent_at.load()) * 1e-3);
        }
        round.store(++seen);
      }
    }
  });
  for (int r = 0; r < kRounds; ++r) {
    while (lot.waiters() == 0) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    const std::uint64_t t0 = now_ns();
    sent_at.store(t0);
    if (handoff) {
      if (!box.try_claim()) std::abort();
      rt::handoff_item it;
      it.lo = static_cast<std::int64_t>(t0);
      box.publish(it);
    }
    if (!lot.unpark_at(1) && !handoff) continue;
    const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (round.load() <= r && std::chrono::steady_clock::now() < until) {
      std::this_thread::yield();
    }
  }
  stop.store(true);
  lot.unpark_all();
  parker.join();
  return median(lat);
}

// ---- worker-bound primitives (board visit, loop retire) -----------------

class idle_record final : public rt::loop_record {
 public:
  bool participate(rt::worker&) override { return false; }
  bool finished() const noexcept override { return false; }
};

double board_visit_ns(rt::runtime& rt) {
  rt::board bd;
  const int slot = bd.post(std::make_shared<idle_record>(), 0);
  rt::worker& w = rt.current_worker();
  constexpr std::uint64_t kOps = 1'000'000;
  const std::uint64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < kOps; ++i) (void)bd.visit(w);
  const double ns = ns_per(t0, now_ns(), kOps);
  bd.clear(slot);
  return ns;
}

// loop_ctx::retire on one shared loop, from `c` runtime workers at once
// (one static block each). The loop never reaches zero, so no completion
// broadcast is timed.
double retire_ns(rt::runtime& rt, std::uint32_t c) {
  constexpr std::int64_t kOps = 1'000'000;
  auto nothing = [](std::int64_t, std::int64_t) {};
  sched::loop_ctx ctx(0, std::int64_t{1} << 50, nothing, 1, nullptr);
  if (c == 1) {
    rt::worker& w = rt.current_worker();
    const std::uint64_t t0 = now_ns();
    for (std::int64_t i = 0; i < kOps; ++i) ctx.retire(w, 1);
    return ns_per(t0, now_ns(), kOps);
  }
  spin_barrier bar(c);
  std::vector<double> per(c, 0.0);
  std::atomic<std::uint32_t> joined{0};
  loop_options o;
  o.grain = 1;
  for_each(
      rt, 0, c, policy::static_part,
      [&](std::int64_t b) {
        rt::worker& w = rt.current_worker();
        if (bar.wait()) joined.fetch_add(1);
        const std::uint64_t t0 = now_ns();
        for (std::int64_t i = 0; i < kOps; ++i) ctx.retire(w, 1);
        per[static_cast<std::size_t>(b)] = ns_per(t0, now_ns(), kOps);
      },
      o);
  if (joined.load() != c) {
    std::printf("ladder: retire .c%u ran with fewer contenders\n", c);
  }
  double s = 0;
  for (double v : per) s += v;
  return s / c;
}

}  // namespace

std::vector<ladder_metric> run_ladder(std::uint32_t p, std::uint64_t seed) {
  const std::uint32_t c4 = std::min<std::uint32_t>(4, p);
  std::vector<ladder_metric> out;
  const auto add = [&](const char* name, double v, const char* unit) {
    out.push_back({name, v, unit});
  };
  {
    rt::runtime_options ro;
    ro.num_workers = c4;
    ro.seed = seed;
    rt::runtime rt(ro);
    add("sched.retire_ns.c1", retire_ns(rt, 1), "ns");
    add("sched.retire_ns.c4", retire_ns(rt, c4), "ns");
    add("runtime.board_visit_ns", board_visit_ns(rt), "ns");
  }
  const auto [reserve4, steal4] = range_slot_ns(c4);
  add("runtime.range_reserve_ns.c1", range_slot_ns(1).first, "ns");
  add("runtime.range_reserve_ns.c4", reserve4, "ns");
  add("runtime.range_steal_ns.c4", steal4, "ns");
  add("runtime.deque_push_pop_ns", deque_push_pop_ns(), "ns");
  add("runtime.deque_steal_ns.c4", deque_steal_ns(c4), "ns");
  add("runtime.task_pool_alloc_ns", task_pool_alloc_ns(), "ns");
  add("runtime.wake_to_run_us", wake_to_run_us(false), "us");
  add("runtime.handoff_to_run_us", wake_to_run_us(true), "us");
  add("core.try_claim_ns.c1", try_claim_ns(1), "ns");
  add("core.try_claim_ns.c4", try_claim_ns(c4), "ns");
  return out;
}

}  // namespace loopbench
