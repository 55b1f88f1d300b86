// Verification model for per-reservation completion accounting
// (sched::loop_ctx::run_range + retire + finished): two workers — the span
// owner and a thief — each run one multi-chunk reservation of a shared
// loop, every chunk body writing its iteration's output, and then retire
// the whole reservation with one fetch_sub on the loop's `remaining`
// counter. A third thread, the posting worker, waits on finished() and
// then reads every output, standing in for the loop's teardown (after
// finished() the poster returns, the ctx and the body callable die).
//
// The counter is modelled with the shipping memory orders: retire is an
// acq_rel fetch_sub, finished() an acquire load. Loop bodies write plain
// verify::var fields, so the vector-clock checker requires every body to
// happen-before the poster's reads through those orders alone.
//
// Checked:
//   * the retired total equals N exactly, and no retire overshoots (the
//     counter never goes below zero);
//   * the completion edge follows the last body: the poster sees every
//     output written, and no body access races the poster's teardown
//     reads (vector-clock data-race check).
//
// The broken variant retires each reservation before its last chunk body
// runs. The poster can then observe finished() while the thief's (or the
// owner's) final body is still pending — caught as an unwritten output or
// as a data race between that body and the teardown, with a replayable
// schedule.
#include <cstdint>
#include <memory>
#include <string>

#include "verify/models/models.h"
#include "verify/shim.h"

namespace hls::verify {
namespace {

// Iterations [0, 4) at grain 1: the owner reserved [0, 2), the thief
// stole [2, 4); each reservation is two chunks.
constexpr std::int64_t kN = 4;
constexpr std::int64_t kChunks = 2;

class loop_retire_model final : public model {
  struct state {
    hls::verify::atomic<std::int64_t> remaining{kN};
    hls::verify::var<int> out[kN];
    std::int64_t retired = 0;  // model-side tally of every retire's n
  };

 public:
  explicit loop_retire_model(bool broken_early) : broken_early_(broken_early) {}

  const char* name() const override {
    return broken_early_ ? "loop-retire-broken-early" : "loop-retire";
  }
  int threads() const override { return 3; }

  void setup() override { st_ = std::make_unique<state>(); }

  void run(int t) override {
    state& s = *st_;
    if (t == 0) {
      // Poster: work_until(finished()), then teardown.
      while (s.remaining.load(std::memory_order_acquire) > 0) {
        verify_traits::pause();
      }
      for (std::int64_t i = 0; i < kN; ++i) {
        if (s.out[i].load() != 1) {
          fail_now("completion edge before the last body: iteration " +
                   std::to_string(i) + " unwritten after finished()");
        }
      }
      return;
    }
    // Owner (t == 1) runs [0, 2); thief (t == 2) runs [2, 4).
    const std::int64_t lo = (t - 1) * kChunks;
    for (std::int64_t i = lo; i < lo + kChunks; ++i) {
      if (broken_early_ && i == lo + kChunks - 1) retire(kChunks);
      s.out[i].store(1);  // the chunk body
    }
    if (!broken_early_) retire(kChunks);
  }

  void check_final() override {
    if (st_->retired != kN || st_->remaining.raw() != 0) {
      fail_now("retired " + std::to_string(st_->retired) + " of " +
               std::to_string(kN) + " iterations, remaining " +
               std::to_string(st_->remaining.raw()));
    }
  }

 private:
  // loop_ctx::retire without the wake: the poster spins on finished()
  // through pause(), so the broadcast carries no ordering here.
  void retire(std::int64_t n) {
    state& s = *st_;
    const std::int64_t before =
        s.remaining.fetch_sub(n, std::memory_order_acq_rel);
    s.retired += n;
    check(before - n >= 0, "retire overshot: remaining went below zero");
  }

  const bool broken_early_;
  std::unique_ptr<state> st_;
};

}  // namespace

std::unique_ptr<model> make_loop_retire_model(bool broken_early) {
  return std::make_unique<loop_retire_model>(broken_early);
}

}  // namespace hls::verify
