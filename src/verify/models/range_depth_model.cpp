// Verification model for per-depth range slots (rt::worker's fixed array
// of range_slot_core, one per span nesting depth): the owner publishes an
// outer span at depth 0 and, inside its first outer iteration, runs two
// nested loops back to back — each opens, consumes and closes an inner
// span at depth 1, so the inner slot is REOPENED with different span
// fields — while a thief probes both depths, shallowest first, as
// worker::try_steal_round does.
//
// Checked:
//   * exactly-once (Theorem 3 at the iteration level): every iteration of
//     the outer span and of both inner spans is executed exactly once
//     across owner reserves and thief steals, however the thief's probes
//     interleave with the nested open/close;
//   * a successful steal is internally consistent: its ctx and range
//     belong to the span its runner names (no torn span fields);
//   * no slot is reopened under a live reader: every thief access to the
//     inner slot's plain fields must be ordered, by declared
//     synchronization only, before the owner's rewrite in the reopen. The
//     fields are Traits::var, so the vector-clock checker enforces this;
//     with range_slot_policy_no_drain (close is a plain store with no
//     reader drain) the thief can win its claim on the first inner span,
//     stall, and read the fields the reopen is writing — reported as a
//     data race with the interleaving.
#include <cstdint>
#include <memory>
#include <string>

#include "runtime/range_slot_core.h"
#include "verify/models/models.h"
#include "verify/shim.h"

namespace hls::verify {
namespace {

// Span s publishes runner value s + 1 (a default-constructed runner means
// "no steal", so 0 is not a valid runner). The outer span is [0, 4); the
// inner spans are [100, 102) and [200, 202), all at grain 1, so each one
// is wide enough for a half-steal while the owner sits at its low end.
constexpr int kSpans = 3;
constexpr std::int64_t kBase[kSpans] = {0, 100, 200};
constexpr std::int64_t kLen[kSpans] = {4, 2, 2};
constexpr std::int64_t kMaxLen = 4;
constexpr int kDepths = 2;
constexpr int kThiefAttempts = 2;

template <typename Policy>
class range_depth_model_t final : public model {
  using slot_t = rt::range_slot_core<verify_traits, int, Policy>;

  struct state {
    slot_t slots[kDepths];  // [0] outer, [1] inner
    std::uint32_t executed[kSpans][kMaxLen] = {};
    int ctx_cell[kSpans] = {};
  };

 public:
  explicit range_depth_model_t(const char* name) : name_(name) {}

  const char* name() const override { return name_; }
  int threads() const override { return 2; }

  void setup() override { st_ = std::make_unique<state>(); }

  void run(int t) override {
    state& s = *st_;
    if (t == 0) {
      // Outer iteration 0 — always the owner's: thieves only take upper
      // halves — runs two nested loops, each publishing at the next depth
      // and closing before the next one (or the outer span) moves on.
      run_span(0, 0, [&](std::int64_t i) {
        if (i != 0) return;
        run_span(1, 1, [](std::int64_t) {});
        run_span(1, 2, [](std::int64_t) {});
      });
      return;
    }
    for (int attempt = 0; attempt < kThiefAttempts; ++attempt) {
      for (int d = 0; d < kDepths; ++d) {
        if (!s.slots[d].looks_open()) break;  // open depths form a prefix
        const auto stolen = s.slots[d].try_steal();
        if (!stolen) continue;
        check(stolen.run >= 1 && stolen.run <= kSpans,
              "stolen runner id is garbage");
        const int span = stolen.run - 1;
        check((span == 0) == (d == 0),
              "a span was stolen from the wrong depth's slot");
        check(stolen.ctx == &s.ctx_cell[span],
              "stolen ctx does not match its runner (torn span fields)");
        check(stolen.lo >= kBase[span] && stolen.lo < stolen.hi &&
                  stolen.hi <= kBase[span] + kLen[span],
              "stolen range outside its runner's span (torn span fields)");
        for (std::int64_t i = stolen.lo; i < stolen.hi; ++i) {
          ++s.executed[span][i - kBase[span]];
        }
        break;  // one steal per attempt, like a steal-round probe
      }
    }
  }

  void check_final() override {
    for (int span = 0; span < kSpans; ++span) {
      for (std::int64_t i = 0; i < kLen[span]; ++i) {
        const std::uint32_t n = st_->executed[span][i];
        if (n != 1) {
          fail_now("exactly-once violated: span " + std::to_string(span) +
                   " iteration " + std::to_string(i) + " executed " +
                   std::to_string(n) + " times");
        }
      }
    }
  }

 private:
  // Owner side of one span at `depth`: open, reserve/execute (calling
  // `body` on each owned iteration offset), close.
  template <typename Body>
  void run_span(int depth, int span, Body&& body) {
    state& s = *st_;
    slot_t& slot = s.slots[depth];
    const std::int64_t base = kBase[span];
    check(slot.open(&s.ctx_cell[span], span + 1, base, base + kLen[span], 1),
          "open failed on a closed slot");
    std::int64_t cur = base;
    for (;;) {
      const std::int64_t next = slot.reserve(cur);
      if (next == cur) break;
      check(next > cur && next <= base + kLen[span],
            "reserve returned a bad batch");
      for (std::int64_t i = cur; i < next; ++i) {
        ++s.executed[span][i - base];
        body(i - base);
      }
      cur = next;
    }
    slot.close();
  }

  const char* name_;
  std::unique_ptr<state> st_;
};

}  // namespace

std::unique_ptr<model> make_range_depth_model(bool broken_no_drain) {
  if (broken_no_drain) {
    return std::make_unique<
        range_depth_model_t<rt::range_slot_policy_no_drain>>(
        "range-depth-broken-nodrain");
  }
  return std::make_unique<
      range_depth_model_t<rt::range_slot_policy_default>>("range-depth");
}

}  // namespace hls::verify
