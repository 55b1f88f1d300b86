// Verification model for the Chase-Lev deque core (runtime/deque_core.h):
// the owner pushes three tasks into a two-slot ring (the third push grows
// it) and pops until empty, while a thief makes two single-task steal()
// calls.
//
// Checked (work conservation / exactly-once): every pushed task is
// executed — by whichever side — exactly once. The race that matters is
// the last element: the owner's pop and a thief's steal both target it,
// and the top_ CAS must let exactly one of them have it. With that CAS
// skipped (deque_policy_no_last_cas) there is an interleaving where the
// thief reads top_ and bottom_ while one task is left, the owner retracts
// bottom_ and takes the task without a CAS, and the thief's CAS still
// commits — both sides execute the same task. The harness finds it within
// a 3-preemption bound and check_final reports the double execution.
//
// One thief keeps the bound-5 space near a million executions; with two
// single-steal thieves it is 6.3M. Thief-vs-thief CAS races are the same
// top_ CAS and are stressed on real cores by tests/deque_test.cpp.
#include <cstdint>
#include <memory>
#include <string>

#include "runtime/deque_core.h"
#include "verify/models/models.h"
#include "verify/shim.h"

namespace hls::verify {
namespace {

// Task identities: addresses into a static cell array (never dereferenced
// through the deque; the value is the cell index).
int g_cells[4];
constexpr int kTasks = 3;

int* task_ptr(int v) { return &g_cells[v]; }
int task_val(int* p) { return static_cast<int>(p - g_cells); }

template <typename Policy>
class deque_model_t final : public model {
  using deque_t = rt::ws_deque_core<int*, verify_traits, Policy>;

  struct state {
    deque_t q{2};
    // Executions per task value; plain ints are fine under the cooperative
    // scheduler.
    std::uint32_t executed[kTasks + 1] = {};
  };

 public:
  explicit deque_model_t(const char* name) : name_(name) {}

  const char* name() const override { return name_; }
  int threads() const override { return 2; }

  void setup() override { st_ = std::make_unique<state>(); }

  void run(int t) override {
    state& s = *st_;
    if (t == 0) {
      // Owner: push everything, then drain from the bottom.
      for (int v = 1; v <= kTasks; ++v) s.q.push(task_ptr(v));
      while (int* p = s.q.pop()) exec(p);
    } else {
      // Thief: two single-task steals.
      for (int k = 0; k < 2; ++k) {
        if (int* p = s.q.steal()) exec(p);
      }
    }
  }

  void check_final() override {
    state& s = *st_;
    for (int v = 1; v <= kTasks; ++v) {
      if (s.executed[v] != 1) {
        fail_now("exactly-once violated: task " + std::to_string(v) +
                 " executed " + std::to_string(s.executed[v]) +
                 " times (double-executed or stranded)");
      }
    }
  }

 private:
  void exec(int* p) {
    const int v = task_val(p);
    check(v >= 1 && v <= kTasks, "deque returned a pointer never pushed");
    ++st_->executed[v];
  }

  const char* name_;
  std::unique_ptr<state> st_;
};

}  // namespace

std::unique_ptr<model> make_deque_model(bool broken_no_last_cas) {
  if (broken_no_last_cas) {
    return std::make_unique<deque_model_t<rt::deque_policy_no_last_cas>>(
        "deque-broken-nolastcas");
  }
  return std::make_unique<deque_model_t<rt::deque_policy_default>>("deque");
}

}  // namespace hls::verify
