// The four benchmark workloads. Each builds its inputs from the seed, runs
// one unit of work per run_unit call through the public loop API, and
// checks every output against a serial reference.
#include <atomic>
#include <cmath>
#include <cstring>

#include "bench.h"
#include "telemetry/profiler.h"
#include "runtime/worker.h"
#include "util/rng.h"
#include "workloads/nas_classes.h"

namespace loopbench {
namespace {

using namespace hls;

// About 10 ns of integer arithmetic per call when calls overlap (loop
// bodies), ~24 ns in a dependent chain (the serial phase): five rounds of a
// 64-bit finalizer that the compiler cannot vectorize away.
inline std::uint64_t mix(std::uint64_t z) noexcept {
  for (int r = 0; r < 5; ++r) {
    z ^= z >> 31;
    z *= 0x7fb5d329728ea185ull;
    z ^= z >> 27;
    z *= 0x81dadef4bc2dd44dull;
    z ^= z >> 33;
  }
  return z;
}

inline void bump_hit(std::uint32_t& h) noexcept {
  std::atomic_ref<std::uint32_t> a(h);
  a.store(a.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

loop_options top_options(policy pol, std::int64_t grain,
                         const telemetry::loop_site* site) {
  loop_options o;
  o.grain = pol == policy::serial ? 0 : grain;
  o.site = site;
  return o;
}

std::uint32_t tracer_thread() {
  rt::worker* w = rt::current_worker_or_null();
  return w != nullptr ? w->id() : 0;
}

// Shared shape of the three synthetic workloads: an input array x drawn
// from the seed, an output y = mix(x) with a serial reference, and a hit
// counter per iteration that must advance by exactly one per loop.
class synthetic : public workload {
 protected:
  void make_arrays(std::uint64_t seed, std::int64_t n, bool with_values) {
    xoshiro256ss rng(seed);
    x_.resize(static_cast<std::size_t>(n));
    for (auto& v : x_) v = rng.next();
    hits_.assign(x_.size(), 0);
    epoch_ = 0;
    if (with_values) {
      y_.assign(x_.size(), 0);
      yref_.resize(x_.size());
      for (std::size_t i = 0; i < x_.size(); ++i) yref_[i] = mix(x_[i]);
    }
  }

  // Every iteration ran exactly once since the last check, and (when the
  // body computes values) produced the serial reference's value.
  bool outputs_ok() {
    ++epoch_;
    std::uint32_t bad = 0;
    for (std::size_t i = 0; i < hits_.size(); ++i) {
      bad |= hits_[i] ^ epoch_;
    }
    if (bad != 0) {
      epoch_ = 0;  // resynchronize so one failure is counted once
      std::fill(hits_.begin(), hits_.end(), 0u);
      return false;
    }
    if (!y_.empty() &&
        std::memcmp(y_.data(), yref_.data(), y_.size() * sizeof(y_[0])) != 0) {
      std::fill(y_.begin(), y_.end(), 0ull);
      return false;
    }
    return true;
  }

  std::vector<std::uint64_t> x_, y_, yref_;
  std::vector<std::uint32_t> hits_;
  std::uint32_t epoch_ = 0;
};

// small_loops: a closed loop with one caller. Each step runs ~15 us of
// serial arithmetic, then one hybrid loop over 4096 ~10 ns iterations.
class small_loops final : public synthetic {
 public:
  static constexpr std::int64_t kN = 4096;
  static constexpr int kSerialRounds = 625;

  const char* top_site() const override { return "small_loops"; }
  std::size_t warm_units() const override { return 500; }

  void make_inputs(std::uint64_t seed) override {
    make_arrays(seed, kN, true);
    serial_state_ = mix(seed);
  }

  unit_sample run_unit(rt::runtime& rt, mode m, check_tally& checks,
                       const trace_ctx* tr) override {
    static const telemetry::loop_site* site = HLS_LOOP_SITE("small_loops");
    const policy pol = m == mode::serial ? policy::serial : policy::hybrid;
    unit_sample s;
    const std::uint64_t t0 = now_ns();
    const std::int64_t step_span =
        tr ? tr->spans->open(0, "step", -1, tr->step) : -1;
    // The application's serial phase: a dependent chain from a seed-drawn
    // state, so it cannot be hoisted or overlapped.
    std::uint64_t st = serial_state_;
    for (int r = 0; r < kSerialRounds; ++r) st = mix(st + r);
    serial_state_ = st;

    const std::int64_t loop_span =
        tr ? tr->spans->open(0, "parallel_for", step_span, tr->step) : -1;
    const std::uint64_t l0 = now_ns();
    const loop_result res = for_each(
        rt, 0, kN, pol,
        [this](std::int64_t i) {
          const auto k = static_cast<std::size_t>(i);
          y_[k] = mix(x_[k]);
          bump_hit(hits_[k]);
        },
        top_options(pol, 0, site));
    const std::uint64_t l1 = now_ns();
    if (tr) {
      tr->spans->close(0, loop_span);
      tr->spans->close(0, step_span);
    }
    s.loop_ns = static_cast<double>(l1 - l0);
    s.unit_ns = static_cast<double>(l1 - t0);
    s.iterations = kN;
    checks.note(res.ok() && outputs_ok(), "small_loops: iteration not run "
                                          "exactly once or wrong value");
    return s;
  }

 private:
  std::uint64_t serial_state_ = 0;
};

// fine_grain: back-to-back dynamic_ws loops over 2^16 iterations at grain 1
// whose body only tallies the visit in its worker's own cache line: a
// count and two 64-bit hash sums of the index. Against the serial
// reference they show every iteration ran exactly once, without a shared
// array whose memory traffic would swamp the serial baseline (streaming
// loops vary up to 2x between processes on shared hosts).
class fine_grain final : public workload {
 public:
  static constexpr std::int64_t kN = std::int64_t{1} << 16;

  const char* top_site() const override { return "fine_grain"; }
  std::size_t warm_units() const override { return 20; }
  double p_share() const override { return 0.55; }
  std::vector<double> other_shares() const override { return {3, 1.5}; }

  void make_inputs(std::uint64_t seed) override {
    key_ = mix(seed);
    lanes_.assign(kMaxLanes, lane{});
    tally(lanes_[0], 0, kN);
    ref_ = lanes_[0];
    lanes_[0] = lane{};
  }

  unit_sample run_unit(rt::runtime& rt, mode m, check_tally& checks,
                       const trace_ctx* tr) override {
    static const telemetry::loop_site* site = HLS_LOOP_SITE("fine_grain");
    const policy pol = m == mode::serial ? policy::serial : policy::dynamic_ws;
    unit_sample s;
    const std::int64_t step_span =
        tr ? tr->spans->open(0, "step", -1, tr->step) : -1;
    const std::int64_t loop_span =
        tr ? tr->spans->open(0, "parallel_for", step_span, tr->step) : -1;
    const std::uint64_t l0 = now_ns();
    const loop_result res = parallel_for(
        rt, 0, kN, pol,
        [this](std::int64_t lo, std::int64_t hi) {
          rt::worker* w = rt::current_worker_or_null();
          tally(lanes_[w != nullptr ? w->id() % kMaxLanes : 0], lo, hi);
        },
        top_options(pol, 1, site));
    const std::uint64_t l1 = now_ns();
    if (tr) {
      tr->spans->close(0, loop_span);
      tr->spans->close(0, step_span);
    }
    s.loop_ns = static_cast<double>(l1 - l0);
    s.unit_ns = s.loop_ns;
    s.iterations = kN;
    lane total;
    for (lane& l : lanes_) {
      total.count += l.count;
      total.h1 += l.h1;
      total.h2 += l.h2;
      l = lane{};
    }
    checks.note(res.ok() && total.count == ref_.count && total.h1 == ref_.h1 &&
                    total.h2 == ref_.h2,
                "fine_grain: iteration not run exactly once");
    return s;
  }

 private:
  struct alignas(64) lane {
    std::uint64_t count = 0, h1 = 0, h2 = 0;
  };
  static constexpr std::uint32_t kMaxLanes = 64;

  void tally(lane& l, std::int64_t lo, std::int64_t hi) const noexcept {
    for (std::int64_t i = lo; i < hi; ++i) {
      std::uint64_t v = (static_cast<std::uint64_t>(i) + key_) *
                        0x9e3779b97f4a7c15ull;
      v ^= v >> 29;
      l.count += 1;
      l.h1 += v;
      l.h2 += v * v;
    }
  }

  std::uint64_t key_ = 0;
  std::vector<lane> lanes_;
  lane ref_;
};

// nested_loops: a hybrid outer loop over 64 rows, each running an inner
// dynamic_ws loop over 2048 iterations at grain 16.
class nested_loops final : public synthetic {
 public:
  static constexpr std::int64_t kRows = 64;
  static constexpr std::int64_t kCols = 2048;

  const char* top_site() const override { return "nested_outer"; }
  std::size_t warm_units() const override { return 50; }

  void make_inputs(std::uint64_t seed) override {
    make_arrays(seed, kRows * kCols, true);
    inner_ok_.assign(kRows, 1);
  }

  unit_sample run_unit(rt::runtime& rt, mode m, check_tally& checks,
                       const trace_ctx* tr) override {
    static const telemetry::loop_site* site = HLS_LOOP_SITE("nested_outer");
    static const telemetry::loop_site* inner_site =
        HLS_LOOP_SITE("nested_inner");
    const bool serial = m == mode::serial;
    const policy outer = serial ? policy::serial : policy::hybrid;
    const policy inner = serial ? policy::serial : policy::dynamic_ws;
    unit_sample s;
    const std::int64_t step_span =
        tr ? tr->spans->open(0, "step", -1, tr->step) : -1;
    const std::int64_t loop_span =
        tr ? tr->spans->open(0, "parallel_for", step_span, tr->step) : -1;
    const loop_options inner_opt = top_options(inner, 16, inner_site);
    const std::uint64_t l0 = now_ns();
    const loop_result res = for_each(
        rt, 0, kRows, outer,
        [&](std::int64_t row) {
          const std::uint32_t th = tr ? tracer_thread() : 0;
          const std::int64_t sp =
              tr ? tr->spans->open(th, "nested_parallel_for",
                                   th == 0 ? loop_span : -1, tr->step)
                 : -1;
          const std::int64_t base = row * kCols;
          const loop_result r = for_each(
              rt, base, base + kCols, inner,
              [this](std::int64_t i) {
                const auto k = static_cast<std::size_t>(i);
                y_[k] = mix(x_[k]);
                bump_hit(hits_[k]);
              },
              inner_opt);
          if (tr) tr->spans->close(th, sp);
          inner_ok_[static_cast<std::size_t>(row)] = r.ok() ? 1 : 0;
        },
        top_options(outer, 1, site));
    const std::uint64_t l1 = now_ns();
    if (tr) {
      tr->spans->close(0, loop_span);
      tr->spans->close(0, step_span);
    }
    s.loop_ns = static_cast<double>(l1 - l0);
    s.unit_ns = s.loop_ns;
    s.iterations = kRows * kCols;
    bool inner_all = true;
    for (auto& ok : inner_ok_) {
      inner_all = inner_all && ok == 1;
      ok = 0;
    }
    checks.note(res.ok() && inner_all && outputs_ok(),
                "nested_loops: loop not completed, iteration not run exactly "
                "once, or wrong value");
    return s;
  }

 private:
  std::vector<std::uint8_t> inner_ok_;
};

// nas: five NPB kernels under hybrid, each timed kernel-only on a freshly
// built instance.
class nas final : public workload {
 public:
  double round_seconds() const override { return 1.6; }
  double p_share() const override { return 0.3; }
  std::vector<double> other_shares() const override { return {2.9, 0.9}; }

  std::vector<std::string> kernel_names() const override {
    return {"ep", "cg", "mg", "is", "ft"};
  }
  double suite_ops() const override { return ops_; }

  void make_inputs(std::uint64_t seed) override {
    using namespace hls::workloads::nas;
    ep_ = ep_class(npb_class::S);
    ep_.m = 21;
    cg_ = cg_class(npb_class::W);
    cg_.seed = seed;
    mg_ = mg_class(npb_class::S);
    mg_.log2_size = 5;
    mg_.seed = seed ^ 0x9e3779b97f4a7c15ull;
    is_ = is_class(npb_class::W);
    is_.total_keys = 1 << 19;
    ft_ = ft_class(npb_class::S);
    ft_.log2_nx = ft_.log2_ny = ft_.log2_nz = 5;
    ep_ref_ = ep_run_serial(ep_);
    // NPB operation counts, as the kernels report them (EP's comes from
    // its verifier's formula: ~30 flops per pair attempt).
    ops_ = static_cast<double>(std::int64_t{1} << ep_.m) * 30.0;
  }

  unit_sample run_unit(rt::runtime& rt, mode m, check_tally& checks,
                       const trace_ctx* tr) override {
    using namespace hls::workloads::nas;
    const policy pol = m == mode::serial ? policy::serial : policy::hybrid;
    unit_sample s;
    const std::int64_t step_span =
        tr ? tr->spans->open(0, "step", -1, tr->step) : -1;
    double ops = static_cast<double>(std::int64_t{1} << ep_.m) * 30.0;

    const auto timed = [&](const char* kname, auto&& call) {
      const std::uint64_t before = rt.stats_snapshot().loops_posted;
      const std::int64_t sp =
          tr ? tr->spans->open(0, kname, step_span, tr->step) : -1;
      const std::uint64_t t0 = now_ns();
      call();
      const std::uint64_t t1 = now_ns();
      if (tr) tr->spans->close(0, sp);
      s.kernel_ns.push_back(static_cast<double>(t1 - t0));
      s.kernel_loops.push_back(
          static_cast<double>(rt.stats_snapshot().loops_posted - before));
    };
    const auto note = [&](const char* kname, const kernel_result& kr) {
      checks.note(kr.verified, kname, ": failed verification: " + kr.detail);
      ops += kr.mflops_proxy * 1e6;
    };

    {
      ep_result got;
      timed("ep", [&] { got = ep_run(rt, ep_, pol); });
      checks.note(ep_matches(got), "nas: ep differs from the serial reference");
    }
    {
      cg_bench b(cg_);
      kernel_result kr;
      timed("cg", [&] { kr = b.run(rt, pol); });
      note("cg", kr);
    }
    {
      // A second run() on one mg_bench fails its own verification, so
      // every timed call gets a fresh instance.
      mg_bench b(mg_);
      kernel_result kr;
      timed("mg", [&] { kr = b.run(rt, pol); });
      note("mg", kr);
    }
    {
      is_bench b(is_);
      kernel_result kr;
      timed("is", [&] { kr = b.run(rt, pol); });
      note("is", kr);
    }
    {
      ft_bench b(ft_);
      kernel_result kr;
      timed("ft", [&] { kr = b.run(rt, pol); });
      note("ft", kr);
    }
    if (tr) tr->spans->close(0, step_span);
    ops_ = ops;
    double sum = 0;
    for (double k : s.kernel_ns) sum += k;
    s.unit_ns = sum;
    return s;
  }

 private:
  // Same tolerances as ep_verify: tallies are exact for every schedule,
  // the sums agree up to summation order.
  bool ep_matches(const hls::workloads::nas::ep_result& got) const {
    const double n = static_cast<double>(std::int64_t{1} << ep_.m);
    const double tol = 1e-9 * n;
    bool ok = got.pairs_accepted == ep_ref_.pairs_accepted &&
              std::fabs(got.sx - ep_ref_.sx) <= tol &&
              std::fabs(got.sy - ep_ref_.sy) <= tol &&
              std::fabs(got.checksum() - ep_ref_.checksum()) <= 48 * tol;
    for (std::size_t b = 0; b < got.q.size(); ++b) {
      ok = ok && got.q[b] == ep_ref_.q[b];
    }
    return ok;
  }

  hls::workloads::nas::ep_params ep_;
  hls::workloads::nas::cg_params cg_;
  hls::workloads::nas::mg_params mg_;
  hls::workloads::nas::is_params is_;
  hls::workloads::nas::ft_params ft_;
  hls::workloads::nas::ep_result ep_ref_;
  double ops_ = 0;
};

}  // namespace

std::unique_ptr<workload> make_workload(const std::string& name) {
  if (name == "small_loops") return std::make_unique<small_loops>();
  if (name == "fine_grain") return std::make_unique<fine_grain>();
  if (name == "nested_loops") return std::make_unique<nested_loops>();
  if (name == "nas") return std::make_unique<nas>();
  return nullptr;
}

}  // namespace loopbench
