// Shared pieces of the loop benchmark: clocks, order statistics, the
// output-check tally, the in-memory span log, and the workload interface.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/runtime.h"
#include "sched/loop.h"

namespace loopbench {

inline std::uint64_t now_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// CPU time consumed by every thread of this process.
inline std::uint64_t cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// Linear-interpolated quantile of an unsorted sample (0 for an empty one).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Output checks: every loop or kernel call the benchmark verifies counts
// once; `failed` also counts loops that did not return `completed`.
struct check_tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;

  void note(bool ok, const char* what, const std::string& detail = {}) {
    ++attempted;
    if (!ok) {
      if (failed == 0) first_failure = std::string(what) + detail;
      ++failed;
    }
  }
};

// Spans recorded by the benchmark around its own calls into the library
// (step -> top-level parallel_for or kernel call -> nested parallel_for).
// Kept in memory per recording thread and written out when the run ends.
struct span {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::int64_t parent;  // index into the same thread's log, -1 at the root
  std::uint64_t step;
  std::uint32_t thread;
};

class span_log {
 public:
  explicit span_log(std::uint32_t threads) : logs_(threads) {}

  // Opens a span on `thread`'s log; returns its index for close().
  std::int64_t open(std::uint32_t thread, const char* name,
                    std::int64_t parent, std::uint64_t step) {
    auto& log = logs_[thread];
    log.push_back({name, now_ns(), 0, parent, step, thread});
    return static_cast<std::int64_t>(log.size()) - 1;
  }
  void close(std::uint32_t thread, std::int64_t id) {
    logs_[thread][static_cast<std::size_t>(id)].end_ns = now_ns();
  }

  // Self time per span name: each span's duration minus the part of it
  // that its children (same thread) cover. Returns {name -> {count, ns}}.
  std::map<std::string, std::pair<std::uint64_t, double>> self_times() const;

  // Writes every span as one JSON object per line.
  bool write(const std::string& path) const;

  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& l : logs_) n += l.size();
    return n;
  }

 private:
  std::vector<std::vector<span>> logs_;
};

// Which scheduler configuration a block of the timed phase runs under.
enum class mode { serial, p1, p2, p4 };
inline const char* mode_name(mode m) {
  switch (m) {
    case mode::serial: return "serial";
    case mode::p1: return "p1";
    case mode::p2: return "p2";
    case mode::p4: return "p4";
  }
  return "?";
}

// What one unit of work (an application step, a loop, a kernel suite)
// reports back to the timed loop.
struct unit_sample {
  double unit_ns = 0;                 // whole step, caller-observed
  double loop_ns = 0;                 // its top-level parallel_for
  std::vector<double> kernel_ns;      // nas: one per kernel, fixed order
  std::vector<double> kernel_loops;   // nas: parallel_for calls per kernel
  std::int64_t iterations = 0;        // loop iterations completed
};

// Span context handed to a unit when tracing is on (null when off).
struct trace_ctx {
  span_log* spans;
  std::uint64_t step;
};

class workload {
 public:
  virtual ~workload() = default;

  // Builds the seed-derived inputs and the serial references.
  virtual void make_inputs(std::uint64_t seed) = 0;

  // One unit under `m` on `rt` (serial units run policy::serial). Checks
  // its outputs into `checks`.
  virtual unit_sample run_unit(hls::rt::runtime& rt, mode m,
                               check_tally& checks, const trace_ctx* tr) = 0;

  // Units run at P during set-up, so caches and pools are warm.
  virtual std::size_t warm_units() const { return 1; }

  // The timed phase is a sequence of rounds of this length; each round
  // spends p_share() of it at P workers and splits the rest between a
  // serial-and-P=1 segment and a P = 2 segment in the proportions of
  // other_shares().
  virtual double round_seconds() const { return 0.5; }
  virtual double p_share() const { return 0.6; }
  virtual std::vector<double> other_shares() const { return {2, 1}; }

  // Name of the loop_site that marks top-level loops in profiler records;
  // null when every profiled loop is top-level (nas).
  virtual const char* top_site() const { return nullptr; }

  // Names of the kernels a unit reports (nas only).
  virtual std::vector<std::string> kernel_names() const { return {}; }
  // NPB operation count of one suite (nas only).
  virtual double suite_ops() const { return 0; }
};

std::unique_ptr<workload> make_workload(const std::string& name);

// Primitive ladder (ladder.cpp): times direct calls into the library's
// per-layer functions at 1 and 4 contending threads. Returns
// {metric name, ns or us value, unit}.
struct ladder_metric {
  std::string name;
  double value;
  std::string unit;
};
std::vector<ladder_metric> run_ladder(std::uint32_t p, std::uint64_t seed);

}  // namespace loopbench
