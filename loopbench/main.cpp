// loopbench: the repository's end-to-end benchmark of the loop scheduler.
//
//   loopbench --workload <small_loops|fine_grain|nested_loops|nas>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--workers <P>] [--spans-out <file>]
//
// One process, one runtime at a time, the calling thread as worker 0. A run
// sets the workload up three times (the median is setup_s), then spends
// --seconds in rounds of four segments: P workers (the headline), then
// policy::serial, P = 1 and P = 2, each on a runtime of its size. With
// --trace 0 it prints the end-to-end metrics; with --trace 1 the units of
// the P segments alternate between traced (spans + loop_profiler) and
// untraced, and it reads the runtime's counters, runs the primitive ladder
// and prints the per-layer metrics. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. See README.md.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.h"
#include "telemetry/profiler.h"

namespace loopbench {

// ---- span log -----------------------------------------------------------

std::map<std::string, std::pair<std::uint64_t, double>> span_log::self_times()
    const {
  std::map<std::string, std::pair<std::uint64_t, double>> out;
  for (const auto& log : logs_) {
    std::vector<double> child(log.size(), 0.0);
    for (const span& s : log) {
      if (s.parent >= 0 && s.end_ns >= s.start_ns) {
        child[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (std::size_t i = 0; i < log.size(); ++i) {
      const span& s = log[i];
      if (s.end_ns < s.start_ns) continue;  // never closed
      auto& e = out[s.name];
      e.first += 1;
      e.second += static_cast<double>(s.end_ns - s.start_ns) - child[i];
    }
  }
  return out;
}

bool span_log::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  for (const auto& log : logs_) {
    for (std::size_t i = 0; i < log.size(); ++i) {
      const span& s = log[i];
      f << "{\"thread\":" << s.thread << ",\"id\":" << i << ",\"name\":\""
        << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"step\":" << s.step << "}\n";
    }
  }
  return static_cast<bool>(f);
}

namespace {

using namespace hls;

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::uint32_t workers = 4;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "loopbench: %s\n", msg.c_str());
  std::exit(2);
}

options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") o.workload = v;
      else if (a == "--seed") o.seed = std::stoull(v);
      else if (a == "--seconds") o.seconds = std::stod(v);
      else if (a == "--trace") o.trace = std::stoi(v) != 0;
      else if (a == "--workers") o.workers = static_cast<std::uint32_t>(std::stoul(v));
      else if (a == "--spans-out") o.spans_out = v;
      else usage("unknown flag " + a);
    } catch (const std::exception&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (o.seconds <= 0) usage("--seconds must be positive");
  if (o.workers < 1) usage("--workers must be at least 1");
  return o;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto c = line.find(':');
      return c == std::string::npos ? line : line.substr(c + 2);
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// Metrics in print order: name -> (value, unit).
class metric_sink {
 public:
  void add(const std::string& name, double v, const std::string& unit) {
    if (!std::isfinite(v)) v = 0.0;
    items_.push_back({name, v, unit});
  }
  std::string json() const {
    std::ostringstream os;
    os.precision(17);
    os << '{';
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i) os << ", ";
      os << '"' << items_[i].name << "\": {\"value\": " << items_[i].value
         << ", \"unit\": \"" << items_[i].unit << "\"}";
    }
    os << '}';
    return os.str();
  }

 private:
  std::vector<ladder_metric> items_;
};

// Fixed-capacity sample buffer, zero-filled up front so that the
// benchmark's own memory does not grow with the number of units a run
// completes (peak_rss_mb would otherwise track throughput).
class samples {
 public:
  explicit samples(std::size_t cap) : v_(cap, 0.0f) {}
  void push(double x) {
    if (n_ < v_.size()) v_[n_++] = static_cast<float>(x);
  }
  std::size_t size() const { return n_; }
  std::vector<double> values(std::size_t from = 0,
                             std::size_t to = SIZE_MAX) const {
    to = std::min(to, n_);
    from = std::min(from, to);
    return std::vector<double>(v_.begin() + static_cast<long>(from),
                               v_.begin() + static_cast<long>(to));
  }

 private:
  std::vector<float> v_;
  std::size_t n_ = 0;
};

// Where a segment's samples start in its mode's buffers.
struct seg_start {
  std::size_t loop, traced, unit, kernel;
};

// Everything measured under one mode over the run's rounds. Each segment
// (one mode's share of one round) also reduces its own samples to a
// representative time; times at P are medians over those.
struct mode_data {
  // Capacity for `seconds` of units: the P mode's buffers hold 66k units a
  // second (no unit is shorter than small_loops' ~15 us serial phase), the
  // other modes' half that.
  mode_data(bool headline, double seconds)
      : loop(capacity(headline ? 66000 : 33000, seconds)),
        unit(headline ? capacity(66000, seconds) : 1),
        traced_loop(headline ? capacity(66000, seconds) : 1) {}
  static std::size_t capacity(double per_second, double seconds) {
    return static_cast<std::size_t>(per_second * seconds) + 1024;
  }
  samples loop, unit, traced_loop;  // untraced loops / steps, traced loops
  std::vector<std::vector<double>> kernel_ns, kernel_loops;  // nas, per unit
  std::vector<double> suite_ns, traced_suite_ns;             // nas
  std::size_t units = 0, traced_units = 0;
  std::int64_t iterations_per_unit = 0;
  double wall_s = 0, cpu_s = 0;
  // Per segment: the median loop (synthetic) or the sum of per-kernel
  // medians (nas); median step time; where its samples start.
  std::vector<double> seg_time, seg_step;
  std::vector<seg_start> seg_at;
  // P mode only: counter deltas summed over its segments, and each
  // segment's (peer chunks, all chunks).
  telemetry::counter_set delta;
  std::vector<telemetry::counter_set> worker_delta;
  std::vector<std::pair<double, double>> seg_chunks;
};

std::unique_ptr<rt::runtime> make_runtime(std::uint32_t p, std::uint64_t seed) {
  rt::runtime_options ro;
  ro.num_workers = p;
  ro.seed = seed;
  return std::make_unique<rt::runtime>(ro);
}

// Tracing state of a run: the span log and the loop profiler that traced
// units install.
struct tracer {
  span_log spans;
  telemetry::loop_profiler prof{telemetry::loop_profiler::options{4096}};
  explicit tracer(std::uint32_t threads) : spans(threads) {}
};

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

// Per-kernel medians over units [from, end) of a mode (nas), kernel order.
std::vector<double> kernel_medians(const mode_data& d, std::size_t kernels,
                                   std::size_t from = 0) {
  std::vector<double> med(kernels, 0.0);
  for (std::size_t k = 0; k < kernels; ++k) {
    std::vector<double> v;
    for (std::size_t u = from; u < d.kernel_ns.size(); ++u) {
      v.push_back(d.kernel_ns[u][k]);
    }
    med[k] = median(v);
  }
  return med;
}

// nas loop samples for units [from, to): every parallel_for of every
// kernel call counts once, at its call's mean loop time (call time over the
// call's loops_posted delta). A suite's ~2090 loops are 93% CG's small
// loops, so the median sits on CG and the p95 on MG: the quantiles of the
// loops the suite really runs, each population stable from run to run.
std::vector<double> nas_loop_samples(const mode_data& d, std::size_t from,
                                     std::size_t to) {
  std::vector<double> v;
  for (std::size_t u = from; u < to; ++u) {
    for (std::size_t k = 0; k < d.kernel_ns[u].size(); ++k) {
      const auto loops = static_cast<std::size_t>(d.kernel_loops[u][k]);
      v.insert(v.end(), std::max<std::size_t>(loops, 1),
               d.kernel_ns[u][k] / std::max(1.0, d.kernel_loops[u][k]));
    }
  }
  return v;
}

// Closes one segment whose samples start at `at`: reduces them to the
// segment's figures.
void close_segment(mode_data& d, const seg_start& at) {
  d.seg_at.push_back(at);
  if (d.kernel_ns.size() > at.kernel) {
    d.seg_time.push_back(
        sum(kernel_medians(d, d.kernel_ns.front().size(), at.kernel)));
    d.seg_step.push_back(d.seg_time.back());
    return;
  }
  std::vector<double> all = d.loop.values(at.loop);
  const std::vector<double> t = d.traced_loop.values(at.traced);
  all.insert(all.end(), t.begin(), t.end());
  d.seg_time.push_back(median(all));
  d.seg_step.push_back(median(d.unit.values(at.unit)));
}

// Loop p50 and p95 of the untraced P samples: computed over windows of
// consecutive segments holding at least kWindow samples each (so at least
// 10 lie beyond each window's p95), then the median over windows. A short
// last window joins the one before it.
struct loop_quantiles {
  double p50 = 0, p95 = 0;
  std::size_t windows = 0, samples = 0;
};

loop_quantiles windowed_quantiles(const mode_data& d) {
  constexpr std::size_t kWindow = 200;
  const bool nas = !d.kernel_ns.empty();
  std::vector<double> p50, p95, win, prev;
  loop_quantiles q;
  for (std::size_t i = 0; i < d.seg_at.size(); ++i) {
    const bool last = i + 1 == d.seg_at.size();
    std::vector<double> v;
    if (nas) {
      v = nas_loop_samples(d, d.seg_at[i].kernel,
                           last ? d.kernel_ns.size() : d.seg_at[i + 1].kernel);
    } else {
      v = d.loop.values(d.seg_at[i].loop,
                        last ? d.loop.size() : d.seg_at[i + 1].loop);
    }
    q.samples += v.size();
    win.insert(win.end(), v.begin(), v.end());
    if (win.size() < kWindow && !(last && !win.empty())) continue;
    if (win.size() < kWindow && !p50.empty()) {
      win.insert(win.end(), prev.begin(), prev.end());
      p50.pop_back();
      p95.pop_back();
    }
    p50.push_back(quantile(win, 0.5));
    p95.push_back(quantile(win, 0.95));
    prev.swap(win);
    win.clear();
  }
  q.p50 = median(p50);
  q.p95 = median(p95);
  q.windows = p50.size();
  return q;
}

// Runs units of `wl` on `rt` for `seconds` (at least `min_units` of each
// mode), cycling through `modes` unit by unit, and adds what they measured
// to data[mode]. Alternating serial and P = 1 units on one runtime pairs
// them within milliseconds, so host interference hits both alike. With a
// tracer, P units alternate between traced (profiler installed, spans
// recorded) and untraced.
void run_segment(workload& wl, rt::runtime& rt, const std::vector<mode>& modes,
                 double seconds, std::size_t min_units, check_tally& checks,
                 tracer* tr, std::uint64_t& step, mode_data* data) {
  const std::uint32_t p = rt.num_workers();
  std::vector<telemetry::counter_set> w0(p);
  for (std::uint32_t w = 0; w < p; ++w) w0[w] = rt.tel().of_worker(w);
  const telemetry::counter_set t0c = rt.stats_snapshot();
  std::vector<seg_start> at;
  for (mode m : modes) {
    const mode_data& d = data[static_cast<int>(m)];
    at.push_back({d.loop.size(), d.traced_loop.size(), d.unit.size(),
                  d.kernel_ns.size()});
  }
  const std::uint64_t c0 = cpu_ns();
  const std::uint64_t t0 = now_ns();
  const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
  const std::size_t k = modes.size();
  for (std::size_t n = 0;
       n < min_units * k || n % k != 0 || now_ns() - t0 < budget; ++n) {
    const mode m = modes[n % k];
    mode_data& d = data[static_cast<int>(m)];
    const bool traced = tr != nullptr && m == mode::p4 && (step & 1) != 0;
    unit_sample u;
    if (traced) {
      rt.tel().set_profiler(&tr->prof);
      const trace_ctx tc{&tr->spans, step};
      u = wl.run_unit(rt, m, checks, &tc);
      rt.tel().set_profiler(nullptr);
      d.traced_loop.push(u.loop_ns);
      if (!u.kernel_ns.empty()) d.traced_suite_ns.push_back(u.unit_ns);
      ++d.traced_units;
    } else {
      u = wl.run_unit(rt, m, checks, nullptr);
      d.loop.push(u.loop_ns);
      d.unit.push(u.unit_ns);
      if (!u.kernel_ns.empty()) d.suite_ns.push_back(u.unit_ns);
      ++d.units;
    }
    ++step;
    d.iterations_per_unit = u.iterations;
    if (!u.kernel_ns.empty()) {
      d.kernel_ns.push_back(std::move(u.kernel_ns));
      d.kernel_loops.push_back(std::move(u.kernel_loops));
    }
  }
  const double wall = static_cast<double>(now_ns() - t0) * 1e-9;
  const double cpu = static_cast<double>(cpu_ns() - c0) * 1e-9;
  for (std::size_t i = 0; i < k; ++i) {
    close_segment(data[static_cast<int>(modes[i])], at[i]);
  }
  if (modes != std::vector<mode>{mode::p4}) return;
  mode_data& d = data[static_cast<int>(mode::p4)];
  d.wall_s += wall;
  d.cpu_s += cpu;
  d.delta += rt.stats_snapshot() - t0c;
  d.worker_delta.resize(p);
  double peer = 0, all = 0;
  for (std::uint32_t w = 0; w < p; ++w) {
    const telemetry::counter_set c = rt.tel().of_worker(w) - w0[w];
    d.worker_delta[w] += c;
    all += static_cast<double>(c.chunks_run);
    if (w > 0) peer += static_cast<double>(c.chunks_run);
  }
  d.seg_chunks.emplace_back(peer, all);
}

// The time that stands for one unit of a mode over the whole run: the
// median of all its top-level loops, or for nas the sum of the per-kernel
// medians. Speed-ups compare these run-wide medians: serial units on one
// CPU swing with host interference from round to round (up to +-30%), and
// a median over the whole run averages that out.
double mode_time(const mode_data& d) {
  if (!d.kernel_ns.empty()) {
    return sum(kernel_medians(d, d.kernel_ns.front().size()));
  }
  std::vector<double> v = d.loop.values();
  const std::vector<double> t = d.traced_loop.values();
  v.insert(v.end(), t.begin(), t.end());
  return median(v);
}

void print_base(const char* name, double num, double den) {
  std::printf("  %-38s %.6g / %.6g\n", name, num, den);
}

// Per-layer metrics read from the P mode's counters and loop profile.
void layer_metrics(const mode_data& b, const workload& wl,
                   const telemetry::loop_profiler& prof, std::uint32_t p,
                   metric_sink& out) {
  const telemetry::counter_set& d = b.delta;
  const double loops =
      wl.top_site() != nullptr
          ? static_cast<double>(b.units + b.traced_units)
          : static_cast<double>(d.loops_posted);
  const auto count = [](std::uint64_t c) { return static_cast<double>(c); };
  const auto per_loop = [&](const char* name, std::uint64_t c) {
    print_base(name, count(c), loops);
    out.add(name, ratio(count(c), loops), "count");
  };
  const auto share = [&](const char* name, double num, double den) {
    print_base(name, num, den);
    out.add(name, ratio(num, den), "ratio");
  };
  std::printf("per-layer bases (P = %u, %.0f top-level loops, %.3f s):\n", p,
              loops, b.wall_s);

  // sched: profiler phases of the traced top-level loops.
  std::vector<double> setup, work, drain, imb;
  for (const auto& site : prof.snapshot()) {
    if (wl.top_site() != nullptr &&
        site.site.find(std::string("#") + wl.top_site()) == std::string::npos)
      continue;
    for (const auto& r : site.records) {
      setup.push_back(static_cast<double>(r.setup_ns) * 1e-3);
      work.push_back(static_cast<double>(r.work_ns) * 1e-3);
      drain.push_back(static_cast<double>(r.drain_ns) * 1e-3);
      imb.push_back(r.imbalance);
    }
  }
  std::printf("  %-38s %zu\n", "profiler records (top-level, retained)",
              setup.size());
  out.add("sched.setup_us", median(setup), "us");
  out.add("sched.work_us", median(work), "us");
  out.add("sched.drain_us", median(drain), "us");
  per_loop("sched.chunks_per_loop", d.chunks_run);
  per_loop("sched.tasks_per_loop", d.tasks_run);
  out.add("sched.imbalance", median(imb), "ratio");

  // runtime: range slots, stealing, parking, handoff.
  const double steals = count(d.steals + d.range_steals);
  per_loop("runtime.range_splits_per_loop", d.range_splits);
  per_loop("runtime.range_steals_per_loop", d.range_steals);
  share("runtime.steal_success", steals, count(d.steal_probes));
  print_base("runtime.steal_latency_ns", count(d.steal_latency_ns), steals);
  out.add("runtime.steal_latency_ns", ratio(count(d.steal_latency_ns), steals),
          "ns");
  share("runtime.affinity_hit_ratio", count(d.affinity_hits), steals);
  share("runtime.load_board_hit_ratio", count(d.load_board_hits), steals);
  out.add("runtime.alloc_fallbacks", count(d.alloc_fallbacks), "count");
  per_loop("runtime.parks_per_loop", d.idle_sleeps);
  share("runtime.idle_frac", count(d.idle_sleep_ns), p * b.wall_s * 1e9);
  per_loop("runtime.wakes_per_loop", d.wakes_sent);
  print_base("runtime.wake_useful (spurious / sent)", count(d.wakes_spurious),
             count(d.wakes_sent));
  out.add("runtime.wake_useful",
          d.wakes_sent > 0
              ? 1.0 - ratio(count(d.wakes_spurious), count(d.wakes_sent))
              : 0.0,
          "ratio");
  per_loop("runtime.backoffs_per_loop", d.steal_backoffs);
  per_loop("runtime.handoffs_per_loop", d.handoffs_sent);
  share("runtime.handoff_take_ratio", count(d.handoffs_consumed),
        count(d.handoffs_sent));
  for (std::uint32_t w = 0; w < b.worker_delta.size(); ++w) {
    std::printf("  chunks_run[worker %u]%*s %.0f\n", w, 19, "",
                count(b.worker_delta[w].chunks_run));
  }
  // The lowest share any P segment (a fresh runtime) gave workers 1..P-1.
  double low = 1.0;
  std::printf("  runtime.peer_chunk_share per segment:");
  for (const auto& [peer, all] : b.seg_chunks) {
    std::printf(" %.0f/%.0f", peer, all);
    low = std::min(low, ratio(peer, all));
  }
  std::printf("\n");
  out.add("runtime.peer_chunk_share", b.seg_chunks.empty() ? 0.0 : low,
          "ratio");

  // core: the hybrid claim protocol.
  const double claims = count(d.claims_ok + d.claims_failed);
  print_base("core.claims_per_loop", claims, loops);
  out.add("core.claims_per_loop", ratio(claims, loops), "count");
  share("core.claim_fail_ratio", count(d.claims_failed), claims);
  std::uint32_t r = 1, lg = 0;
  while (r < p) {
    r <<= 1;
    ++lg;
  }
  std::printf("  %-38s %llu (Lemma 4 bound lg R + 1 = %u at R = %u)\n",
              "core.max_claim_seq",
              static_cast<unsigned long long>(d.max_claim_seq_len), lg + 1, r);
  out.add("core.max_claim_seq", count(d.max_claim_seq_len), "count");
}

// workloads.* metrics from a nas P mode and serial mode.
void kernel_metrics(const mode_data& p4, const mode_data& serial,
                    const std::vector<std::string>& names, metric_sink& out) {
  const std::vector<double> m4 = kernel_medians(p4, names.size());
  const std::vector<double> ms = kernel_medians(serial, names.size());
  for (std::size_t k = 0; k < names.size(); ++k) {
    std::vector<double> loops;
    for (const auto& u : p4.kernel_loops) loops.push_back(u[k]);
    out.add("workloads." + names[k] + "_s", m4[k] * 1e-9, "s");
    out.add("workloads." + names[k] + "_speedup_p4", ratio(ms[k], m4[k]), "x");
    out.add("workloads." + names[k] + "_loops", median(loops), "count");
  }
}

// Pins the calling thread to one CPU at a time, rotating over the CPUs it
// may use, and restores the full set on release. Used only while serial and
// P = 1 units run, on a runtime with no other worker. Left to the OS, the
// caller stays on one CPU for the whole process, and on a shared host CPUs
// differ in speed by up to ~30%, so a process's serial baseline depended on
// where it happened to land. A different CPU each round makes every run
// sample every CPU alike. Parallel segments stay unpinned: a pinned worker
// 0 gets woken peers stacked on its CPU, which is not how the runtime runs.
// Runtimes are built while the set is full: their threads inherit it.
class cpu_rotation {
 public:
  cpu_rotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
      }
    }
  }
  ~cpu_rotation() { release(); }
  cpu_rotation(const cpu_rotation&) = delete;
  cpu_rotation& operator=(const cpu_rotation&) = delete;

  void pin(std::size_t turn) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  void release() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(all_), &all_);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
};

// The timed phase: rounds of three segments, each on a runtime of its
// size: P workers; serial and P = 1 units alternating; P = 2. `rt` holds
// the set-up runtime on entry and nothing on return.
void run_rounds(workload& wl, std::unique_ptr<rt::runtime>& rt,
                std::uint32_t p, std::uint64_t seed, double seconds,
                check_tally& checks, tracer* tr, mode_data* data) {
  const std::vector<double> others = wl.other_shares();
  const double rest = (1.0 - wl.p_share()) / sum(others);
  const struct {
    std::vector<mode> modes;
    std::uint32_t workers;
    double share;
  } plan[3] = {{{mode::p4}, p, wl.p_share()},
               {{mode::serial, mode::p1}, 1, rest * others[0]},
               {{mode::p2}, std::min<std::uint32_t>(2, p), rest * others[1]}};
  const double round_s = std::min(wl.round_seconds(), seconds);
  std::uint64_t step = 0;
  std::size_t turn = 0;
  cpu_rotation rotation;
  const std::uint64_t t0 = now_ns();
  do {
    for (const auto& seg : plan) {
      rotation.release();
      if (!rt || rt->num_workers() != seg.workers) {
        rt.reset();
        rt = make_runtime(seg.workers, seed);
      }
      if (seg.modes.front() == mode::serial) rotation.pin(turn++);
      run_segment(wl, *rt, seg.modes, round_s * seg.share, 1, checks, tr, step,
                  data);
    }
  } while (static_cast<double>(now_ns() - t0) * 1e-9 < seconds);
  rotation.release();
  rt.reset();
}

}  // namespace
}  // namespace loopbench

int main(int argc, char** argv) {
  using namespace loopbench;
  const options opt = parse(argc, argv);
  std::unique_ptr<workload> wl = make_workload(opt.workload);
  if (!wl) usage("unknown workload '" + opt.workload + "'");
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const std::uint32_t p = opt.workers;
  std::printf("{\"host\": {\"nproc\": %ld, \"cpu\": \"%s\", \"compiler\": "
              "\"%s\", \"build_type\": \"%s\", \"P\": %u, \"seed\": %llu, "
              "\"workload\": \"%s\", \"seconds\": %g, \"trace\": %d}}\n",
              nproc, json_escape(cpu_model()).c_str(),
              json_escape(compiler()).c_str(), LOOPBENCH_BUILD_TYPE, p,
              static_cast<unsigned long long>(opt.seed), opt.workload.c_str(),
              opt.seconds, opt.trace ? 1 : 0);
  if (nproc > 0 && p > static_cast<std::uint32_t>(nproc)) {
    std::fprintf(stderr,
                 "loopbench: refusing P = %u on a host with %ld CPUs: "
                 "oversubscribed workers time-slice and measure the OS "
                 "scheduler, not this one\n",
                 p, nproc);
    return 2;
  }
  const bool is_nas = !wl->kernel_names().empty();
  const std::size_t kernels = wl->kernel_names().size();
  check_tally checks;
  // Indexed by mode: serial, P = 1, P = 2, P.
  mode_data data[4] = {mode_data(false, opt.seconds),
                       mode_data(false, opt.seconds),
                       mode_data(false, opt.seconds),
                       mode_data(true, opt.seconds)};
  mode_data &ds = data[0], &d1 = data[1], &d2 = data[2], &d4 = data[3];

  // Set-up, three times: runtime construction, inputs, serial references
  // and a warm-up at P. The last one's runtime and inputs are kept.
  constexpr int kSetups = 3;
  std::vector<double> setup_s;
  std::unique_ptr<hls::rt::runtime> rt;
  for (int k = 0; k < kSetups; ++k) {
    rt.reset();
    wl = make_workload(opt.workload);
    const std::uint64_t t0 = now_ns();
    rt = make_runtime(p, opt.seed);
    wl->make_inputs(opt.seed);
    for (std::size_t u = 0; u < wl->warm_units(); ++u) {
      wl->run_unit(*rt, mode::p4, checks, nullptr);
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  std::unique_ptr<tracer> tr;
  if (opt.trace) tr = std::make_unique<tracer>(p);
  run_rounds(*wl, rt, p, opt.seed, opt.seconds, checks, tr.get(), data);

  std::printf("units: P=%u %zu+%zu traced in %.3f s (cpu %.3f s); serial %zu; "
              "P=1 %zu; P=2 %zu; %zu rounds\n",
              p, d4.units, d4.traced_units, d4.wall_s, d4.cpu_s, ds.units,
              d1.units, d2.units, d4.seg_time.size());
  for (int m = 0; m < 4; ++m) {
    std::printf("round times (us) %-6s", mode_name(static_cast<mode>(m)));
    for (double t : data[m].seg_time) std::printf(" %.1f", t * 1e-3);
    std::printf("\n");
  }
  if (is_nas) {
    const std::vector<std::string> names = wl->kernel_names();
    for (int m = 0; m < 4; ++m) {
      const std::vector<double> med = kernel_medians(data[m], kernels);
      std::printf("kernel medians (ms) %-6s", mode_name(static_cast<mode>(m)));
      for (std::size_t k = 0; k < kernels; ++k) {
        std::printf(" %s %.3f", names[k].c_str(), med[k] * 1e-6);
      }
      std::printf("\n");
    }
  }

  metric_sink out;
  if (!opt.trace) {
    // Times at P are medians over rounds of each round's own figure.
    const double t4 = median(d4.seg_time);
    const double ts = mode_time(ds);
    const loop_quantiles q = windowed_quantiles(d4);
    const double p50 = q.p50;
    std::printf("loop samples at P=%u: %zu in %zu windows\n", p, q.samples,
                q.windows);
    out.add("setup_s", median(setup_s), "s");
    out.add("loop_p50_us", p50 * 1e-3, "us");
    out.add("loop_p95_us", q.p95 * 1e-3, "us");
    if (is_nas) {
      // NPB operations per second of kernel time at P.
      out.add("iters_per_s", ratio(wl->suite_ops(), t4 * 1e-9), "1/s");
      out.add("kernel_s", t4 * 1e-9, "s");
    } else {
      out.add("iters_per_s",
              ratio(static_cast<double>(d4.iterations_per_unit), p50 * 1e-9),
              "1/s");
      out.add("kernel_s", median(d4.seg_step) * 1e-9, "s");
    }
    out.add("speedup_p2", ratio(ts, mode_time(d2)), "x");
    out.add("speedup_p4", ratio(ts, mode_time(d4)), "x");
    out.add("t1_over_ts", ratio(mode_time(d1), ts), "x");
    // Segments overrun their share by up to one unit, so the CPU time is
    // scaled to the P segments' nominal length.
    out.add("cpu_s", d4.cpu_s / d4.wall_s * wl->p_share() * opt.seconds, "s");
  } else {
    layer_metrics(d4, *wl, tr->prof, p, out);
    if (is_nas) {
      kernel_metrics(d4, ds, wl->kernel_names(), out);
    } else {
      // The workloads layer is measured by a short nas probe: one warm-up
      // and two timed suites at P, two serial suites.
      std::unique_ptr<workload> probe = make_workload("nas");
      probe->make_inputs(opt.seed);
      mode_data k[4] = {mode_data(false, 0), mode_data(false, 0),
                        mode_data(false, 0), mode_data(true, 0)};
      std::uint64_t pstep = 0;
      rt = make_runtime(p, opt.seed);
      probe->run_unit(*rt, mode::p4, checks, nullptr);
      run_segment(*probe, *rt, {mode::p4}, 0, 2, checks, nullptr, pstep, k);
      rt.reset();
      rt = make_runtime(1, opt.seed);
      run_segment(*probe, *rt, {mode::serial}, 0, 2, checks, nullptr, pstep, k);
      rt.reset();
      kernel_metrics(k[3], k[0], probe->kernel_names(), out);
    }
    // Headline metric with tracing on over the same with tracing off, from
    // alternating units of the same P segments.
    const double untraced =
        is_nas ? median(d4.suite_ns) : median(d4.loop.values());
    const double traced =
        is_nas ? median(d4.traced_suite_ns) : median(d4.traced_loop.values());
    std::printf("trace overhead: traced %.6g ns vs untraced %.6g ns "
                "(%zu / %zu units)\n",
                traced, untraced, d4.traced_units, d4.units);
    out.add("telemetry.trace_overhead",
            untraced > 0 ? traced / untraced - 1.0 : 0.0, "ratio");
    for (const ladder_metric& m : run_ladder(p, opt.seed)) {
      out.add(m.name, m.value, m.unit);
    }
    std::printf("span self times (%zu spans):\n", tr->spans.size());
    for (const auto& [name, e] : tr->spans.self_times()) {
      std::printf("  %-22s n=%-8llu self mean %.3f us\n", name.c_str(),
                  static_cast<unsigned long long>(e.first),
                  e.first ? e.second / static_cast<double>(e.first) * 1e-3
                          : 0.0);
    }
    if (!opt.spans_out.empty() && !tr->spans.write(opt.spans_out)) {
      std::fprintf(stderr, "loopbench: cannot write %s\n",
                   opt.spans_out.c_str());
    }
  }
  if (!opt.trace) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    out.add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
    // Rule-of-succession estimate (failed + 1) / (attempted + 2): never 0,
    // and one failed check at least doubles it.
    out.add("error_rate",
            (static_cast<double>(checks.failed) + 1.0) /
                (static_cast<double>(checks.attempted) + 2.0),
            "ratio");
  }
  if (checks.failed > 0) {
    std::fprintf(stderr, "loopbench: %llu of %llu output checks failed; "
                 "first: %s\n",
                 static_cast<unsigned long long>(checks.failed),
                 static_cast<unsigned long long>(checks.attempted),
                 checks.first_failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              checks.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed),
              out.json().c_str());
  return 0;
}
