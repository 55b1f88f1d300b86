#include "sim/engine.h"

#include <algorithm>
#include <deque>
#include <queue>

#include "core/claim.h"
#include "core/weighted_split.h"
#include "trace/affinity.h"
#include "util/rng.h"

namespace hls::sim {
namespace {

struct irange {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::int64_t size() const noexcept { return hi - lo; }
};

// Simulates ONE parallel loop instance. Workers are state machines driven
// by a (time, worker) min-heap; the policy decides each worker's next busy
// interval. The locality model persists across instances (owned by the
// caller), which is where affinity pays off.
class loop_sim {
 public:
  loop_sim(const machine_desc& m, const loop_spec& ls, policy pol,
           locality_model& loc, xoshiro256ss& rng, sim_result& out,
           const sim_options& opt, std::uint32_t flat_loop_index,
           double post_time, std::vector<std::uint32_t>* owners)
      : m_(m), ls_(ls), pol_(pol), loc_(loc), rng_(rng), out_(out), opt_(opt),
        flat_index_(flat_loop_index), post_(post_time), owners_(owners),
        n_(ls.n), p_(m.workers == 0 ? 1 : m.workers) {
    if (out_.busy_ns_per_worker.size() < p_) {
      out_.busy_ns_per_worker.resize(p_, 0.0);
    }
    grain_ = ls.grain > 0 ? ls.grain : default_grain(n_, p_);
    chunk_ = ls.chunk > 0 ? ls.chunk : default_grain(n_, p_);
    min_chunk_ = ls.min_chunk > 0 ? ls.min_chunk : 1;
    const std::uint32_t parts = ls.partitions > 0 ? ls.partitions : p_;
    r_count_ = next_pow2(parts);
    claimed_.assign(r_count_, 0);
    if (pol == policy::hybrid && ls.iteration_weight) {
      weighted_bounds_ =
          core::weighted_boundaries(0, n_, r_count_, ls.iteration_weight);
    }
    taken_.assign(p_, 0);
    ws_.resize(p_);
  }

  double run() {
    finish_ = post_ + m_.loop_post;
    for (std::uint32_t w = 0; w < p_; ++w) {
      const double discovery =
          w == 0 ? 0.0 : m_.discovery * (0.5 + rng_.next_double());
      double straggle = 0.0;
      if (w != 0 && opt_.straggler_fraction > 0.0 &&
          rng_.next_double() < opt_.straggler_fraction) {
        straggle =
            opt_.straggler_delay_ns * (0.5 + 0.5 * rng_.next_double());
      }
      schedule(w, post_ + m_.loop_post + straggle + discovery);
    }
    while (!heap_.empty()) {
      const auto [t, w] = heap_.top();
      heap_.pop();
      if (ws_[w].md != wmode::done) step(w, t);
    }
    return finish_;
  }

 private:
  enum class wmode { entering, claiming, thief, queue, done };

  struct wstate {
    wmode md = wmode::entering;
    std::deque<irange> dq;  // back = bottom (owner side), front = top
    std::uint64_t claim_i = 0;
    double idle_backoff = 0;
  };

  void schedule(std::uint32_t w, double t) { heap_.push({t, w}); }

  irange split_range(std::int64_t lo, std::int64_t total,
                     std::uint64_t pieces, std::uint64_t k) const {
    // Balanced k-th piece of [lo, lo+total) in `pieces` pieces.
    const std::int64_t base = total / static_cast<std::int64_t>(pieces);
    const std::int64_t rem = total % static_cast<std::int64_t>(pieces);
    const std::int64_t ki = static_cast<std::int64_t>(k);
    const std::int64_t extra = std::min<std::int64_t>(ki, rem);
    const std::int64_t b = lo + ki * base + extra;
    return {b, b + base + (ki < rem ? 1 : 0)};
  }

  irange part_range(std::uint64_t r) const {
    if (!weighted_bounds_.empty()) {
      return {weighted_bounds_[r], weighted_bounds_[r + 1]};
    }
    return split_range(0, n_, r_count_, r);
  }
  irange block_range(std::uint32_t w) const {
    return split_range(0, n_, p_, w);
  }

  double exec_cost(std::uint32_t core, irange rg) {
    double ns = 0;
    for (std::int64_t i = rg.lo; i < rg.hi; ++i) {
      ns += ls_.cpu(i) + loc_.access_ns(ls_, i, core);
      if (owners_ != nullptr) (*owners_)[i] = core;
    }
    return ns;
  }

  // Executes rg's leftmost grain-sized chunk after d&c splitting (upper
  // halves go to the worker's deque for thieves); schedules the completion
  // event.
  void run_range(std::uint32_t w, irange rg, double t, double lead) {
    while (rg.size() > grain_) {
      const std::int64_t mid = rg.lo + rg.size() / 2;
      ws_[w].dq.push_back({mid, rg.hi});
      rg.hi = mid;
    }
    out_.dispatch_ns += m_.chunk_dispatch;
    run_chunk(w, rg, t, lead + m_.chunk_dispatch);
  }

  // Executes rg as one sequential chunk.
  void run_chunk(std::uint32_t w, irange rg, double t, double lead) {
    const double start = t + lead;
    const double dur = exec_cost(w, rg);
    out_.work_ns += dur;
    out_.busy_ns_per_worker[w] += lead + dur;
    ++out_.chunks;
    if (opt_.record_schedule) {
      out_.schedule.push_back({rg.lo, rg.hi, w, flat_index_, start});
    }
    done_iters_ += rg.size();
    const double end = start + dur;
    if (end > finish_) finish_ = end;
    ws_[w].idle_backoff = 0;
    schedule(w, end);
  }

  bool try_local(std::uint32_t w, double t) {
    auto& dq = ws_[w].dq;
    if (dq.empty()) return false;
    const irange rg = dq.back();
    dq.pop_back();
    run_range(w, rg, t, 0.0);
    return true;
  }

  bool try_steal(std::uint32_t w, double t) {
    // Victims with exposed work.
    std::uint32_t candidates = 0;
    for (std::uint32_t v = 0; v < p_; ++v) {
      if (v != w && !ws_[v].dq.empty()) ++candidates;
    }
    if (candidates == 0) return false;
    // Random probing: expected P/candidates probes to hit a non-empty deque.
    const std::uint64_t probes =
        std::max<std::uint64_t>(1, p_ / candidates) + rng_.next_below(2);
    // Pick the victim uniformly among candidates.
    std::uint32_t pick = static_cast<std::uint32_t>(rng_.next_below(candidates));
    std::uint32_t victim = 0;
    for (std::uint32_t v = 0; v < p_; ++v) {
      if (v != w && !ws_[v].dq.empty()) {
        if (pick == 0) {
          victim = v;
          break;
        }
        --pick;
      }
    }
    const irange rg = ws_[victim].dq.front();  // top = largest, oldest
    ws_[victim].dq.pop_front();
    ++out_.steals;
    out_.steal_probes += probes;
    const double steal_cost =
        static_cast<double>(probes) * m_.steal_attempt + m_.steal_success;
    out_.steal_ns += steal_cost;
    run_range(w, rg, t, steal_cost);
    return true;
  }

  // Returns true if a claim produced work (event scheduled). On exit from
  // the claim loop, switches the worker to thief mode and charges the
  // accumulated claim time.
  bool try_claim(std::uint32_t w, double t) {
    auto& s = ws_[w];
    const std::uint32_t weff =
        w & static_cast<std::uint32_t>(r_count_ - 1);
    double lead = 0;
    while (s.claim_i < r_count_) {
      lead += m_.claim_cost;
      const std::uint64_t r = core::claim_target(s.claim_i, weff);
      if (claimed_[r] == 0) {
        claimed_[r] = 1;
        ++out_.successful_claims;
        s.claim_i += 1;
        const irange rg = part_range(r);
        if (rg.size() == 0) continue;  // empty partition: claimed, move on
        out_.claim_ns += lead;
        run_range(w, rg, t, lead);
        return true;
      }
      ++out_.failed_claims;
      if (s.claim_i == 0) break;  // designated partition taken: leave loop
      s.claim_i = core::advance_on_failure(s.claim_i);
    }
    // Claim loop exhausted: revert to ordinary randomized work stealing.
    s.md = wmode::thief;
    out_.claim_ns += lead;
    if (lead > 0) {
      schedule(w, t + lead);
      return true;  // the time was consumed; next event continues as thief
    }
    return false;
  }

  bool try_queue(std::uint32_t w, double t) {
    if (qnext_ >= n_) return false;
    ++out_.queue_accesses;
    const double t_acc = std::max(t, queue_free_) + m_.queue_cs;
    queue_free_ = t_acc;
    std::int64_t size;
    if (pol_ == policy::guided) {
      size = std::max(min_chunk_,
                      (n_ - qnext_) / (2 * static_cast<std::int64_t>(p_)));
    } else {
      size = chunk_;
    }
    const irange rg{qnext_, std::min(n_, qnext_ + size)};
    qnext_ = rg.hi;
    out_.queue_ns += t_acc - t;
    run_chunk(w, rg, t, t_acc - t);  // queue wait + critical section as lead
    return true;
  }

  void step(std::uint32_t w, double t) {
    auto& s = ws_[w];
    if (s.md == wmode::entering) {
      switch (pol_) {
        case policy::static_part: {
          if (w < p_ && taken_[w] == 0) {
            taken_[w] = 1;
            const irange rg = block_range(w);
            if (rg.size() > 0) {
              out_.dispatch_ns += m_.chunk_dispatch;
              run_chunk(w, rg, t, m_.chunk_dispatch);
            }
          }
          s.md = wmode::done;  // strict static: one block, then leave
          return;
        }
        case policy::dynamic_shared:
        case policy::guided:
          s.md = wmode::queue;
          break;
        case policy::dynamic_ws:
          if (w == 0) s.dq.push_back({0, n_});
          s.md = wmode::thief;
          break;
        case policy::hybrid: {
          const std::uint32_t weff =
              w & static_cast<std::uint32_t>(r_count_ - 1);
          // DoHybridLoop steal protocol: enter via the claim loop iff the
          // designated partition is still unclaimed.
          s.md = claimed_[core::claim_target(0, weff)] == 0 ? wmode::claiming
                                                            : wmode::thief;
          s.claim_i = 0;
          break;
        }
        case policy::serial:
          s.md = wmode::done;
          return;
      }
    }

    switch (s.md) {
      case wmode::queue:
        if (!try_queue(w, t)) s.md = wmode::done;
        return;

      case wmode::claiming:
        // Finish the local share of the claimed partition first
        // (drain_local), then claim the next partition.
        if (try_local(w, t)) return;
        if (try_claim(w, t)) return;
        [[fallthrough]];

      case wmode::thief: {
        if (try_local(w, t)) return;
        if (try_steal(w, t)) return;
        if (done_iters_ >= n_) {
          s.md = wmode::done;
          return;
        }
        // Nothing stealable yet: exponential backoff retry.
        s.idle_backoff = std::min(
            10000.0, std::max(2.0 * m_.steal_attempt, s.idle_backoff * 2.0));
        schedule(w, t + s.idle_backoff);
        return;
      }

      case wmode::entering:
      case wmode::done:
        return;
    }
  }

  const machine_desc& m_;
  const loop_spec& ls_;
  const policy pol_;
  locality_model& loc_;
  xoshiro256ss& rng_;
  sim_result& out_;
  const sim_options& opt_;
  const std::uint32_t flat_index_;
  const double post_;
  std::vector<std::uint32_t>* owners_;

  const std::int64_t n_;
  const std::uint32_t p_;
  std::int64_t grain_ = 1;
  std::int64_t chunk_ = 1;
  std::int64_t min_chunk_ = 1;
  std::uint64_t r_count_ = 1;

  std::vector<wstate> ws_;
  std::vector<std::int64_t> weighted_bounds_;
  std::vector<char> claimed_;
  std::vector<char> taken_;
  std::int64_t qnext_ = 0;
  double queue_free_ = 0;
  std::int64_t done_iters_ = 0;
  double finish_ = 0;

  using ev = std::pair<double, std::uint32_t>;
  std::priority_queue<ev, std::vector<ev>, std::greater<>> heap_;
};

}  // namespace

sim_result simulate(const machine_desc& m, const workload_spec& w, policy pol,
                    const sim_options& opt) {
  sim_result out;
  if (pol == policy::serial) {
    out.makespan_ns = simulate_serial(m, w);
    out.work_ns = out.makespan_ns;
    return out;
  }

  xoshiro256ss rng(opt.seed);
  locality_model loc(m, w, m.workers);

  const bool want_owners = opt.record_owners || w.outer_iterations > 1;
  std::vector<trace::affinity_meter> meters(w.loops.size());

  double t = 0;
  std::uint32_t flat = 0;
  for (int outer = 0; outer < w.outer_iterations; ++outer) {
    for (std::size_t li = 0; li < w.loops.size(); ++li) {
      const loop_spec& ls = w.loops[li];
      std::vector<std::uint32_t> owners;
      if (want_owners) {
        owners.assign(static_cast<std::size_t>(ls.n), 0);
      }
      loop_sim sim(m, ls, pol, loc, rng, out, opt, flat, t,
                   want_owners ? &owners : nullptr);
      t = sim.run();
      t += m.seq_section_ns;
      if (want_owners) {
        meters[li].observe(owners);
        if (opt.record_owners) out.owners_per_loop.push_back(std::move(owners));
      }
      ++flat;
    }
  }
  out.makespan_ns = t - m.seq_section_ns;  // no trailing serial section
  out.mem = loc.counts();
  if (out.makespan_ns > 0 && !out.busy_ns_per_worker.empty()) {
    double busy = 0;
    for (double b : out.busy_ns_per_worker) busy += b;
    out.utilization = busy / (out.makespan_ns *
                              static_cast<double>(out.busy_ns_per_worker.size()));
  }

  double aff_sum = 0;
  std::size_t aff_n = 0;
  for (const auto& meter : meters) {
    if (meter.pairs() > 0) {
      aff_sum += meter.average();
      ++aff_n;
    }
  }
  out.affinity = aff_n == 0 ? 0.0 : aff_sum / static_cast<double>(aff_n);
  return out;
}

double simulate_serial(const machine_desc& m, const workload_spec& w) {
  locality_model loc(m, w, 1);
  double t = 0;
  for (int outer = 0; outer < w.outer_iterations; ++outer) {
    for (const loop_spec& ls : w.loops) {
      for (std::int64_t i = 0; i < ls.n; ++i) {
        t += ls.cpu(i) + loc.access_ns(ls, i, 0);
      }
      t += m.seq_section_ns;
    }
  }
  return t - m.seq_section_ns;
}

}  // namespace hls::sim
