// Discrete-event simulator correctness: determinism, conservation of work,
// per-policy scheduling behaviour, and the paper's qualitative performance
// claims at the 32-core scale (which this host cannot measure natively).
#include "sim/engine.h"

#include <gtest/gtest.h>

#include "sim/report.h"
#include "util/bits.h"
#include "workloads/micro.h"

namespace hls::sim {
namespace {

using workloads::micro_params;
using workloads::micro_spec;

machine_desc paper_machine() { return machine_desc{}; }

micro_params small_balanced() {
  micro_params p;
  p.iterations = 512;
  p.total_bytes = 8ull << 20;
  p.balanced = true;
  p.outer_iterations = 3;
  return p;
}

micro_params small_unbalanced() {
  micro_params p = small_balanced();
  p.balanced = false;
  return p;
}

TEST(SimEngine, DeterministicAcrossRuns) {
  const auto w = micro_spec(small_balanced());
  for (policy pol : kAllParallelPolicies) {
    sim_options opt;
    opt.seed = 99;
    const auto a = simulate(paper_machine(), w, pol, opt);
    const auto b = simulate(paper_machine(), w, pol, opt);
    EXPECT_EQ(a.makespan_ns, b.makespan_ns) << policy_name(pol);
    EXPECT_EQ(a.chunks, b.chunks) << policy_name(pol);
    EXPECT_EQ(a.steals, b.steals) << policy_name(pol);
    EXPECT_EQ(a.affinity, b.affinity) << policy_name(pol);
  }
}

TEST(SimEngine, SeedChangesDynamicScheduleButNotCoverage) {
  const auto w = micro_spec(small_balanced());
  sim_options a, b;
  a.seed = 1;
  b.seed = 2;
  a.record_owners = b.record_owners = true;
  const auto ra = simulate(paper_machine(), w, policy::dynamic_ws, a);
  const auto rb = simulate(paper_machine(), w, policy::dynamic_ws, b);
  ASSERT_EQ(ra.owners_per_loop.size(), rb.owners_per_loop.size());
  // Coverage identical (every iteration owned), schedule may differ.
  for (const auto& owners : ra.owners_per_loop) {
    for (auto o : owners) EXPECT_LT(o, paper_machine().workers);
  }
}

TEST(SimEngine, AllPoliciesScheduleEveryIteration) {
  const auto w = micro_spec(small_balanced());
  for (policy pol : kAllParallelPolicies) {
    sim_options opt;
    opt.record_schedule = true;
    const auto r = simulate(paper_machine(), w, pol, opt);
    std::int64_t iters = 0;
    for (const auto& c : r.schedule) iters += c.end - c.begin;
    EXPECT_EQ(iters, w.loops[0].n * w.outer_iterations) << policy_name(pol);
  }
}

TEST(SimEngine, SerialEqualsTsBaseline) {
  const auto w = micro_spec(small_balanced());
  const double ts = simulate_serial(paper_machine(), w);
  const auto r = simulate(paper_machine(), w, policy::serial);
  EXPECT_DOUBLE_EQ(r.makespan_ns, ts);
  EXPECT_GT(ts, 0.0);
}

TEST(SimEngine, OneWorkerCostsAtLeastSerial) {
  const auto w = micro_spec(small_balanced());
  const double ts = simulate_serial(paper_machine(), w);
  for (policy pol : kAllParallelPolicies) {
    const auto r = simulate(paper_machine().with_workers(1), w, pol);
    EXPECT_GE(r.makespan_ns, ts * 0.999) << policy_name(pol);
    // Overhead should be modest: work efficiency near 1 (paper Fig. 1 first
    // column).
    EXPECT_LT(r.makespan_ns, ts * 1.35) << policy_name(pol);
  }
}

TEST(SimEngine, ParallelismHelpsEveryPolicyOnBalancedWork) {
  const auto w = micro_spec(small_balanced());
  for (policy pol : kAllParallelPolicies) {
    const auto t1 = simulate(paper_machine().with_workers(1), w, pol);
    const auto t8 = simulate(paper_machine().with_workers(8), w, pol);
    EXPECT_LT(t8.makespan_ns, t1.makespan_ns / 2.5) << policy_name(pol);
  }
}

TEST(SimEngine, MakespanNeverBelowCriticalPath) {
  // TP >= T1/P is a physical law of the simulation (work conservation).
  const auto w = micro_spec(small_unbalanced());
  for (policy pol : kAllParallelPolicies) {
    const auto t1 = simulate(paper_machine().with_workers(1), w, pol);
    for (std::uint32_t p : {2u, 4u, 8u, 16u, 32u}) {
      const auto tp = simulate(paper_machine().with_workers(p), w, pol);
      EXPECT_GE(tp.makespan_ns * p, t1.makespan_ns * 0.8)
          << policy_name(pol) << " P=" << p;
    }
  }
}

TEST(SimEngine, StaticUsesExactlyPChunksPerLoop) {
  const auto w = micro_spec(small_balanced());
  sim_options opt;
  opt.record_schedule = true;
  const auto r =
      simulate(paper_machine().with_workers(8), w, policy::static_part, opt);
  EXPECT_EQ(r.chunks, 8u * w.outer_iterations);
  EXPECT_EQ(r.steals, 0u);
}

TEST(SimEngine, HybridClaimsEveryPartitionOncePerLoop) {
  const auto w = micro_spec(small_balanced());
  for (std::uint32_t p : {1u, 2u, 5u, 8u, 32u}) {
    const auto r = simulate(paper_machine().with_workers(p), w,
                            policy::hybrid);
    const std::uint64_t parts = next_pow2(p);
    EXPECT_EQ(r.successful_claims,
              parts * static_cast<std::uint64_t>(w.outer_iterations))
        << "P=" << p;
  }
}

TEST(SimEngine, SharedQueueAccessesMatchChunkCount) {
  const auto w = micro_spec(small_balanced());
  const auto r = simulate(paper_machine().with_workers(8), w,
                          policy::dynamic_shared);
  // Every chunk needs one queue access; drained probes add a few more.
  EXPECT_GE(r.queue_accesses, r.chunks);
}

TEST(SimEngine, GuidedUsesFewerChunksThanDynamicShared) {
  // The paper's rationale for guided: decreasing chunks => fewer queue
  // round-trips than fixed-size dynamic partitioning.
  auto p = small_balanced();
  p.outer_iterations = 1;
  auto w = micro_spec(p);
  // OpenMP's dynamic default is chunk size 1 (paper Section V); guided's
  // decreasing chunks are its answer to the resulting queue traffic.
  w.loops[0].chunk = 1;
  machine_desc m = paper_machine().with_workers(16);
  auto mk = [&](policy pol) { return simulate(m, w, pol); };
  const auto guided = mk(policy::guided);
  const auto dyn = mk(policy::dynamic_shared);
  EXPECT_LT(guided.chunks, dyn.chunks);
}

// ------- The paper's headline qualitative claims, at simulated 32 cores ----

TEST(PaperClaims, BalancedIterativeStaticAndHybridBeatDynamic) {
  micro_params p;
  p.iterations = 2048;
  p.total_bytes = workloads::kWsUnderL3;
  p.balanced = true;
  p.outer_iterations = 6;
  const auto w = micro_spec(p);
  const machine_desc m = paper_machine().with_workers(32);

  const double t_static =
      simulate(m, w, policy::static_part).makespan_ns;
  const double t_hybrid = simulate(m, w, policy::hybrid).makespan_ns;
  const double t_vanilla = simulate(m, w, policy::dynamic_ws).makespan_ns;

  // Fig. 1 top row: static best, hybrid follows closely, vanilla lags on
  // cross-socket balanced iterative workloads.
  EXPECT_LE(t_static, t_hybrid * 1.05);
  EXPECT_LT(t_hybrid, t_vanilla);
}

TEST(PaperClaims, UnbalancedStaticLagsBehindHybrid) {
  micro_params p;
  p.iterations = 2048;
  p.total_bytes = workloads::kWsUnderL3;
  p.balanced = false;
  p.outer_iterations = 6;
  const auto w = micro_spec(p);
  const machine_desc m = paper_machine().with_workers(32);

  const double t_static =
      simulate(m, w, policy::static_part).makespan_ns;
  const double t_hybrid = simulate(m, w, policy::hybrid).makespan_ns;
  const double t_guided = simulate(m, w, policy::guided).makespan_ns;

  // Fig. 1 bottom row: the heaviest static block (~3.3x mean work)
  // dominates static's makespan; hybrid load-balances it away and lands in
  // the same league as guided.
  EXPECT_LT(t_hybrid, t_static * 0.9);
  EXPECT_LT(t_hybrid, t_guided * 1.15);
}

TEST(PaperClaims, HybridAffinityNearOneBalanced) {
  micro_params p;
  p.iterations = 2048;
  p.total_bytes = workloads::kWsUnderL3;
  p.balanced = true;
  p.outer_iterations = 8;
  const auto w = micro_spec(p);
  const machine_desc m = paper_machine().with_workers(32);

  const auto hybrid = simulate(m, w, policy::hybrid);
  const auto vanilla = simulate(m, w, policy::dynamic_ws);
  const auto stat = simulate(m, w, policy::static_part);

  // Fig. 2: hybrid 99.99 %, static 100 %, vanilla ~3 %.
  EXPECT_DOUBLE_EQ(stat.affinity, 1.0);
  EXPECT_GT(hybrid.affinity, 0.95);
  EXPECT_LT(vanilla.affinity, 0.45);
  EXPECT_GT(hybrid.affinity, vanilla.affinity + 0.4);
}

TEST(PaperClaims, VanillaShiftsMissesToRemoteMemory) {
  micro_params p;
  p.iterations = 2048;
  p.total_bytes = workloads::kWsAboveL3;  // DRAM-bound working set
  p.balanced = true;
  p.outer_iterations = 4;
  const auto w = micro_spec(p);
  const machine_desc m = paper_machine().with_workers(32);

  const auto hybrid = simulate(m, w, policy::hybrid);
  const auto vanilla = simulate(m, w, policy::dynamic_ws);

  // Fig. 4's pattern: hybrid misses serviced mostly by LOCAL DRAM, vanilla
  // shifts a large share to REMOTE DRAM / remote L3.
  const double hybrid_remote = hybrid.mem.dram_remote + hybrid.mem.remote_l3;
  const double vanilla_remote =
      vanilla.mem.dram_remote + vanilla.mem.remote_l3;
  EXPECT_GT(hybrid.mem.dram_local, hybrid_remote);
  EXPECT_GT(vanilla_remote, hybrid_remote * 1.5);
}

TEST(PaperClaims, StragglersHurtStaticFarMoreThanHybrid) {
  // Section I: static partitioning performs poorly when cores arrive at the
  // loop at different times; the hybrid claim protocol hands a straggler's
  // earmarked partition to whoever shows up.
  micro_params p;
  p.iterations = 2048;
  p.total_bytes = workloads::kWsUnderL3;
  p.balanced = true;
  p.outer_iterations = 6;
  const auto w = micro_spec(p);
  const machine_desc m = paper_machine().with_workers(32);

  sim_options calm, rough;
  rough.straggler_fraction = 0.25;
  rough.straggler_delay_ns = 5e6;  // 5 ms stragglers

  const double static_calm =
      simulate(m, w, policy::static_part, calm).makespan_ns;
  const double static_rough =
      simulate(m, w, policy::static_part, rough).makespan_ns;
  const double hybrid_rough =
      simulate(m, w, policy::hybrid, rough).makespan_ns;

  EXPECT_GT(static_rough, static_calm * 3.0) << "static must stall";
  EXPECT_LT(hybrid_rough, static_rough * 0.6)
      << "hybrid redistributes straggler partitions";
}

TEST(SimEngine, OverheadDecompositionMatchesPolicyMechanism) {
  // Each policy pays in its own currency: central-queue schemes in queue
  // time, hybrid in claims (plus steals when unbalanced), vanilla in
  // steals; static pays only dispatch.
  const auto w = micro_spec(small_unbalanced());
  const machine_desc m = paper_machine().with_workers(16);

  const auto stat = simulate(m, w, policy::static_part);
  EXPECT_EQ(stat.steal_ns, 0.0);
  EXPECT_EQ(stat.claim_ns, 0.0);
  EXPECT_EQ(stat.queue_ns, 0.0);
  EXPECT_GT(stat.dispatch_ns, 0.0);

  const auto shared = simulate(m, w, policy::dynamic_shared);
  EXPECT_GT(shared.queue_ns, 0.0);
  EXPECT_EQ(shared.steal_ns, 0.0);

  const auto hybrid = simulate(m, w, policy::hybrid);
  EXPECT_GT(hybrid.claim_ns, 0.0);
  EXPECT_EQ(hybrid.queue_ns, 0.0);

  const auto vanilla = simulate(m, w, policy::dynamic_ws);
  EXPECT_GT(vanilla.steal_ns, 0.0);
  EXPECT_EQ(vanilla.claim_ns, 0.0);
}

TEST(SimEngine, UtilizationReflectsLoadBalance) {
  // Balanced loops keep every worker busy; static scheduling of the
  // unbalanced ramp idles the light-block workers while the heavy block
  // finishes.
  micro_params bal = small_balanced();
  micro_params unb = small_unbalanced();
  const machine_desc m = paper_machine().with_workers(32);
  const auto rb = simulate(m, micro_spec(bal), policy::hybrid);
  const auto ru = simulate(m, micro_spec(unb), policy::static_part);
  EXPECT_GT(rb.utilization, 0.6);
  EXPECT_LE(rb.utilization, 1.0 + 1e-9);
  EXPECT_LT(ru.utilization, rb.utilization);
  ASSERT_EQ(rb.busy_ns_per_worker.size(), 32u);
  for (double b : rb.busy_ns_per_worker) EXPECT_GT(b, 0.0);
}

TEST(SweepReport, ProducesMonotoneSpeedupForHybridBalanced) {
  micro_params p;
  p.iterations = 1024;
  p.total_bytes = 16ull << 20;
  p.balanced = true;
  p.outer_iterations = 3;
  const auto w = micro_spec(p);
  const std::vector<std::uint32_t> workers{1, 2, 4, 8, 16, 32};
  const auto sweep =
      sweep_workers(paper_machine(), w, policy::hybrid, workers);
  EXPECT_GT(sweep.work_efficiency, 0.7);
  EXPECT_LE(sweep.work_efficiency, 1.01);
  ASSERT_EQ(sweep.points.size(), workers.size());
  // Speedup grows with P (allowing mild flattening at the top).
  EXPECT_GT(sweep.points[3].speedup, sweep.points[0].speedup);
  EXPECT_GT(sweep.points.back().speedup, 4.0);
}

}  // namespace
}  // namespace hls::sim
