// Determinism and correctness of the sharded async executor: any
// AsyncOptions::num_threads must produce bit-identical matchings,
// AsyncStats, fault counters, and obs output; exceptions must propagate
// out of shard workers; and the parallel Network build / extraction must
// agree with the sequential scan.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "congest/async.hpp"
#include "congest/network.hpp"
#include "core/israeli_itai.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "obs/obs.hpp"
#include "support/wire.hpp"

namespace dmatch {
namespace {

using congest::AsyncOptions;
using congest::AsyncRunResult;
using congest::AsyncStats;
using congest::Context;
using congest::Envelope;
using congest::FaultPlan;
using congest::Message;
using congest::Model;
using congest::Network;
using congest::Process;

const unsigned kThreadCounts[] = {1, 2, 8};

void expect_same_async_stats(const AsyncStats& a, const AsyncStats& b,
                             unsigned threads) {
  EXPECT_EQ(a.events, b.events) << "threads=" << threads;
  EXPECT_EQ(a.payload_messages, b.payload_messages) << "threads=" << threads;
  EXPECT_EQ(a.control_messages, b.control_messages) << "threads=" << threads;
  EXPECT_EQ(a.virtual_rounds, b.virtual_rounds) << "threads=" << threads;
  EXPECT_EQ(a.completion_time, b.completion_time) << "threads=" << threads;
  EXPECT_EQ(a.completed, b.completed) << "threads=" << threads;
  EXPECT_EQ(a.round_payloads, b.round_payloads) << "threads=" << threads;
  EXPECT_EQ(a.dropped_messages, b.dropped_messages) << "threads=" << threads;
  EXPECT_EQ(a.duplicated_messages, b.duplicated_messages)
      << "threads=" << threads;
  EXPECT_EQ(a.delayed_messages, b.delayed_messages) << "threads=" << threads;
  EXPECT_EQ(a.reordered_inboxes, b.reordered_inboxes) << "threads=" << threads;
  EXPECT_EQ(a.crashed_nodes, b.crashed_nodes) << "threads=" << threads;
  EXPECT_EQ(a.restarted_nodes, b.restarted_nodes) << "threads=" << threads;
}

AsyncRunResult run_async(const Graph& g, std::uint64_t seed, unsigned threads,
                         const FaultPlan& plan = {},
                         obs::Observer* observer = nullptr,
                         int max_rounds = 1 << 14) {
  AsyncOptions options;
  options.num_threads = threads;
  options.fault = plan;
  options.observer = observer;
  return congest::run_synchronized(g, israeli_itai_factory(), seed, max_rounds,
                                   options);
}

/// Fixed-horizon chatty process: floods every port for 12 rounds, then
/// halts. Robust under any fault plan (no protocol invariants to trip)
/// and bounded in runtime, so it can carry the full lossy plan.
class Chatter final : public Process {
 public:
  void on_round(Context& ctx, std::span<const Envelope>) override {
    if (ctx.round() < 12) {
      BitWriter w;
      w.write_bool(true);
      const Message msg = Message::from_writer(std::move(w));
      for (int p = 0; p < ctx.degree(); ++p) ctx.send(p, msg);
    }
    halted_ = ctx.round() >= 12;
  }
  [[nodiscard]] bool halted() const override { return halted_; }

 private:
  bool halted_ = false;
};

AsyncRunResult run_chatter(const Graph& g, std::uint64_t seed,
                           unsigned threads, const FaultPlan& plan,
                           obs::Observer* observer = nullptr) {
  AsyncOptions options;
  options.num_threads = threads;
  options.fault = plan;
  options.observer = observer;
  return congest::run_synchronized(
      g,
      [](NodeId, const Graph&) -> std::unique_ptr<Process> {
        return std::make_unique<Chatter>();
      },
      seed, 256, options);
}

TEST(AsyncParallel, FaultFreeBitIdenticalAcrossThreadCounts) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Graph g = gen::gnp(120, 0.05, seed);
    const AsyncRunResult expected = run_async(g, seed, 1);
    EXPECT_TRUE(expected.stats.completed) << "seed=" << seed;
    EXPECT_TRUE(expected.matching.is_maximal(g));
    for (const unsigned threads : kThreadCounts) {
      const AsyncRunResult got = run_async(g, seed, threads);
      expect_same_async_stats(expected.stats, got.stats, threads);
      EXPECT_TRUE(expected.matching == got.matching)
          << "threads=" << threads << " seed=" << seed;
    }
  }
}

TEST(AsyncParallel, FaultPlanBitIdenticalAcrossThreadCounts) {
  // Full lossy plan (drops + duplicates + delays + reorders) carried by
  // the fixed-horizon Chatter so every fault path fires without tripping
  // a protocol invariant; all counters must agree bit for bit.
  FaultPlan plan;
  plan.seed = 77;
  plan.drop_prob = 0.05;
  plan.duplicate_prob = 0.04;
  plan.delay_prob = 0.04;
  plan.reorder_prob = 0.1;
  for (const std::uint64_t seed : {4u, 5u}) {
    const Graph g = gen::gnp(90, 0.06, seed);
    const AsyncRunResult expected = run_chatter(g, seed, 1, plan);
    EXPECT_GT(expected.stats.dropped_messages, 0u) << "seed=" << seed;
    EXPECT_GT(expected.stats.duplicated_messages, 0u) << "seed=" << seed;
    EXPECT_GT(expected.stats.reordered_inboxes, 0u) << "seed=" << seed;
    for (const unsigned threads : kThreadCounts) {
      const AsyncRunResult got = run_chatter(g, seed, threads, plan);
      expect_same_async_stats(expected.stats, got.stats, threads);
      EXPECT_EQ(expected.dead_nodes, got.dead_nodes) << "threads=" << threads;
    }
  }
  // And the real protocol under a drops-only plan that it survives: the
  // healed matching itself must be bit-identical too. The round budget
  // is deliberately short — under drops the protocol may never quiesce,
  // and a truncated history must still agree bit for bit.
  const Graph g = gen::gnp(120, 0.06, 7);
  FaultPlan drops;
  drops.drop_prob = 0.1;
  drops.seed = 11;
  const AsyncRunResult expected = run_async(g, 7, 1, drops, nullptr, 512);
  EXPECT_GT(expected.stats.dropped_messages, 0u);
  for (const unsigned threads : kThreadCounts) {
    const AsyncRunResult got = run_async(g, 7, threads, drops, nullptr, 512);
    expect_same_async_stats(expected.stats, got.stats, threads);
    EXPECT_TRUE(expected.matching == got.matching) << "threads=" << threads;
    EXPECT_EQ(expected.dead_nodes, got.dead_nodes) << "threads=" << threads;
  }
}

TEST(AsyncParallel, CrashRestartBitIdenticalAcrossThreadCounts) {
  FaultPlan plan;
  plan.seed = 9;
  plan.crash_prob = 0.1;
  plan.restart_prob = 0.5;
  const Graph g = gen::gnp(80, 0.07, 13);
  const AsyncRunResult expected = run_async(g, 13, 1, plan);
  EXPECT_GT(expected.stats.crashed_nodes, 0u);
  for (const unsigned threads : kThreadCounts) {
    const AsyncRunResult got = run_async(g, 13, threads, plan);
    expect_same_async_stats(expected.stats, got.stats, threads);
    EXPECT_TRUE(expected.matching == got.matching) << "threads=" << threads;
    EXPECT_EQ(expected.dead_nodes, got.dead_nodes) << "threads=" << threads;
    EXPECT_TRUE(
        verify_matching_invariants(g, got.matching, got.dead_nodes).ok())
        << "threads=" << threads;
  }
}

TEST(AsyncParallel, ObsOutputByteIdenticalAcrossThreadCounts) {
  // Bounded-horizon run under a plan hitting every fault class; merged
  // metrics JSON and merged trace must be byte-identical per thread
  // count (a fresh Observer per run keeps the comparison exact).
  FaultPlan plan;
  plan.seed = 21;
  plan.drop_prob = 0.05;
  plan.duplicate_prob = 0.04;
  plan.crash_prob = 0.05;
  plan.restart_prob = 0.5;
  const Graph g = gen::gnp(70, 0.08, 31);

  std::string ref_metrics;
  std::vector<obs::TraceEvent> ref_trace;
  for (const unsigned threads : kThreadCounts) {
    obs::Observer ob;
    const AsyncRunResult res = run_chatter(g, 31, threads, plan, &ob);
    (void)res;
    std::ostringstream metrics;
    ob.metrics().write_json(metrics);
    const std::vector<obs::TraceEvent> trace = ob.trace_sink().merged();
    if (threads == 1) {
      ref_metrics = metrics.str();
      ref_trace = trace;
      EXPECT_FALSE(ref_trace.empty());
    } else {
      EXPECT_EQ(ref_metrics, metrics.str()) << "threads=" << threads;
      EXPECT_TRUE(ref_trace == trace) << "threads=" << threads;
    }
  }
}

TEST(AsyncParallel, ContractViolationPropagatesFromShard) {
  // Sending twice on one port in the same virtual round violates the
  // CONGEST delivery contract (and would break the canonical event key);
  // it must surface as a ContractViolation from any thread count.
  class DoubleSender final : public Process {
   public:
    void on_round(Context& ctx, std::span<const Envelope>) override {
      BitWriter w;
      w.write(1, 1);
      ctx.send(0, Message::from_writer(std::move(w)));
      BitWriter w2;
      w2.write(1, 1);
      ctx.send(0, Message::from_writer(std::move(w2)));
      halted_ = true;
    }
    [[nodiscard]] bool halted() const override { return halted_; }

   private:
    bool halted_ = false;
  };
  const Graph g = gen::cycle(16);
  for (const unsigned threads : {1u, 8u}) {
    std::vector<int> mates(static_cast<std::size_t>(g.node_count()), -1);
    AsyncOptions options;
    options.num_threads = threads;
    EXPECT_THROW(congest::run_synchronized(
                     g,
                     [](NodeId, const Graph&) -> std::unique_ptr<Process> {
                       return std::make_unique<DoubleSender>();
                     },
                     mates, 1, 8, options, nullptr),
                 ContractViolation)
        << "threads=" << threads;
  }
}

TEST(AsyncParallel, AgreesWithRoundEngineForAnyThreadPairing) {
  // The same protocol through the sharded round engine and the sharded
  // async executor, each at several thread counts: one matching.
  const Graph g = gen::gnp(100, 0.06, 17);
  Network net(g, Model::kCongest, 23, 48, Network::Options{.num_threads = 1});
  const IsraeliItaiResult sync_result = israeli_itai(net);
  for (const unsigned threads : kThreadCounts) {
    Network pnet(g, Model::kCongest, 23, 48,
                 Network::Options{.num_threads = threads});
    const IsraeliItaiResult engine = israeli_itai(pnet);
    EXPECT_TRUE(engine.matching == sync_result.matching)
        << "threads=" << threads;
    const AsyncRunResult async_res = run_async(g, 23, threads);
    EXPECT_TRUE(async_res.matching == sync_result.matching)
        << "threads=" << threads;
  }
}

TEST(AsyncParallel, ParallelExtractMatchesSequentialScan) {
  // Build + run at several thread counts; the parallel chunk-ordered
  // extraction must reproduce the sequential matching exactly, and the
  // resilient extraction must tally the same degradation report.
  FaultPlan plan;
  plan.seed = 3;
  plan.crash_prob = 0.1;
  for (const std::uint64_t seed : {2u, 8u}) {
    const Graph g = gen::gnp(400, 0.02, seed);
    Matching ref;
    congest::DegradationReport ref_rep;
    for (const unsigned threads : kThreadCounts) {
      Network::Options options;
      options.num_threads = threads;
      options.fault = plan;
      Network net(g, Model::kCongest, seed, 48, options);
      try {
        net.run(israeli_itai_factory(), 256);
      } catch (const ContractViolation&) {
      } catch (const congest::MessageTooLarge&) {
      }
      congest::DegradationReport rep;
      const Matching m = net.extract_matching_resilient(&rep);
      if (threads == 1) {
        ref = m;
        ref_rep = rep;
      } else {
        EXPECT_TRUE(ref == m) << "threads=" << threads << " seed=" << seed;
        EXPECT_EQ(ref_rep.crashed_nodes, rep.crashed_nodes);
        EXPECT_EQ(ref_rep.dead_registers_healed, rep.dead_registers_healed);
        EXPECT_EQ(ref_rep.torn_registers_healed, rep.torn_registers_healed);
      }
    }
  }
}

TEST(AsyncParallel, StrictExtractAfterHealIdenticalAcrossThreadCounts) {
  // Heal + strict extraction exercise the parallel chunk-ordered scan on
  // a register state shaped by crashes; every thread count must agree
  // with the sequential result and with the resilient scan.
  FaultPlan plan;
  plan.seed = 5;
  plan.crash_prob = 0.15;
  plan.restart_prob = 0.3;
  const Graph g = gen::gnp(300, 0.03, 19);
  Matching ref;
  for (const unsigned threads : kThreadCounts) {
    Network::Options options;
    options.num_threads = threads;
    options.fault = plan;
    Network net(g, Model::kCongest, 19, 48, options);
    try {
      net.run(israeli_itai_factory(), 256);
    } catch (const ContractViolation&) {
    } catch (const congest::MessageTooLarge&) {
    }
    const Matching via_resilient = net.extract_matching_resilient();
    net.heal_registers();
    const Matching via_heal = net.extract_matching();
    EXPECT_TRUE(via_resilient == via_heal) << "threads=" << threads;
    EXPECT_TRUE(via_heal.is_valid(g)) << "threads=" << threads;
    if (threads == 1) {
      ref = via_heal;
    } else {
      EXPECT_TRUE(ref == via_heal) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace dmatch
