// Determinism and correctness of the sharded round engine: any
// Options::num_threads must produce bit-identical RunStats and matchings,
// exceptions must propagate out of worker threads, and the quiescence /
// message-histogram bookkeeping must match the sequential semantics.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "congest/network.hpp"
#include "core/bipartite_mcm.hpp"
#include "core/israeli_itai.hpp"
#include "graph/generators.hpp"
#include "mis/luby.hpp"
#include "support/wire.hpp"

namespace dmatch {
namespace {

using congest::Context;
using congest::Envelope;
using congest::Message;
using congest::MessageTooLarge;
using congest::Model;
using congest::Network;
using congest::Process;
using congest::ProcessFactory;
using congest::RunStats;

const unsigned kThreadCounts[] = {1, 2, 8};

void expect_same_stats(const RunStats& a, const RunStats& b,
                       unsigned threads) {
  EXPECT_EQ(a.rounds, b.rounds) << "threads=" << threads;
  EXPECT_EQ(a.messages, b.messages) << "threads=" << threads;
  EXPECT_EQ(a.total_bits, b.total_bits) << "threads=" << threads;
  EXPECT_EQ(a.max_message_bits, b.max_message_bits) << "threads=" << threads;
  EXPECT_EQ(a.completed, b.completed) << "threads=" << threads;
  EXPECT_EQ(a.round_messages, b.round_messages) << "threads=" << threads;
}

/// Two-round weighted protocol: free nodes propose to their heaviest
/// still-free neighbor (random tie-break), mutual proposals match. Exists
/// to exercise edge weights and per-node randomness under the engine; it
/// is not one of the paper's algorithms.
class HeaviestProposer final : public Process {
 public:
  explicit HeaviestProposer(int degree)
      : alive_(static_cast<std::size_t>(degree), true) {}

  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    const bool propose_round = ctx.round() % 2 == 0;
    for (const Envelope& env : inbox) {
      auto r = env.msg.reader();
      const auto kind = r.read(1);
      if (kind == 0) {  // MATCHED announcement
        alive_[static_cast<std::size_t>(env.port)] = false;
      } else if (!propose_round && env.port == proposed_ &&
                 ctx.mate_port() < 0) {
        ctx.set_mate_port(env.port);
        matched_ = true;
      }
    }
    if (matched_ && !announced_) {
      BitWriter w;
      w.write(0, 1);
      const Message msg = Message::from_writer(std::move(w));
      for (int p = 0; p < ctx.degree(); ++p) ctx.send(p, msg);
      announced_ = true;
      halted_ = true;
      return;
    }
    if (!propose_round || matched_) return;
    proposed_ = -1;
    Weight best = -1;
    int candidates = 0;
    for (int p = 0; p < ctx.degree(); ++p) {
      if (!alive_[static_cast<std::size_t>(p)]) continue;
      ++candidates;
      const Weight w = ctx.edge_weight(p);
      if (w > best || (w == best && ctx.rng().coin())) {
        best = w;
        proposed_ = p;
      }
    }
    if (proposed_ < 0) {
      halted_ = true;  // no free neighbors left
      return;
    }
    BitWriter w;
    w.write(1, 1);
    ctx.send(proposed_, Message::from_writer(std::move(w)));
  }

  [[nodiscard]] bool halted() const override { return halted_; }

 private:
  std::vector<bool> alive_;
  int proposed_ = -1;
  bool matched_ = false;
  bool announced_ = false;
  bool halted_ = false;
};

ProcessFactory heaviest_proposer_factory() {
  return [](NodeId id, const Graph& g) {
    return std::make_unique<HeaviestProposer>(g.degree(id));
  };
}

class Chatter final : public Process {
 public:
  Chatter(int rounds, unsigned bits) : rounds_(rounds), bits_(bits) {}

  void on_round(Context& ctx, std::span<const Envelope>) override {
    if (ctx.round() < rounds_) {
      BitWriter w;
      for (unsigned b = 0; b < bits_; ++b) w.write_bool(true);
      const Message msg = Message::from_writer(std::move(w));
      for (int p = 0; p < ctx.degree(); ++p) ctx.send(p, msg);
    }
    halted_ = ctx.round() >= rounds_;
  }

  [[nodiscard]] bool halted() const override { return halted_; }

 private:
  int rounds_;
  unsigned bits_;
  bool halted_ = false;
};

TEST(NetworkParallel, IsraeliItaiIdenticalAcrossThreadCounts) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Graph g = gen::gnp(300, 0.03, seed);
    Network ref(g, Model::kCongest, seed, 48,
                Network::Options{.num_threads = 1});
    const IsraeliItaiResult expected = israeli_itai(ref);
    EXPECT_TRUE(expected.matching.is_maximal(g));
    for (const unsigned threads : kThreadCounts) {
      Network net(g, Model::kCongest, seed, 48,
                  Network::Options{.num_threads = threads});
      const IsraeliItaiResult got = israeli_itai(net);
      expect_same_stats(expected.stats, got.stats, threads);
      EXPECT_TRUE(expected.matching == got.matching)
          << "threads=" << threads << " seed=" << seed;
    }
  }
}

TEST(NetworkParallel, BipartiteMcmIdenticalAcrossThreadCounts) {
  for (const std::uint64_t seed : {5u, 6u}) {
    const Graph g = gen::bipartite_gnp(48, 48, 0.12, seed);
    const auto side = g.bipartition();
    ASSERT_TRUE(side.has_value());
    BipartiteMcmOptions options;
    options.k = 3;
    Network ref(g, Model::kCongest, seed, 48,
                Network::Options{.num_threads = 1});
    const BipartiteMcmResult expected = bipartite_mcm(ref, *side, options);
    for (const unsigned threads : kThreadCounts) {
      Network net(g, Model::kCongest, seed, 48,
                  Network::Options{.num_threads = threads});
      const BipartiteMcmResult got = bipartite_mcm(net, *side, options);
      expect_same_stats(expected.stats, got.stats, threads);
      EXPECT_TRUE(expected.matching == got.matching)
          << "threads=" << threads << " seed=" << seed;
    }
  }
}

TEST(NetworkParallel, WeightedProtocolIdenticalAcrossThreadCounts) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const Graph g =
        gen::with_uniform_weights(gen::gnp(200, 0.04, seed), 1.0, 9.0, seed);
    Network ref(g, Model::kCongest, seed, 48,
                Network::Options{.num_threads = 1});
    const RunStats expected = ref.run(heaviest_proposer_factory(), 1 << 12);
    const Matching expected_m = ref.extract_matching();
    EXPECT_TRUE(expected.completed);
    for (const unsigned threads : kThreadCounts) {
      Network net(g, Model::kCongest, seed, 48,
                  Network::Options{.num_threads = threads});
      const RunStats got = net.run(heaviest_proposer_factory(), 1 << 12);
      expect_same_stats(expected, got, threads);
      EXPECT_TRUE(expected_m == net.extract_matching())
          << "threads=" << threads << " seed=" << seed;
    }
  }
}

TEST(NetworkParallel, LubyMisIdenticalAcrossThreadCounts) {
  const Graph g = gen::gnp(250, 0.04, 21);
  std::vector<std::uint8_t> ref_flags(250, 2);
  Network ref(g, Model::kCongest, 21, 48, Network::Options{.num_threads = 1});
  const RunStats expected = ref.run(luby_mis_factory(ref_flags), 1 << 12);
  for (const unsigned threads : kThreadCounts) {
    std::vector<std::uint8_t> flags(250, 2);
    Network net(g, Model::kCongest, 21, 48,
                Network::Options{.num_threads = threads});
    const RunStats got = net.run(luby_mis_factory(flags), 1 << 12);
    expect_same_stats(expected, got, threads);
    EXPECT_EQ(ref_flags, flags) << "threads=" << threads;
  }
}

TEST(NetworkParallel, MessageTooLargePropagatesFromWorker) {
  const Graph g = gen::gnp(64, 0.2, 3);
  Network net(g, Model::kCongest, 3, 1, Network::Options{.num_threads = 8});
  EXPECT_THROW(net.run(
                   [](NodeId, const Graph&) {
                     return std::make_unique<Chatter>(2, 100000);
                   },
                   8),
               MessageTooLarge);
  // The engine must come back clean: no stale message or pending mark from
  // the aborted round may leak into the next run.
  const RunStats stats = net.run(
      [](NodeId, const Graph&) { return std::make_unique<Chatter>(2, 1); },
      100);
  EXPECT_TRUE(stats.completed);
  const std::uint64_t sent = stats.messages;
  EXPECT_GT(sent, 0u);
}

TEST(NetworkParallel, ContractViolationPropagatesFromWorker) {
  // Sending twice on one port in the same round violates the delivery
  // contract and must surface as a ContractViolation from any thread count.
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
  for (const unsigned threads : {1u, 4u}) {
    Network net(g, Model::kCongest, 1, 48,
                Network::Options{.num_threads = threads});
    EXPECT_THROW(
        net.run([](NodeId, const Graph&)
                    -> std::unique_ptr<Process> {
          return std::make_unique<DoubleSender>();
        },
                4),
        ContractViolation);
  }
}

TEST(NetworkParallel, ImmediateQuiescenceCostsZeroRounds) {
  // Every node halts before round 0: the run must terminate without
  // burning a round (the legacy engine charged one).
  class BornHalted final : public Process {
   public:
    void on_round(Context&, std::span<const Envelope>) override {
      FAIL() << "halted process must never be stepped";
    }
    [[nodiscard]] bool halted() const override { return true; }
  };
  const Graph g = gen::cycle(12);
  for (const unsigned threads : kThreadCounts) {
    Network net(g, Model::kCongest, 1, 48,
                Network::Options{.num_threads = threads});
    const RunStats stats = net.run(
        [](NodeId, const Graph&) { return std::make_unique<BornHalted>(); },
        100);
    EXPECT_TRUE(stats.completed);
    EXPECT_EQ(stats.rounds, 0u);
    EXPECT_EQ(stats.messages, 0u);
    EXPECT_TRUE(stats.round_messages.empty());
  }
}

TEST(NetworkParallel, RoundMessageHistogram) {
  // Chatter(3, 7) on a 10-cycle: 20 messages in each of rounds 0..2, then
  // one silent wind-down round; the histogram is the per-round breakdown
  // of `messages`.
  const Graph g = gen::cycle(10);
  for (const unsigned threads : kThreadCounts) {
    Network net(g, Model::kCongest, 1, 48,
                Network::Options{.num_threads = threads});
    const RunStats stats = net.run(
        [](NodeId, const Graph&) { return std::make_unique<Chatter>(3, 7); },
        100);
    EXPECT_TRUE(stats.completed);
    ASSERT_EQ(stats.round_messages.size(), stats.rounds);
    const std::vector<std::uint64_t> expected = {20, 20, 20, 0};
    EXPECT_EQ(stats.round_messages, expected);
    std::uint64_t sum = 0;
    for (const std::uint64_t c : stats.round_messages) sum += c;
    EXPECT_EQ(sum, stats.messages);
  }
}

TEST(NetworkParallel, OneHopPerRoundAcrossShardBoundaries) {
  // A token forwarded around a cycle crosses every shard boundary; each
  // hop must take exactly one round regardless of the shard layout.
  class Forwarder final : public Process {
   public:
    explicit Forwarder(std::vector<int>& arrival) : arrival_(arrival) {}

    void on_round(Context& ctx, std::span<const Envelope> inbox) override {
      if (ctx.round() == 0 && ctx.id() == 0) {
        BitWriter w;
        w.write(1, 1);
        ctx.send(0, Message::from_writer(std::move(w)));
        arrival_[0] = 0;
        return;
      }
      for (const Envelope& env : inbox) {
        if (arrival_[static_cast<std::size_t>(ctx.id())] < 0) {
          arrival_[static_cast<std::size_t>(ctx.id())] = ctx.round();
          BitWriter w;
          w.write(1, 1);
          ctx.send(env.port == 0 ? 1 : 0, Message::from_writer(std::move(w)));
        }
        halted_ = true;
      }
      if (ctx.id() == 0 && ctx.round() > 0) halted_ = true;
    }

    [[nodiscard]] bool halted() const override { return halted_; }

   private:
    std::vector<int>& arrival_;
    bool halted_ = false;
  };
  const NodeId n = 23;  // prime, so shards never align with the ring
  for (const unsigned threads : kThreadCounts) {
    const Graph g = gen::cycle(n);
    Network net(g, Model::kCongest, 3, 48,
                Network::Options{.num_threads = threads});
    std::vector<int> arrival(static_cast<std::size_t>(n), -1);
    net.run(
        [&arrival](NodeId, const Graph&) {
          return std::make_unique<Forwarder>(arrival);
        },
        100);
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(arrival[static_cast<std::size_t>(v)], v)
          << "node " << v << " threads " << threads;
    }
  }
}

TEST(NetworkParallel, BackToBackRunsReuseTheNetwork) {
  // Drivers compose protocols on one Network; mailbox state must not leak
  // between runs and total_stats() must keep aggregating.
  const Graph g = gen::gnp(120, 0.05, 9);
  for (const unsigned threads : kThreadCounts) {
    Network net(g, Model::kCongest, 9, 48,
                Network::Options{.num_threads = threads});
    const RunStats first = net.run(
        [](NodeId, const Graph&) { return std::make_unique<Chatter>(2, 3); },
        100);
    const RunStats second = net.run(
        [](NodeId, const Graph&) { return std::make_unique<Chatter>(1, 3); },
        100);
    EXPECT_TRUE(first.completed);
    EXPECT_TRUE(second.completed);
    EXPECT_EQ(net.total_stats().messages, first.messages + second.messages);
    EXPECT_EQ(net.total_stats().rounds, first.rounds + second.rounds);
  }
}

}  // namespace
}  // namespace dmatch
