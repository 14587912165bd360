// E23 -- scheduler dispatch overhead, shard load balance, and
// thread-count independence of results.
//
// The round engine's dispatcher (support/sched.hpp) hands shard tasks to
// its workers by one condition-variable handshake per dispatch and lets
// idle workers steal unclaimed tasks; it may change wall-clock behavior,
// never results. This bench measures the claims separately:
//   A. dispatch overhead: wall time of an empty run_tasks() fan-out per
//      thread count (the fixed cost every engine round pays);
//   B. shard service-time balance: per-shard busy-ns min/median/max and
//      tasks run per worker under a uniform-degree G(n,p) vs a power-law
//      Barabasi-Albert graph (stealing moves blocks of a hub-heavy range
//      to idle workers when real cores are available);
//   C. end-to-end engine throughput (rounds/s) per thread count;
//   D. determinism sweep: the Israeli-Itai matching is hashed across
//      thread counts with different shard counts, fault-free and under a
//      fault plan -- all hashes must be identical. On a 1-core container
//      A-C degenerate (no parallelism to observe) and D plus the embedded
//      machine context is the load-bearing output.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "congest/network.hpp"
#include "core/api.hpp"
#include "graph/generators.hpp"
#include "support/sched.hpp"
#include "support/table.hpp"
#include "support/wire.hpp"

using namespace dmatch;

namespace {

using congest::Context;
using congest::Envelope;
using congest::Message;
using congest::Model;
using congest::Network;
using congest::Process;
using support::Scheduler;

/// Flood protocol from E18: every node sends on every port each round, so
/// per-shard work is proportional to the shard's degree sum.
class Flood final : public Process {
 public:
  explicit Flood(int rounds) : rounds_(rounds) {}

  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    (void)inbox;
    if (ctx.round() < rounds_) {
      BitWriter w;
      w.write(static_cast<std::uint64_t>(ctx.round()), 32);
      const Message msg = Message::from_writer(std::move(w));
      for (int p = 0; p < ctx.degree(); ++p) ctx.send(p, msg);
    }
    halted_ = ctx.round() >= rounds_;
  }

  [[nodiscard]] bool halted() const override { return halted_; }

 private:
  int rounds_;
  bool halted_ = false;
};

congest::ProcessFactory flood_factory(int rounds) {
  return [rounds](NodeId, const Graph&) {
    return std::make_unique<Flood>(rounds);
  };
}

std::uint64_t matching_hash(const Graph& g, const Matching& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (EdgeId e : m.edges(g)) {
    mix(static_cast<std::uint64_t>(g.edge(e).u));
    mix(static_cast<std::uint64_t>(g.edge(e).v));
  }
  return h;
}

struct ServiceStats {
  double min_ms = 0, median_ms = 0, max_ms = 0;
};

ServiceStats service_stats(const std::vector<std::uint64_t>& ns) {
  ServiceStats s;
  if (ns.empty()) return s;
  std::vector<std::uint64_t> sorted = ns;
  std::sort(sorted.begin(), sorted.end());
  s.min_ms = static_cast<double>(sorted.front()) / 1e6;
  s.median_ms = static_cast<double>(sorted[sorted.size() / 2]) / 1e6;
  s.max_ms = static_cast<double>(sorted.back()) / 1e6;
  return s;
}

}  // namespace

int main() {
  bench::banner("E23",
                "work-stealing dispatch changes wall-clock behavior only: "
                "dispatch cost and balance vary with threads, results are "
                "bit-identical");

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> thread_counts = {1, 2, 4};
  if (hw > 4) thread_counts.push_back(hw);

  bench::JsonReport report("scheduling");

  // --- A. dispatch overhead ------------------------------------------
  {
    Table table({"threads", "tasks", "dispatch us (min of N)"});
    constexpr int kBatch = 1000;
    for (const unsigned threads : thread_counts) {
      Scheduler sched(threads);
      const unsigned tasks = sched.plan_tasks(1u << 20);
      const auto noop = [](unsigned) {};
      const double secs = bench::min_seconds(
          [&] {
            for (int i = 0; i < kBatch; ++i) sched.run_tasks(tasks, noop);
          },
          5, 1);
      const double us = secs / kBatch * 1e6;
      table.row().cell(std::int64_t{threads}).cell(std::int64_t{tasks}).cell(
          us, 3);
      std::ostringstream cell;
      cell << "{\"section\":\"dispatch\",\"threads\":" << threads
           << ",\"tasks\":" << tasks << ",\"dispatch_us\":" << us << "}";
      std::cout << cell.str() << "\n";
      report.cell(cell.str());
    }
    std::cout << "\n";
    table.print(std::cout);
    std::cout << "\n";
  }

  // --- B. shard service balance, uniform vs power-law ----------------
  {
    const NodeId n = 20000;
    const int rounds = 8;
    struct Workload {
      const char* name;
      Graph g;
    };
    const Workload loads[] = {
        {"gnp_uniform", gen::gnp(n, 8.0 / n, 11)},
        {"ba_powerlaw", gen::barabasi_albert(n, 4, 11)},
    };
    Table table({"graph", "threads", "shards", "min ms", "median ms",
                 "max ms", "max/median", "worker tasks min", "max"});
    for (const Workload& wl : loads) {
      Network::Options opt;
      opt.num_threads = hw;
      opt.sched.profile = true;
      Network net(wl.g, Model::kLocal, 1, 48, opt);
      net.run(flood_factory(rounds), rounds + 2);
      const ServiceStats s = service_stats(net.scheduler().task_service_ns());
      const double ratio = s.median_ms > 0 ? s.max_ms / s.median_ms : 0;
      const std::vector<std::uint64_t>& per_worker =
          net.scheduler().worker_task_counts();
      const auto [lo, hi] =
          std::minmax_element(per_worker.begin(), per_worker.end());
      const auto tasks_min =
          static_cast<std::int64_t>(lo == per_worker.end() ? 0 : *lo);
      const auto tasks_max =
          static_cast<std::int64_t>(hi == per_worker.end() ? 0 : *hi);
      table.row()
          .cell(std::string(wl.name))
          .cell(std::int64_t{hw})
          .cell(std::int64_t{net.num_shards()})
          .cell(s.min_ms, 3)
          .cell(s.median_ms, 3)
          .cell(s.max_ms, 3)
          .cell(ratio, 2)
          .cell(tasks_min)
          .cell(tasks_max);
      std::ostringstream cell;
      cell << "{\"section\":\"balance\",\"graph\":\"" << wl.name
           << "\",\"threads\":" << hw << ",\"shards\":" << net.num_shards()
           << ",\"service_min_ms\":" << s.min_ms
           << ",\"service_median_ms\":" << s.median_ms
           << ",\"service_max_ms\":" << s.max_ms
           << ",\"max_over_median\":" << ratio
           << ",\"worker_tasks_min\":" << tasks_min
           << ",\"worker_tasks_max\":" << tasks_max << "}";
      std::cout << cell.str() << "\n";
      report.cell(cell.str());
    }
    std::cout << "\n";
    table.print(std::cout);
    std::cout << "\n";
  }

  // --- C. end-to-end engine throughput per thread count --------------
  {
    const NodeId n = 20000;
    const int rounds = 10;
    const Graph g = gen::gnp(n, 8.0 / n, 7);
    Table table({"threads", "seconds (min of N)", "rounds/s"});
    for (const unsigned threads : thread_counts) {
      Network::Options opt;
      opt.num_threads = threads;
      const double secs = bench::min_seconds(
          [&] {
            Network net(g, Model::kLocal, 1, 48, opt);
            net.run(flood_factory(rounds), rounds + 2);
          },
          3, 1);
      const double rps = static_cast<double>(rounds) / secs;
      table.row().cell(std::int64_t{threads}).cell(secs, 4).cell(rps, 1);
      std::ostringstream cell;
      cell << "{\"section\":\"throughput\",\"threads\":" << threads
           << ",\"seconds\":" << secs << ",\"rounds_per_sec\":" << rps << "}";
      std::cout << cell.str() << "\n";
      report.cell(cell.str());
    }
    std::cout << "\n";
    table.print(std::cout);
    std::cout << "\n";
  }

  // --- D. determinism sweep ------------------------------------------
  bool all_identical = true;
  {
    const Graph g = gen::gnp(4000, 10.0 / 4000, 3);
    congest::FaultPlan faults;
    faults.drop_prob = 0.02;
    faults.duplicate_prob = 0.01;
    faults.delay_prob = 0.02;
    faults.crash_prob = 0.002;
    faults.restart_prob = 0.5;
    faults.seed = 99;
    Table table({"faults", "threads", "matching hash", "identical"});
    for (const bool faulty : {false, true}) {
      std::uint64_t reference = 0;
      bool have_reference = false;
      // 1, 8, 12 and 32 shards: every thread count tiles the nodes
      // differently.
      for (const unsigned threads : {1u, 2u, 3u, 8u}) {
        Network::Options opt;
        opt.num_threads = threads;
        if (faulty) opt.fault = faults;
        const auto result = maximal_matching(g, 17, 48, opt);
        const std::uint64_t h = matching_hash(g, result.matching);
        if (!have_reference) {
          reference = h;
          have_reference = true;
        }
        const bool same = h == reference;
        all_identical = all_identical && same;
        table.row()
            .cell(std::int64_t{faulty ? 1 : 0})
            .cell(std::int64_t{threads})
            .cell(static_cast<std::int64_t>(h))
            .cell(std::string(same ? "yes" : "NO"));
        std::ostringstream cell;
        cell << "{\"section\":\"determinism\",\"faults\":"
             << (faulty ? "true" : "false") << ",\"threads\":" << threads
             << ",\"matching_hash\":" << h
             << ",\"identical\":" << (same ? "true" : "false") << "}";
        std::cout << cell.str() << "\n";
        report.cell(cell.str());
      }
    }
    std::cout << "\n";
    table.print(std::cout);
  }

  const std::string written = report.write();
  if (!written.empty()) std::cout << "\nwrote " << written << "\n";

  bench::footer(
      "Reading: every determinism row must say identical=yes (the "
      "bit-identity contract across shard layouts; this is the hard claim "
      "and holds on any machine). With >= 2 real cores, dispatch cost "
      "should stay in the low tens of microseconds per fan-out, rounds/s "
      "should grow with threads, and on ba_powerlaw the worker task "
      "counts should spread (idle workers stealing hub-heavy blocks).");
  return all_identical ? 0 : 1;
}
