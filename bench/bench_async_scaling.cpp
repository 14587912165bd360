// E22 -- sharded async executor throughput: delivery events processed per
// second vs. worker thread count. The alpha synchronizer's event loop is
// a conservative-window parallel discrete-event simulator; this bench
// drives it with the same fixed-round flooding protocol E18 uses for the
// round engine (so work per virtual round is layout-independent) on
// G(n, p) with constant expected degree 8, and also times the parallel
// Network construction + extract_matching path over the same graphs.
// Emits one machine-readable JSON line per configuration.
#include <chrono>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "congest/async.hpp"
#include "congest/network.hpp"
#include "core/israeli_itai.hpp"
#include "graph/generators.hpp"
#include "support/table.hpp"
#include "support/wire.hpp"

using namespace dmatch;

namespace {

using congest::AsyncOptions;
using congest::AsyncStats;
using congest::Context;
using congest::Envelope;
using congest::Message;
using congest::Model;
using congest::Network;
using congest::Process;

/// Same shape as E18's Flood: every node sends on every port for a fixed
/// number of simulated rounds, so each virtual round moves ~n*deg DATA
/// events plus the synchronizer's ACK/SAFE control plane.
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

struct Sample {
  double seconds = 0;
  AsyncStats stats;
};

Sample run_once(const Graph& g, unsigned threads, int rounds) {
  AsyncOptions options;
  options.num_threads = threads;
  std::vector<int> mates(static_cast<std::size_t>(g.node_count()), -1);
  const auto start = std::chrono::steady_clock::now();
  Sample s;
  s.stats = congest::run_synchronized(
      g,
      [rounds](NodeId, const Graph&) { return std::make_unique<Flood>(rounds); },
      mates, 1, rounds + 2, options);
  s.seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  return s;
}

double time_build_extract(const Graph& g, unsigned threads) {
  const auto start = std::chrono::steady_clock::now();
  Network net(g, Model::kCongest, 5, 48,
              Network::Options{.num_threads = threads});
  (void)israeli_itai(net);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  bench::banner("E22", "sharded async executor throughput vs worker threads");

  const int rounds = 6;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> thread_counts = {1, 2, 4};
  if (hw > 4) thread_counts.push_back(hw);

  bench::JsonReport report("async_scaling");
  Table table({"n", "threads", "events", "virtual rounds", "seconds",
               "events/s", "speedup vs 1T", "build+run+extract s"});
  for (const NodeId n : {2000, 20000}) {
    const Graph g = gen::gnp(n, 8.0 / n, 7);
    double base_seconds = 0;
    for (const unsigned threads : thread_counts) {
      run_once(g, threads, 2);  // warm-up: pool + queue growth
      const Sample s = run_once(g, threads, rounds);
      if (threads == 1) base_seconds = s.seconds;
      const double events_per_sec =
          static_cast<double>(s.stats.events) / s.seconds;
      const double speedup = base_seconds / s.seconds;
      const double pipeline_seconds = time_build_extract(g, threads);
      table.row()
          .cell(std::int64_t{n})
          .cell(std::int64_t{threads})
          .cell(static_cast<std::int64_t>(s.stats.events))
          .cell(static_cast<std::int64_t>(s.stats.virtual_rounds))
          .cell(s.seconds, 3)
          .cell(events_per_sec, 0)
          .cell(speedup, 2)
          .cell(pipeline_seconds, 3);
      std::ostringstream cell;
      cell << "{\"bench\":\"async_scaling\",\"n\":" << n
           << ",\"threads\":" << threads << ",\"events\":" << s.stats.events
           << ",\"virtual_rounds\":" << s.stats.virtual_rounds
           << ",\"seconds\":" << s.seconds
           << ",\"events_per_sec\":" << events_per_sec
           << ",\"speedup_vs_1t\":" << speedup
           << ",\"build_run_extract_seconds\":" << pipeline_seconds
           << ",\"hardware_concurrency\":" << hw << "}";
      std::cout << cell.str() << "\n";
      report.cell(cell.str());
    }
  }
  std::cout << "\n";
  table.print(std::cout);
  const std::string written = report.write();
  if (!written.empty()) std::cout << "\nwrote " << written << "\n";

  bench::footer(
      "Reading: events/s should scale with threads up to the core count; "
      "identical `events`/`virtual rounds` columns across thread counts "
      "witness the executor's bit-identical determinism contract. On a "
      "single-core container every speedup is <= 1 (sharding overhead); "
      "the determinism columns are the load-bearing check there.");
  return 0;
}
