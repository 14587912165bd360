// perfbench: the repository benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scale full|toy] [--units N] [--workers W] [--spans-out FILE]
//
// Workloads (see perfbench/README.md for sizes and why each was chosen):
//   solve_general  Algorithm 4 (general_mcm, k = 2) on G(n, 8/n)
//   solve_mp       Israeli–Itai through MpEngine on 4 LoopbackHub ranks
//   serve_uniform  MatchingService replay, uniform churn, quality_k 1
//   serve_flap_k2  MatchingService replay, adversarial flap, quality_k 2
//
// Every workload is a closed loop with one caller. With --trace 0 the run
// repeats its operation (a solve, or an update op) until --seconds of
// operation time have been measured and prints the end-to-end metrics. With
// --trace 1 it does a fixed amount of work twice — untraced, then with an
// obs::Observer (sched.profile on) and in-memory spans around every call
// into the library — and prints the per-layer metrics. --units N replaces
// the time budget by exactly N operations (the smoke test uses it, so
// same-seed runs do identical work). Correctness checks run outside every
// timed region. The last stdout line is the JSON result.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "congest/network.hpp"
#include "core/general_mcm.hpp"
#include "core/israeli_itai.hpp"
#include "dyn/service.hpp"
#include "dyn/workload.hpp"
#include "graph/blossom.hpp"
#include "graph/generators.hpp"
#include "mp/engine.hpp"
#include "mp/transport.hpp"
#include "obs/obs.hpp"
#include "spans.hpp"
#include "timed_transport.hpp"

using namespace dmatch;
using perfbench::ScopedSpan;
using perfbench::SpanLog;
using perfbench::TransportCounters;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed, in this order, by every --trace 0 run.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"solve_s", "s"},
    {"epoch_p50_ms", "ms"},    {"epoch_p90_ms", "ms"},
    {"update_ops_per_s", "1/s"}, {"matching_ratio", "ratio"},
    {"peak_rss_mb", "MB"},     {"ok_frac", "ratio"},
};

// Printed, in this order, by every --trace 1 run. A layer the workload
// does not exercise reports 0.
constexpr MetricDef kPerLayer[] = {
    {"graph.gen_s", "s"},
    {"congest.runs", "count"},
    {"congest.rounds", "count"},
    {"congest.messages", "count"},
    {"congest.bits", "bit"},
    {"congest.busy_s", "s"},
    {"congest.msgs_per_busy_s", "1/s"},
    {"congest.worker_util", "ratio"},
    {"congest.shard_skew", "ratio"},
    {"congest.speedup_1t", "ratio"},
    {"core.iterations", "count"},
    {"core.productive_frac", "ratio"},
    {"dyn.rebuild_frac", "ratio"},
    {"dyn.rebuild_epoch_p50_ms", "ms"},
    {"dyn.plain_epoch_p50_ms", "ms"},
    {"dyn.engine_ms_p50", "ms"},
    {"dyn.host_ms_p50", "ms"},
    {"dyn.dirty_nodes_p50", "count"},
    {"dyn.active_nodes_p50", "count"},
    {"dyn.full_frac", "ratio"},
    {"dyn.rounds_per_epoch", "count"},
    {"dyn.augment_iters_per_epoch", "count"},
    {"dyn.augment_gained", "count"},
    {"dyn.escalation_frac", "ratio"},
    {"dyn.batch_overhead_ms", "ms"},
    {"dyn.rss_growth_mb", "MB"},
    {"dyn.certify_s", "s"},
    {"mp.rounds", "count"},
    {"mp.frames", "count"},
    {"mp.bytes_per_round", "B"},
    {"mp.send_s", "s"},
    {"mp.recv_wait_s", "s"},
    {"mp.recv_wait_frac", "ratio"},
    {"mp.rounds_per_s", "1/s"},
    {"obs.trace_overhead_frac", "ratio"},
    {"load.gen_frac", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool toy = false;
  int units = 0;     // > 0: exactly this many operations, no time budget
  int workers = 0;   // > 0: engine workers override
  std::string spans_out;
};

/// Sizes and thread counts of one workload.
struct Config {
  NodeId n = 0;
  unsigned workers = 1;  // Network / RepairEngine worker threads
  int min_units = 1;     // solves or epochs a run always completes;
                         // serve: also the epochs of each trace pass
  int setup_reps = 1;    // serve: service set-ups per timed run
  double warmup_s = 0;   // solve_*: untimed warm-up repeats (>= 1 repeat)
  dyn::WorkloadMode mode = dyn::WorkloadMode::kUniform;
  int quality_k = 1;
};

constexpr unsigned kMpRanks = 4;
constexpr int kMaxRounds = 1 << 16;
constexpr std::size_t kEpochOps = 16;
constexpr std::size_t kCertifyEvery = 25;  // serve: mid-run certificates

Config config_for(const Args& a) {
  Config c;
  if (a.workload == "solve_general") {
    c.n = a.toy ? 600 : 20000;
    c.workers = 4;
    c.min_units = 3;
  } else if (a.workload == "solve_mp") {
    c.n = a.toy ? 2000 : 100000;
    c.workers = 4;  // the single-process reference run
    c.min_units = 5;
    c.warmup_s = a.toy ? 0 : 1;
  } else if (a.workload == "serve_uniform" ||
             a.workload == "serve_flap_k2") {
    c.n = a.toy ? 3000 : 100000;
    c.workers = 1;
    c.min_units = a.toy ? 20 : 100;
    c.setup_reps = 3;
    if (a.workload == "serve_flap_k2") {
      c.mode = dyn::WorkloadMode::kAdversarialFlap;
      c.quality_k = 2;
    }
  } else {
    throw std::invalid_argument("unknown workload: " + a.workload);
  }
  if (a.workers > 0) c.workers = static_cast<unsigned>(a.workers);
  if (a.units > 0) c.min_units = a.units;
  return c;
}

double median(const std::vector<double>& xs) {
  return dyn::percentile(xs, 0.5);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  double pages_total = 0, pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return pages_resident * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

/// Info line: the sample count and spread behind a reported median.
void print_samples(const char* what, const std::vector<double>& xs) {
  std::printf("samples: %s n=%zu min=%.6g p50=%.6g p90=%.6g max=%.6g\n", what,
              xs.size(), dyn::percentile(xs, 0), median(xs),
              dyn::percentile(xs, 0.9), dyn::percentile(xs, 1));
}

Graph make_graph(const Config& c, std::uint64_t seed, SpanLog* spans) {
  const ScopedSpan span(spans, "gen::gnp");
  return gen::gnp(c.n, 8.0 / static_cast<double>(c.n), seed);
}

/// Tally of checked operations (solves or epochs).
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "perfbench: check failed: " << what << "\n";
    }
  }
  [[nodiscard]] double ok_frac() const {
    return attempted == 0
               ? 0.0
               : 1.0 - static_cast<double>(failed) /
                           static_cast<double>(attempted);
  }
};

/// When a timed loop stops: after at least `min_units` operations, once
/// `seconds` of operation time (solve, or submit/flush) have been
/// measured. Set-up, load generation and checks do not count.
struct Budget {
  const Args& args;
  int min_units;
  double measured_s = 0;

  [[nodiscard]] bool more(int done) const {
    if (args.units > 0) return done < args.units;
    return done < min_units || measured_s < args.seconds;
  }
};

/// One call of `fn`, then more for `warmup_s` seconds.
template <typename Fn>
void warm_up(double warmup_s, Fn&& fn) {
  fn();
  for (const auto w0 = Clock::now(); since(w0) < warmup_s;) fn();
}

/// Closed loop over `unit(timed)`, which runs one operation and returns
/// its measured seconds. Untimed warm-up comes first: one
/// repeat that also builds the check references, then repeats for
/// `warmup_s` more (the first repeats of a process, and those right after
/// a long single-threaded check, pay page faults and idle-CPU wake-ups a
/// busy service does not). Timed repeats follow until the budget is spent.
template <typename Unit>
void run_units(const Args& a, int min_units, double warmup_s, Unit&& unit) {
  warm_up(warmup_s, [&] { unit(false); });
  Budget budget{a, min_units};
  for (int i = 0; budget.more(i); ++i) budget.measured_s += unit(true);
}

// ---- observer helpers (traced runs only) --------------------------------

obs::ObsConfig traced_obs_config() {
  obs::ObsConfig oc;
  oc.profile_links = false;  // per-link arrays are O(m); not a layer metric
  return oc;
}

/// Sum of the sched.shard_service_ns histogram: engine shard busy time.
std::uint64_t shard_busy_ns(obs::Observer& ob) {
  auto& m = ob.metrics();
  std::uint64_t sum = 0;
  for (unsigned s = 0; s < m.shard_count(); ++s) {
    sum += m.slab_ptr(s, ob.ids().sched_shard_service_ns)[1];
  }
  return sum;
}

/// Busy-weighted shard skew from the kSchedShard events appended after
/// `from` events of shard buffer 0: sum over runs of the slowest shard's
/// service time divided by the sum over runs of the mean shard's. One run
/// emits one event per shard, actor 0 first.
double shard_skew(obs::Observer& ob, std::size_t from) {
  const auto& events = ob.trace_sink().buffer(0);
  double sum_max = 0, sum_mean = 0;
  std::vector<double> run;
  const auto close_run = [&] {
    if (run.empty()) return;
    double total = 0, mx = 0;
    for (const double x : run) {
      total += x;
      mx = std::max(mx, x);
    }
    sum_max += mx;
    sum_mean += total / static_cast<double>(run.size());
    run.clear();
  };
  for (std::size_t i = from; i < events.size(); ++i) {
    const obs::TraceEvent& e = events[i];
    if (e.type != static_cast<std::uint16_t>(obs::EventType::kSchedShard)) {
      continue;
    }
    if (e.actor == 0) close_run();
    run.push_back(static_cast<double>(e.a));
  }
  close_run();
  return sum_mean > 0 ? sum_max / sum_mean : 0.0;
}

using Values = std::map<std::string, double>;

struct Result {
  Values values;
  Checks checks;
};

// ---- solve_general --------------------------------------------------------

struct GeneralSolve {
  GeneralMcmResult result;
  double seconds = 0;
};

GeneralSolve run_general(const Graph& g, std::uint64_t seed, unsigned workers,
                         obs::Observer* observer, SpanLog* spans) {
  GeneralMcmOptions o;
  o.k = 2;
  // The paper's fixed iteration budget: the adaptive stop would make the
  // amount of work, and so the solve time, depend on the seed.
  o.budget = GeneralMcmOptions::Budget::kFixedPaper;
  o.seed = seed;
  o.num_threads = workers;
  o.observer = observer;
  o.sched.profile = observer != nullptr;
  const ScopedSpan span(spans, "general_mcm");
  const auto t0 = Clock::now();
  GeneralSolve s{general_mcm(g, o), 0};
  s.seconds = since(t0);
  return s;
}

/// Valid, and at least the (1 - 1/k) = 1/2 floor Algorithm 4 promises.
bool general_ok(const Graph& g, const Matching& m, std::size_t optimum) {
  return m.is_valid(g) && 2 * m.size() >= optimum;
}

/// Every unit regenerates the graph and repeats the identical solve, so
/// the run measures one fixed amount of work; each repeat must return the
/// first solve's matching.
Result solve_general_timed(const Args& a, const Config& c) {
  Result r;
  std::vector<double> setup, solve, rate;
  std::optional<GeneralSolve> first;
  std::size_t optimum = 0;
  run_units(a, c.min_units, c.warmup_s, [&](bool timed) {
    const auto t0 = Clock::now();
    try {
      const Graph g = make_graph(c, a.seed, nullptr);
      const double gen_s = since(t0);
      GeneralSolve s = run_general(g, a.seed, c.workers, nullptr, nullptr);
      if (timed) {
        setup.push_back(gen_s);
        solve.push_back(s.seconds);
        rate.push_back(static_cast<double>(s.result.stats.messages) /
                       s.seconds);
      }
      const double seconds = s.seconds;
      if (!first) {
        optimum = blossom_mcm(g).size();
        first = std::move(s);
        r.checks.record(general_ok(g, first->result.matching, optimum),
                        "general_mcm solve invalid or below 1/2");
      } else {
        r.checks.record(s.result.matching == first->result.matching &&
                            s.result.stats.messages ==
                                first->result.stats.messages,
                        "general_mcm repeat differs from the first solve");
      }
      return seconds;
    } catch (const std::exception& e) {
      r.checks.record(false, std::string("general_mcm threw: ") + e.what());
      return since(t0);
    }
  });
  if (solve.empty() || !first) return r;
  r.values["setup_s"] = median(setup);
  r.values["solve_s"] = median(solve);
  r.values["epoch_p50_ms"] = 1e3 * median(solve);
  r.values["epoch_p90_ms"] = 1e3 * dyn::percentile(solve, 0.9);
  r.values["update_ops_per_s"] = median(rate);
  r.values["matching_ratio"] =
      static_cast<double>(first->result.matching.size()) /
      static_cast<double>(optimum);
  print_samples("solve_s", solve);
  return r;
}

Result solve_general_traced(const Args& a, const Config& c, SpanLog* spans) {
  Result r;
  const auto t0 = Clock::now();
  const Graph g = make_graph(c, a.seed, spans);
  r.values["graph.gen_s"] = since(t0);

  // The process's first solve pays page faults the untraced/traced
  // comparison must not see.
  warm_up(c.warmup_s,
          [&] { run_general(g, a.seed, c.workers, nullptr, nullptr); });
  const GeneralSolve plain = run_general(g, a.seed, c.workers, nullptr, spans);
  obs::Observer observer(traced_obs_config());
  const GeneralSolve traced =
      run_general(g, a.seed, c.workers, &observer, spans);
  const GeneralSolve single = run_general(g, a.seed, 1, nullptr, spans);

  std::size_t optimum = 0;
  {
    const ScopedSpan span(spans, "blossom_mcm");
    optimum = blossom_mcm(g).size();
  }
  for (const GeneralSolve* s : {&plain, &traced, &single}) {
    r.checks.record(general_ok(g, s->result.matching, optimum) &&
                        s->result.matching == plain.result.matching &&
                        s->result.stats.messages == plain.result.stats.messages,
                    "general_mcm traced/1-worker solve differs or is invalid");
  }

  const congest::RunStats& st = traced.result.stats;
  const double busy_s = static_cast<double>(shard_busy_ns(observer)) * 1e-9;
  r.values["congest.runs"] = static_cast<double>(
      observer.metrics().merged_value(observer.ids().engine_runs));
  r.values["congest.rounds"] = static_cast<double>(st.rounds);
  r.values["congest.messages"] = static_cast<double>(st.messages);
  r.values["congest.bits"] = static_cast<double>(st.total_bits);
  r.values["congest.busy_s"] = busy_s;
  r.values["congest.msgs_per_busy_s"] =
      busy_s > 0 ? static_cast<double>(st.messages) / busy_s : 0.0;
  r.values["congest.worker_util"] =
      busy_s / (static_cast<double>(c.workers) * traced.seconds);
  r.values["congest.shard_skew"] = shard_skew(observer, 0);
  r.values["congest.speedup_1t"] = single.seconds / plain.seconds;
  r.values["core.iterations"] = traced.result.iterations;
  r.values["core.productive_frac"] =
      static_cast<double>(traced.result.productive_iterations) /
      static_cast<double>(traced.result.iterations);
  r.values["obs.trace_overhead_frac"] = traced.seconds / plain.seconds - 1.0;
  return r;
}

// ---- solve_mp -------------------------------------------------------------

struct MpSolve {
  double ctor_s = 0;   // spawn ranks + construct every MpEngine
  double solve_s = 0;  // rank 0: run() call until its result
  mp::MpResult root;
  std::vector<TransportCounters> counters;
  std::uint64_t runs = 0;  // rank 0 observer's engine.runs (traced only)
};

/// One Israeli–Itai solve on kMpRanks loopback ranks, one thread each.
/// `traced` wraps every endpoint in a TimedTransport and gives every rank
/// its own Observer.
MpSolve run_mp(const Graph& g, std::uint64_t seed, bool traced,
               SpanLog* spans) {
  mp::LoopbackHub hub(kMpRanks);
  MpSolve out;
  out.counters.resize(kMpRanks);
  std::vector<std::unique_ptr<obs::Observer>> observers;
  for (unsigned r = 0; traced && r < kMpRanks; ++r) {
    observers.push_back(std::make_unique<obs::Observer>(traced_obs_config()));
  }
  std::vector<mp::MpResult> results(kMpRanks);
  std::vector<std::exception_ptr> errors(kMpRanks);
  std::barrier ready(static_cast<std::ptrdiff_t>(kMpRanks) + 1);
  const int parent = perfbench::current_span;
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned r = 0; r < kMpRanks; ++r) {
    threads.emplace_back([&, r] {
      perfbench::current_span = parent;
      std::optional<perfbench::TimedTransport> timed;
      mp::Transport* transport = &hub.endpoint(r);
      if (traced) {
        timed.emplace(hub.endpoint(r), out.counters[r], spans);
        transport = &*timed;
      }
      std::unique_ptr<mp::MpEngine> engine;
      try {
        const ScopedSpan span(spans, "mp::MpEngine::MpEngine");
        mp::MpOptions o;
        o.observer = traced ? observers[r].get() : nullptr;
        // A shared machine can stall a rank for a while; only a real
        // failure should trip the failure detector.
        o.group.heartbeat_timeout_ms = 10000;
        engine = std::make_unique<mp::MpEngine>(g, congest::Model::kCongest,
                                                seed, 48, *transport, o);
      } catch (...) {
        errors[r] = std::current_exception();
      }
      ready.arrive_and_wait();
      if (!engine) return;
      try {
        const auto t1 = Clock::now();
        {
          const ScopedSpan span(spans, "mp::MpEngine::run");
          results[r] = engine->run(israeli_itai_factory(), kMaxRounds);
        }
        if (r == 0) out.solve_s = since(t1);
      } catch (...) {
        errors[r] = std::current_exception();
      }
    });
  }
  ready.arrive_and_wait();
  out.ctor_s = since(t0);
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  if (traced) {
    out.runs = observers[0]->metrics().merged_value(
        observers[0]->ids().engine_runs);
  }
  out.root = std::move(results[0]);
  return out;
}

/// Single-process reference for the mp solves: the Network run of the
/// same graph and seed, and the exact optimum.
struct MpReference {
  Matching matching;
  congest::RunStats stats;
  std::size_t optimum = 0;
};

MpReference mp_reference(const Graph& g, std::uint64_t seed, unsigned workers,
                         SpanLog* spans) {
  congest::Network::Options no;
  no.num_threads = workers;
  congest::Network net(g, congest::Model::kCongest, seed, 48, no);
  MpReference ref{Matching(g.node_count()), net.run(israeli_itai_factory(),
                                                    kMaxRounds), 0};
  ref.matching = net.extract_matching();
  const ScopedSpan span(spans, "blossom_mcm");
  ref.optimum = blossom_mcm(g).size();
  return ref;
}

/// The mp result must equal the single-process run bit for bit, and be a
/// valid maximal matching, hence reach 1/2 of the optimum.
bool mp_ok(const Graph& g, const MpSolve& s, const MpReference& ref) {
  const Matching& m = s.root.matching;
  return !s.root.tripped && m == ref.matching &&
         s.root.stats.rounds == ref.stats.rounds &&
         s.root.stats.messages == ref.stats.messages &&
         s.root.stats.total_bits == ref.stats.total_bits && m.is_valid(g) &&
         m.is_maximal(g) && 2 * m.size() >= ref.optimum;
}

/// Every unit regenerates the graph, brings up the ranks and repeats the
/// identical solve, which must equal the single-process reference.
Result solve_mp_timed(const Args& a, const Config& c) {
  Result r;
  std::vector<double> setup, solve, rate;
  std::optional<MpReference> ref;
  run_units(a, c.min_units, c.warmup_s, [&](bool timed) {
    const auto t0 = Clock::now();
    try {
      const Graph g = make_graph(c, a.seed, nullptr);
      const double gen_s = since(t0);
      const MpSolve s = run_mp(g, a.seed, false, nullptr);
      if (timed) {
        setup.push_back(gen_s + s.ctor_s);
        solve.push_back(s.solve_s);
        rate.push_back(static_cast<double>(s.root.stats.messages) /
                       s.solve_s);
      }
      if (!ref) ref = mp_reference(g, a.seed, c.workers, nullptr);
      r.checks.record(mp_ok(g, s, *ref), "mp solve differs from reference");
      return s.solve_s;
    } catch (const std::exception& e) {
      r.checks.record(false, std::string("mp solve threw: ") + e.what());
      return since(t0);
    }
  });
  if (solve.empty() || !ref) return r;
  r.values["setup_s"] = median(setup);
  r.values["solve_s"] = median(solve);
  r.values["epoch_p50_ms"] = 1e3 * median(solve);
  r.values["epoch_p90_ms"] = 1e3 * dyn::percentile(solve, 0.9);
  r.values["update_ops_per_s"] = median(rate);
  r.values["matching_ratio"] = static_cast<double>(ref->matching.size()) /
                               static_cast<double>(ref->optimum);
  print_samples("solve_s", solve);
  return r;
}

Result solve_mp_traced(const Args& a, const Config& c, SpanLog* spans) {
  Result r;
  const auto t0 = Clock::now();
  const Graph g = make_graph(c, a.seed, spans);
  r.values["graph.gen_s"] = since(t0);
  warm_up(c.warmup_s, [&] { run_mp(g, a.seed, false, nullptr); });
  MpSolve plain;
  {
    const ScopedSpan span(spans, "mp.solve");
    plain = run_mp(g, a.seed, false, spans);
  }
  MpSolve traced;
  {
    const ScopedSpan span(spans, "mp.solve");
    traced = run_mp(g, a.seed, true, spans);
  }
  const MpReference ref = mp_reference(g, a.seed, c.workers, spans);
  r.checks.record(mp_ok(g, plain, ref), "untraced mp solve");
  r.checks.record(mp_ok(g, traced, ref), "traced mp solve");

  TransportCounters sum;
  for (unsigned rank = 0; rank < kMpRanks; ++rank) {
    const TransportCounters& t = traced.counters[rank];
    std::printf("mp rank %u: frames=%llu bytes=%llu send_s=%.6f "
                "recv_wait_s=%.6f\n",
                rank, static_cast<unsigned long long>(t.frames),
                static_cast<unsigned long long>(t.bytes), t.send_s,
                t.recv_wait_s);
    sum.frames += t.frames;
    sum.bytes += t.bytes;
    sum.send_s += t.send_s;
    sum.recv_wait_s += t.recv_wait_s;
  }
  const congest::RunStats& st = traced.root.stats;
  const auto rounds = static_cast<double>(st.rounds);
  r.values["congest.runs"] = static_cast<double>(traced.runs);
  r.values["congest.rounds"] = rounds;
  r.values["congest.messages"] = static_cast<double>(st.messages);
  r.values["congest.bits"] = static_cast<double>(st.total_bits);
  r.values["mp.rounds"] = rounds;
  r.values["mp.frames"] = static_cast<double>(sum.frames);
  r.values["mp.bytes_per_round"] = static_cast<double>(sum.bytes) / rounds;
  r.values["mp.send_s"] = sum.send_s;
  r.values["mp.recv_wait_s"] = sum.recv_wait_s;
  r.values["mp.recv_wait_frac"] =
      sum.recv_wait_s / (static_cast<double>(kMpRanks) * traced.solve_s);
  r.values["mp.rounds_per_s"] = rounds / traced.solve_s;
  r.values["obs.trace_overhead_frac"] = traced.solve_s / plain.solve_s - 1.0;
  return r;
}

// ---- serve_* ----------------------------------------------------------------

struct Service {
  Graph graph;
  std::unique_ptr<dyn::MatchingService> svc;
  std::unique_ptr<dyn::Workload> load;
  double setup_s = 0;
  double gen_s = 0;
};

Service make_service(const Args& a, const Config& c, obs::Observer* observer,
                     SpanLog* spans) {
  Service s;
  const auto t0 = Clock::now();
  s.graph = make_graph(c, a.seed, spans);
  s.gen_s = since(t0);
  dyn::ServiceOptions so;
  so.limits.max_ops = kEpochOps;
  so.limits.max_latency_us = 20'000;
  so.repair.dirty_hops = 2;
  so.repair.quality_k = c.quality_k;
  so.repair.num_threads = c.workers;
  so.repair.seed = a.seed;
  so.repair.observer = observer;
  so.repair.sched.profile = observer != nullptr;
  {
    const ScopedSpan span(spans, "dyn::MatchingService::MatchingService");
    s.svc = std::make_unique<dyn::MatchingService>(s.graph, so);
  }
  dyn::WorkloadOptions wo;
  wo.mode = c.mode;
  wo.seed = a.seed;
  s.load = std::make_unique<dyn::Workload>(s.graph, wo);
  s.setup_s = since(t0);
  return s;
}

struct Replay {
  std::vector<double> epoch_ms;   // closing submit/flush time per epoch
  std::vector<double> engine_ms;  // shard busy per epoch (traced only)
  std::size_t ops = 0;
  double submit_s = 0;  // inside submit/flush
  double gen_s = 0;     // inside Workload::next
};

/// Closed-loop replay: generate one op, submit it, repeat until
/// `more(epochs closed, seconds inside submit)` says stop; then flush,
/// which closes a partial last epoch if there is one. Cheap checks run on
/// every epoch and a full certificate every kCertifyEvery epochs, all
/// outside the timed regions.
template <typename More>
Replay replay(Service& s, Checks& checks, More&& more,
              obs::Observer* observer, SpanLog* spans) {
  Replay out;
  dyn::MatchingService& svc = *s.svc;
  const auto& history = svc.history();
  const std::size_t first = history.size();
  int epoch_span = -1;
  const auto check_new = [&](std::size_t seen) {
    for (std::size_t i = seen; i < history.size(); ++i) {
      const dyn::EpochReport& e = history[i];
      bool ok = e.stats.completed;
      if (i + 1 == history.size()) {
        ok = ok && e.matching_size == svc.matching().size();
      }
      if ((i - first + 1) % kCertifyEvery == 0 && i + 1 == history.size()) {
        const auto cert = svc.engine().certify_now(false);
        ok = ok && cert.report.ok() && cert.maximal;
      }
      checks.record(ok, "epoch " + std::to_string(e.epoch.index));
    }
  };
  const auto timed_call = [&](auto&& call) {
    const std::size_t seen = history.size();
    const std::uint64_t busy0 = observer ? shard_busy_ns(*observer) : 0;
    const auto t0 = Clock::now();
    call();
    const double dt = since(t0);
    out.submit_s += dt;
    const std::size_t closed = history.size() - seen;
    if (closed == 0) return;
    // A call that closes several epochs splits its time between them.
    const double busy_ms =
        observer ? static_cast<double>(shard_busy_ns(*observer) - busy0) * 1e-6
                 : 0.0;
    for (std::size_t i = 0; i < closed; ++i) {
      out.epoch_ms.push_back(1e3 * dt / static_cast<double>(closed));
      if (observer) {
        out.engine_ms.push_back(busy_ms / static_cast<double>(closed));
      }
    }
    if (spans != nullptr && epoch_span >= 0) {
      spans->close(epoch_span);
      perfbench::current_span = spans->parent_of(epoch_span);
      epoch_span = -1;
    }
    check_new(seen);
  };
  while (more(history.size() - first, out.submit_s)) {
    if (spans != nullptr && epoch_span < 0) {
      epoch_span = spans->open("epoch", perfbench::current_span);
      perfbench::current_span = epoch_span;
    }
    const auto t0 = Clock::now();
    dyn::UpdateOp op;
    {
      const ScopedSpan span(spans, "dyn::Workload::next");
      op = s.load->next(svc.mate_view());
    }
    out.gen_s += since(t0);
    ++out.ops;
    timed_call([&] {
      const ScopedSpan span(spans, "dyn::MatchingService::submit");
      svc.submit(op);
    });
  }
  timed_call([&] {
    const ScopedSpan span(spans, "dyn::MatchingService::flush");
    svc.flush();
  });
  if (spans != nullptr && epoch_span >= 0) {
    spans->close(epoch_span);
    perfbench::current_span = spans->parent_of(epoch_span);
  }
  return out;
}

/// Final certificate against the exact optimum on the live snapshot:
/// valid, maximal, and ratio >= 1/2 (quality_k 1) or 1 - 1/k. Counts
/// against the last epoch. Returns the certified ratio.
double certify_final(Service& s, const Config& c, Checks& checks,
                     double* seconds, SpanLog* spans) {
  const auto t0 = Clock::now();
  dyn::RepairEngine::CertifiedSnapshot cert;
  {
    const ScopedSpan span(spans, "dyn::RepairEngine::certify_now");
    cert = s.svc->engine().certify_now(true);
  }
  if (seconds != nullptr) *seconds = since(t0);
  const double floor =
      c.quality_k >= 2 ? 1.0 - 1.0 / static_cast<double>(c.quality_k) : 0.5;
  const bool ok =
      cert.report.ok() && cert.maximal && cert.report.ratio + 1e-12 >= floor;
  if (!ok) {
    // The last epoch was already counted as passed; re-count it failed.
    ++checks.failed;
    std::cerr << "perfbench: final certificate failed: "
              << cert.report.summary() << " maximal=" << cert.maximal << "\n";
  }
  return cert.report.ratio;
}

Result serve_timed(const Args& a, const Config& c) {
  Result r;
  std::vector<double> setup;
  Service s;
  for (int i = 0; i < c.setup_reps; ++i) {
    s = Service{};  // release the previous service before building anew
    s = make_service(a, c, nullptr, nullptr);
    setup.push_back(s.setup_s);
  }
  Budget budget{a, c.min_units};
  const Replay rep = replay(
      s, r.checks,
      [&](std::size_t epochs, double submit_s) {
        budget.measured_s = submit_s;
        return budget.more(static_cast<int>(epochs));
      },
      nullptr, nullptr);
  const double ratio = certify_final(s, c, r.checks, nullptr, nullptr);
  std::vector<double> repair;
  for (const dyn::EpochReport& e : s.svc->history()) {
    repair.push_back(e.repair_seconds);
  }
  r.values["setup_s"] = median(setup);
  r.values["solve_s"] = median(repair);
  r.values["epoch_p50_ms"] = median(rep.epoch_ms);
  r.values["epoch_p90_ms"] = dyn::percentile(rep.epoch_ms, 0.9);
  r.values["update_ops_per_s"] = static_cast<double>(rep.ops) / rep.submit_s;
  r.values["matching_ratio"] = ratio;
  std::printf("samples: %zu epochs, %zu ops, %d set-ups\n",
              rep.epoch_ms.size(), rep.ops, c.setup_reps);
  return r;
}

Result serve_traced(const Args& a, const Config& c, SpanLog* spans) {
  Result r;
  const auto fixed = [&](std::size_t epochs, double) {
    return epochs < static_cast<std::size_t>(c.min_units);
  };

  // Warm-up replay, so pass A does not pay the process's first page
  // faults that pass B would then be spared.
  {
    Service s = make_service(a, c, nullptr, nullptr);
    replay(
        s, r.checks,
        [&](std::size_t epochs, double) {
          return epochs < static_cast<std::size_t>(c.min_units) / 5;
        },
        nullptr, nullptr);
  }

  // Pass A, untraced: the baseline for the tracing overhead, the load
  // generator's share and the memory growth of a replay.
  Replay plain;
  double rss_growth = 0;
  {
    Service s = make_service(a, c, nullptr, nullptr);
    const double rss0 = current_rss_mb();
    plain = replay(s, r.checks, fixed, nullptr, nullptr);
    rss_growth = current_rss_mb() - rss0;
  }

  // Pass B, traced: the same ops (the trajectory is a pure function of
  // the seed) with an Observer, sched.profile and spans.
  obs::Observer observer(traced_obs_config());
  Service s = make_service(a, c, &observer, spans);
  auto& m = observer.metrics();
  const auto& ids = observer.ids();
  const std::uint64_t runs0 = m.merged_value(ids.engine_runs);
  const std::uint64_t rounds0 = m.merged_value(ids.engine_rounds);
  const std::uint64_t msgs0 = m.merged_value(ids.engine_messages);
  const std::uint64_t bits0 = m.merged_value(ids.engine_bits);
  const std::uint64_t busy0 = shard_busy_ns(observer);
  const std::size_t events0 = observer.trace_sink().buffer(0).size();
  const std::size_t first = s.svc->history().size();
  const Replay traced =
      replay(s, r.checks, fixed, &observer, spans);
  double certify_s = 0;
  r.values["matching_ratio"] =
      certify_final(s, c, r.checks, &certify_s, spans);

  const auto& h = s.svc->history();
  std::vector<double> rebuild_ms, plain_ms, host_ms, dirty, active;
  double rebuilt = 0, full = 0, escalated = 0, rounds = 0, aug_iters = 0,
         gained = 0, repair_s = 0;
  for (std::size_t i = first; i < h.size(); ++i) {
    const dyn::EpochReport& e = h[i];
    const std::size_t k = i - first;
    (e.rebuilt ? rebuild_ms : plain_ms).push_back(traced.epoch_ms[k]);
    host_ms.push_back(traced.epoch_ms[k] - traced.engine_ms[k]);
    dirty.push_back(static_cast<double>(e.dirty_nodes));
    active.push_back(static_cast<double>(e.active_nodes));
    rebuilt += e.rebuilt ? 1 : 0;
    full += e.full_recompute ? 1 : 0;
    escalated += e.augment_escalated ? 1 : 0;
    rounds += static_cast<double>(e.stats.rounds);
    aug_iters += e.augment_iterations;
    gained += static_cast<double>(e.augment_gained);
    repair_s += e.repair_seconds;
  }
  const double epochs = static_cast<double>(h.size() - first);
  const double busy_s =
      static_cast<double>(shard_busy_ns(observer) - busy0) * 1e-9;
  const auto delta = [&](obs::MetricsRegistry::Id id, std::uint64_t v0) {
    return static_cast<double>(m.merged_value(id) - v0);
  };
  const double messages = delta(ids.engine_messages, msgs0);

  r.values["graph.gen_s"] = s.gen_s;
  r.values["congest.runs"] = delta(ids.engine_runs, runs0);
  r.values["congest.rounds"] = delta(ids.engine_rounds, rounds0);
  r.values["congest.messages"] = messages;
  r.values["congest.bits"] = delta(ids.engine_bits, bits0);
  r.values["congest.busy_s"] = busy_s;
  r.values["congest.msgs_per_busy_s"] = busy_s > 0 ? messages / busy_s : 0.0;
  r.values["congest.worker_util"] =
      busy_s / (static_cast<double>(c.workers) * traced.submit_s);
  r.values["congest.shard_skew"] = shard_skew(observer, events0);
  r.values["dyn.rebuild_frac"] = rebuilt / epochs;
  r.values["dyn.rebuild_epoch_p50_ms"] = median(rebuild_ms);
  r.values["dyn.plain_epoch_p50_ms"] = median(plain_ms);
  r.values["dyn.engine_ms_p50"] = median(traced.engine_ms);
  r.values["dyn.host_ms_p50"] = median(host_ms);
  r.values["dyn.dirty_nodes_p50"] = median(dirty);
  r.values["dyn.active_nodes_p50"] = median(active);
  r.values["dyn.full_frac"] = full / epochs;
  r.values["dyn.rounds_per_epoch"] = rounds / epochs;
  r.values["dyn.augment_iters_per_epoch"] = aug_iters / epochs;
  r.values["dyn.augment_gained"] = gained;
  r.values["dyn.escalation_frac"] = escalated / epochs;
  r.values["dyn.batch_overhead_ms"] =
      1e3 * (traced.submit_s - repair_s) / epochs;
  r.values["dyn.rss_growth_mb"] = rss_growth;
  r.values["dyn.certify_s"] = certify_s;
  r.values["obs.trace_overhead_frac"] = traced.submit_s / plain.submit_s - 1.0;
  r.values["load.gen_frac"] = plain.gen_s / (plain.gen_s + plain.submit_s);
  std::printf("samples: %zu traced epochs, %zu ops per pass\n",
              traced.epoch_ms.size(), traced.ops);
  return r;
}

// ---- driver ---------------------------------------------------------------

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--scale") {
      if (val != "full" && val != "toy") {
        throw std::invalid_argument("--scale must be full or toy");
      }
      a.toy = val == "toy";
    } else if (key == "--units") {
      a.units = std::stoi(val);
    } else if (key == "--workers") {
      a.workers = std::stoi(val);
    } else if (key == "--spans-out") {
      a.spans_out = val;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    const Config c = config_for(a);
    std::printf("perfbench: {\"workload\": \"%s\", \"seed\": %llu, "
                "\"n\": %d, \"avg_degree\": 8, \"engine_workers\": %u, "
                "\"mp_ranks\": %u, \"min_units\": %d, \"trace\": %d, "
                "\"loop\": \"closed, 1 caller\", \"machine\": %s}\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                c.n, c.workers, a.workload == "solve_mp" ? kMpRanks : 0u,
                c.min_units, a.trace ? 1 : 0,
                bench::machine_context_json().c_str());

    std::unique_ptr<SpanLog> spans;
    if (a.trace) spans = std::make_unique<SpanLog>();
    Result r;
    const bool serve = a.workload.rfind("serve_", 0) == 0;
    if (a.workload == "solve_general") {
      r = a.trace ? solve_general_traced(a, c, spans.get())
                  : solve_general_timed(a, c);
    } else if (a.workload == "solve_mp") {
      r = a.trace ? solve_mp_traced(a, c, spans.get()) : solve_mp_timed(a, c);
    } else if (serve) {
      r = a.trace ? serve_traced(a, c, spans.get()) : serve_timed(a, c);
    }
    r.values["peak_rss_mb"] = peak_rss_mb();
    r.values["ok_frac"] = r.checks.ok_frac();

    if (spans) {
      for (const auto& [name, self_s] : spans->self_seconds()) {
        std::printf("span self_s %-40s %.6f\n", name.c_str(), self_s);
      }
      if (!a.spans_out.empty()) {
        if (!spans->write(a.spans_out)) {
          throw std::runtime_error("cannot write " + a.spans_out);
        }
        std::printf("spans: %zu written to %s\n", spans->size(),
                    a.spans_out.c_str());
      }
    }

    std::ostringstream json;
    json << "{\"correct\": "
         << (r.checks.failed == 0 && r.checks.attempted > 0 ? "true" : "false")
         << ", \"attempted\": "
         << std::max<std::uint64_t>(1, r.checks.attempted)
         << ", \"failed\": "
         << (r.checks.attempted == 0 ? 1 : r.checks.failed)
         << ", \"metrics\": {";
    bool first = true;
    const auto emit = [&](const MetricDef& d, bool required) {
      const auto it = r.values.find(d.name);
      if (it == r.values.end() && required) {
        throw std::runtime_error(std::string("metric not measured: ") + d.name);
      }
      const double v = it == r.values.end() ? 0.0 : it->second;
      json << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": "
           << json_number(v) << ", \"unit\": \"" << d.unit << "\"}";
      first = false;
    };
    if (a.trace) {
      for (const MetricDef& d : kPerLayer) emit(d, false);
    } else {
      for (const MetricDef& d : kEndToEnd) emit(d, true);
    }
    json << "}}";
    std::cout << json.str() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
