#include "congest/async.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <map>
#include <queue>
#include <thread>
#include <tuple>
#include <utility>

#include "congest/round_kernel.hpp"
#include "support/arena.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "support/sched.hpp"

namespace dmatch::congest {

namespace {

enum class EventKind : std::uint8_t { kData = 0, kAck = 1, kSafe = 2 };

struct Event {
  double time = 0;
  NodeId dst = kNoNode;
  int dst_port = -1;  // port at the destination the message arrives on
  EventKind kind = EventKind::kData;
  int round = 0;       // sender's simulated round (DATA) / referenced round
  int file_round = 0;  // simulated round the payload is due (>= round + 1)
  bool dropped = false;  // payload lost in transit; still acked
  bool synth = false;    // synthetic duplicate: delivers, never acks
  Message payload;
};

/// Canonical event key. (dst, kind, dst_port, round, synth) is unique per
/// run — the executor enforces at most one DATA per directed port per
/// round, each DATA begets at most one ACK, and a node announces SAFE(r)
/// to each neighbor once — so this is a strict total order on the events
/// of a run and pop order never depends on insertion order or shard
/// layout. Delivery delays are pure hashes of the same key, so event
/// timestamps are also independent of execution order.
[[nodiscard]] std::tuple<double, NodeId, int, int, int, bool> event_key(
    const Event& e) {
  return {e.time, e.dst,  static_cast<int>(e.kind),
          e.dst_port, e.round, e.synth};
}

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    return event_key(a) > event_key(b);
  }
};

/// Context handed to the wrapped synchronous process; captures sends.
/// Per-round outbox, arena-backed: the buffer comes from the shard's
/// bump arena and is reclaimed wholesale at the next execute_round.
using Outbox = support::ArenaVector<std::pair<int, Message>>;

class AsyncContext final : public Context {
 public:
  AsyncContext(const Graph& g, NodeId id, int round, Rng& rng, int& mate_port,
               Outbox& outbox)
      : g_(g),
        id_(id),
        round_(round),
        rng_(rng),
        mate_port_(mate_port),
        outbox_(outbox) {}

  [[nodiscard]] NodeId id() const override { return id_; }
  [[nodiscard]] int degree() const override { return g_.degree(id_); }
  [[nodiscard]] NodeId neighbor_id(int port) const override {
    return g_.neighbor(id_, port);
  }
  [[nodiscard]] Weight edge_weight(int port) const override {
    return g_.weight(g_.incident_edges(id_)[static_cast<std::size_t>(port)]);
  }
  [[nodiscard]] NodeId n_bound() const override { return g_.node_count(); }
  [[nodiscard]] int round() const override { return round_; }
  Rng& rng() override { return rng_; }
  void send(int port, Message msg) override {
    DMATCH_EXPECTS(port >= 0 && port < degree());
    outbox_.emplace_back(port, std::move(msg));
  }
  [[nodiscard]] int mate_port() const override { return mate_port_; }
  void set_mate_port(int port) override {
    DMATCH_EXPECTS(port >= 0 && port < degree());
    mate_port_ = port;
  }
  void clear_mate() override { mate_port_ = -1; }

#ifndef DMATCH_OBS_DISABLED
  [[nodiscard]] obs::ShardObs* obs() noexcept override { return obs_; }
  void attach_obs(obs::ShardObs* o) noexcept { obs_ = o; }
#endif

 private:
  const Graph& g_;
  NodeId id_;
  int round_;
  Rng& rng_;
  int& mate_port_;
  Outbox& outbox_;
#ifndef DMATCH_OBS_DISABLED
  obs::ShardObs* obs_ = nullptr;
#endif
};

/// A payload due on a later simulated round than sender_round + 1
/// (delayed original or synthetic duplicate). Mirrors the engine's delay
/// ring entries, including their (port, origin round) delivery order.
struct ExtraEnvelope {
  int port = -1;
  int origin_round = 0;
  Message msg;
};

/// Per-node synchronizer state. Written only by the shard owning the node.
struct NodeState {
  std::unique_ptr<Process> proc;
  Rng rng{0};
  int executed_round = -1;            // highest simulated round run so far
  std::map<int, std::vector<Envelope>> inbox;  // keyed by delivery round
  std::map<int, std::vector<ExtraEnvelope>> extras;  // late/dup deliveries
  std::map<int, int> safe_count;      // SAFE(r) messages received
  int pending_acks = 0;               // for the DATA of executed_round
  bool announced_safe = false;        // SAFE(executed_round) already sent
  bool respawned = false;             // crash-restart already performed
};

/// Per-shard state of the wave executor. Everything here has a single
/// writer (the worker owning the shard); the driver reads it only while
/// the pool is parked (the pool handshake gives happens-before).
struct alignas(64) AsyncShard {
  std::priority_queue<Event, std::vector<Event>, EventLater> queue;
  AsyncStats stats;           // shard-local accumulators, merged at the end
  double max_time = 0;        // folded into stats.completion_time
  std::int64_t inflight_delta = 0;  // DATA sent minus DATA delivered
  std::exception_ptr error;
  std::uint64_t stamp_token = 0;    // for the one-message-per-port contract
  std::vector<std::uint64_t> port_stamp;
  // Bump arena for per-round transient buffers (the outbox); reset at
  // every execute_round, so steady-state rounds make no heap calls for
  // scratch. Strictly shard-private, like everything else here.
  support::Arena arena;
#ifndef DMATCH_OBS_DISABLED
  obs::ShardObs* sobs = nullptr;
  std::vector<std::uint64_t> round_bits;  // parallels stats.round_payloads
#endif
};

class AlphaSynchronizerRun {
 public:
  AlphaSynchronizerRun(const Graph& g, const ProcessFactory& factory,
                       std::vector<int>& mate_ports, std::uint64_t seed,
                       int max_rounds, const AsyncOptions& options)
      : g_(g),
        factory_(factory),
        mate_ports_(mate_ports),
        max_rounds_(max_rounds),
        options_(options),
        fault_(options.fault.any()),
        dseed_(fault_detail::mix(seed, 0xd37a11ce5ULL, 0, 0)) {
    DMATCH_EXPECTS(mate_ports_.size() ==
                   static_cast<std::size_t>(g.node_count()));
    const unsigned threads =
        options.num_threads != 0
            ? options.num_threads
            : std::max(1u, std::thread::hardware_concurrency());
    const auto n = static_cast<std::size_t>(g.node_count());
    dispatcher_ = std::make_unique<support::Scheduler>(threads, options.sched);
    // Shard geometry is frozen from the scheduler's task plan before any
    // event executes; results are shard-layout independent, so thread
    // counts with different shard counts still agree bit for bit.
    num_shards_ = dispatcher_->plan_tasks(n);
    n_ = n;
    shards_.resize(num_shards_);
    lanes_.resize(static_cast<std::size_t>(num_shards_) * num_shards_);
    int max_degree = 0;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      max_degree = std::max(max_degree, g.degree(v));
    }
    for (AsyncShard& sh : shards_) {
      sh.port_stamp.assign(static_cast<std::size_t>(max_degree), 0);
    }

    Rng root(seed);
    nodes_.resize(n);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      auto& node = nodes_[static_cast<std::size_t>(v)];
      node.proc = factory(v, g);
      node.rng = root.fork(static_cast<std::uint64_t>(v));
    }
    if (fault_) {
      // Same crash table and per-message hash stream as the round engine
      // (first run on a fresh Network, nonce 0), so a plan produces one
      // fault history regardless of which executor replays it.
      sched_ = fault_detail::compute_crash_schedule(options_.fault,
                                                    g.node_count());
      fseed_ = fault_detail::run_seed(options_.fault.seed, 0);
      build_slot_offsets();
    }
    DMATCH_OBS(if (options_.observer != nullptr) {
      (void)options_.observer->begin_run(num_shards_, g);
      for (unsigned s = 0; s < num_shards_; ++s) {
        shards_[s].sobs = options_.observer->shard(s);
      }
      clock_base_ = options_.observer->clock();
      if (slot_offset_.empty()) build_slot_offsets();
    })
  }

  AsyncStats run(std::vector<char>* dead_out) {
    // Round 0 and isolated-node spin-up, shard-parallel: each node's
    // bootstrap touches only its own state and the outgoing lanes.
    for_each_shard([this](unsigned s) { bootstrap(s); });
    rethrow_shard_errors();
    for_each_shard([this](unsigned s) { merge_wave(s); });
    collect_inflight();

    // Conservative wave loop: all events with time in [T_min, T_min +
    // min_delay) were queued before the wave opened (anything a wave
    // event spawns lands >= min_delay later), and concurrent events
    // address distinct nodes (one shard each), so processing a wave
    // shard-parallel is order-equivalent to the sequential pop loop.
    for (;;) {
      double t_min = std::numeric_limits<double>::infinity();
      for (const AsyncShard& sh : shards_) {
        if (!sh.queue.empty()) t_min = std::min(t_min, sh.queue.top().time);
      }
      if (t_min == std::numeric_limits<double>::infinity()) break;
      if (quiescent()) break;
      const double t_end = t_min + options_.min_delay;
      for_each_shard([this, t_end](unsigned s) { process_wave(s, t_end); });
      rethrow_shard_errors();
      for_each_shard([this](unsigned s) { merge_wave(s); });
      collect_inflight();
    }

    merge_stats();
    // Completion means genuine protocol quiescence (all node programs
    // halted, nothing undelivered) -- drained event queues alone can also
    // mean the round budget cut the synchronizer off mid-protocol.
    stats_.completed = quiescent();
    if (fault_) {
      finish_faults(dead_out);
    } else if (dead_out != nullptr) {
      dead_out->assign(static_cast<std::size_t>(g_.node_count()), 0);
    }
    DMATCH_OBS(if (options_.observer != nullptr) finish_obs();)
    return stats_;
  }

 private:
  // --- shard geometry -------------------------------------------------

  [[nodiscard]] unsigned shard_of(NodeId v) const {
    return support::balanced_part_of(n_, num_shards_,
                                     static_cast<std::size_t>(v));
  }
  [[nodiscard]] NodeId shard_begin(unsigned s) const {
    return static_cast<NodeId>(
        support::balanced_range(n_, num_shards_, s).begin);
  }
  [[nodiscard]] NodeId shard_end(unsigned s) const {
    return static_cast<NodeId>(support::balanced_range(n_, num_shards_, s).end);
  }
  [[nodiscard]] std::vector<Event>& lane(unsigned src, unsigned dst) {
    return lanes_[static_cast<std::size_t>(src) * num_shards_ + dst];
  }

  void for_each_shard(const std::function<void(unsigned)>& task) {
    dispatcher_->run_tasks(num_shards_, task);
  }

  void rethrow_shard_errors() {
    // Lowest shard first: deterministic pick when several shards threw.
    for (AsyncShard& sh : shards_) {
      if (sh.error) std::rethrow_exception(sh.error);
    }
  }

  void collect_inflight() {
    for (AsyncShard& sh : shards_) {
      data_in_flight_ += sh.inflight_delta;
      sh.inflight_delta = 0;
    }
    DMATCH_ASSERT(data_in_flight_ >= 0);
  }

  void build_slot_offsets() {
    slot_offset_.resize(static_cast<std::size_t>(g_.node_count()) + 1, 0);
    for (NodeId v = 0; v < g_.node_count(); ++v) {
      slot_offset_[static_cast<std::size_t>(v) + 1] =
          slot_offset_[static_cast<std::size_t>(v)] +
          static_cast<std::uint64_t>(g_.degree(v));
    }
  }

  // --- wave phases (worker-side) --------------------------------------

  void bootstrap(unsigned s) {
    try {
      for (NodeId v = shard_begin(s); v < shard_end(s); ++v) {
        execute_round(s, v, 0, 0.0);
      }
      // Isolated nodes receive no events, so no dispatch ever advances
      // them: spin them forward now (they halt on their own or burn the
      // round budget, exactly like their engine execution).
      for (NodeId v = shard_begin(s); v < shard_end(s); ++v) {
        if (g_.degree(v) == 0) try_advance(s, 0.0, v);
      }
    } catch (...) {
      shards_[s].error = std::current_exception();
      failed_.store(true, std::memory_order_relaxed);
    }
  }

  void process_wave(unsigned s, double t_end) {
    AsyncShard& shard = shards_[s];
    try {
      while (!shard.queue.empty() && shard.queue.top().time < t_end) {
        if (failed_.load(std::memory_order_relaxed)) return;
        Event ev = shard.queue.top();
        shard.queue.pop();
        ++shard.stats.events;
        shard.max_time = std::max(shard.max_time, ev.time);
        dispatch(s, std::move(ev));
      }
    } catch (...) {
      shard.error = std::current_exception();
      failed_.store(true, std::memory_order_relaxed);
    }
  }

  void merge_wave(unsigned t) {
    AsyncShard& shard = shards_[t];
    for (unsigned s = 0; s < num_shards_; ++s) {
      std::vector<Event>& box = lane(s, t);
      for (Event& ev : box) shard.queue.push(std::move(ev));
      box.clear();
    }
  }

  // --- quiescence / teardown (driver-side, workers parked) ------------

  [[nodiscard]] bool settled_dead(NodeId v) const {
    if (!fault_) return false;
    const auto vi = static_cast<std::size_t>(v);
    const auto& node = nodes_[vi];
    return sched_.restart_at[vi] == kRoundNever && node.executed_round >= 0 &&
           sched_.crash_at[vi] <=
               static_cast<std::uint64_t>(node.executed_round);
  }

  [[nodiscard]] bool quiescent() const {
    if (data_in_flight_ > 0) return false;
    for (NodeId v = 0; v < g_.node_count(); ++v) {
      const NodeState& node = nodes_[static_cast<std::size_t>(v)];
      // A node that died for good absorbs whatever is still addressed
      // to it (counted as drops at the end) and never acts again.
      if (settled_dead(v)) continue;
      if (!node.proc->halted()) return false;
      for (const auto& [round, box] : node.inbox) {
        if (!box.empty() && round > node.executed_round) return false;
      }
      for (const auto& [round, box] : node.extras) {
        if (!box.empty() && round > node.executed_round) return false;
      }
    }
    return true;
  }

  void merge_stats() {
    for (AsyncShard& sh : shards_) {
      stats_.events += sh.stats.events;
      stats_.payload_messages += sh.stats.payload_messages;
      stats_.control_messages += sh.stats.control_messages;
      stats_.virtual_rounds =
          std::max(stats_.virtual_rounds, sh.stats.virtual_rounds);
      stats_.completion_time = std::max(stats_.completion_time, sh.max_time);
      stats_.dropped_messages += sh.stats.dropped_messages;
      stats_.duplicated_messages += sh.stats.duplicated_messages;
      stats_.delayed_messages += sh.stats.delayed_messages;
      stats_.reordered_inboxes += sh.stats.reordered_inboxes;
      stats_.restarted_nodes += sh.stats.restarted_nodes;
      if (sh.stats.round_payloads.size() > stats_.round_payloads.size()) {
        stats_.round_payloads.resize(sh.stats.round_payloads.size(), 0);
      }
      for (std::size_t r = 0; r < sh.stats.round_payloads.size(); ++r) {
        stats_.round_payloads[r] += sh.stats.round_payloads[r];
      }
      DMATCH_OBS(
          if (sh.round_bits.size() > obs_round_bits_.size()) {
            obs_round_bits_.resize(sh.round_bits.size(), 0);
          } for (std::size_t r = 0; r < sh.round_bits.size(); ++r) {
            obs_round_bits_[r] += sh.round_bits[r];
          })
    }
  }

  void finish_faults(std::vector<char>* dead_out) {
    // Residual payloads parked for rounds a permanently dead node will
    // never execute are lost — the engine counts the same messages as
    // drops when the dead node's round comes up or the run ends.
    for (NodeId v = 0; v < g_.node_count(); ++v) {
      if (!settled_dead(v)) continue;
      NodeState& node = nodes_[static_cast<std::size_t>(v)];
      for (auto& [round, box] : node.inbox) {
        if (round > node.executed_round) {
          stats_.dropped_messages += box.size();
        }
      }
      for (auto& [round, box] : node.extras) {
        if (round > node.executed_round) {
          stats_.dropped_messages += box.size();
        }
      }
      node.inbox.clear();
      node.extras.clear();
    }
    // Crash events that fired inside the simulated window, and the
    // end-of-run dead mask (the engine's node_dead at lifetime end).
    const std::uint64_t end_round = stats_.virtual_rounds + 1;
    if (dead_out != nullptr) {
      dead_out->assign(static_cast<std::size_t>(g_.node_count()), 0);
    }
    for (NodeId v = 0; v < g_.node_count(); ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (sched_.crash_at[vi] < end_round) ++stats_.crashed_nodes;
      if (dead_out != nullptr && sched_.dead_at(v, end_round)) {
        (*dead_out)[vi] = 1;
      }
    }
  }

  // --- event plumbing (worker-side, shard-local) ----------------------

  /// Delivery delay as a pure hash of the canonical event identity: the
  /// same event gets the same delay no matter which shard sends it or
  /// when — the keystone of cross-thread-count determinism. Uniform in
  /// [min_delay, max_delay) like the old shared-stream draw.
  [[nodiscard]] double delay_for(NodeId dst, int dst_port, EventKind kind,
                                 int round, bool synth) const {
    const auto a = static_cast<std::uint64_t>(dst);
    const std::uint64_t b =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst_port))
         << 3) |
        (static_cast<std::uint64_t>(kind) << 1) |
        static_cast<std::uint64_t>(synth);
    const std::uint64_t h =
        fault_detail::mix(dseed_, a, b, static_cast<std::uint64_t>(round));
    return options_.min_delay +
           (options_.max_delay - options_.min_delay) * fault_detail::to_unit(h);
  }

  void enqueue(unsigned s, double now, Event ev) {
    ev.time = now + delay_for(ev.dst, ev.dst_port, ev.kind, ev.round, ev.synth);
    lane(s, shard_of(ev.dst)).push_back(std::move(ev));
  }

  void enqueue_control(unsigned s, double now, NodeId dst, int dst_port,
                       EventKind kind, int round) {
    Event ev;
    ev.dst = dst;
    ev.dst_port = dst_port;
    ev.kind = kind;
    ev.round = round;
    enqueue(s, now, std::move(ev));
  }

  void dispatch(unsigned s, Event ev) {
    AsyncShard& shard = shards_[s];
    auto& node = nodes_[static_cast<std::size_t>(ev.dst)];
    switch (ev.kind) {
      case EventKind::kData: {
        --shard.inflight_delta;
        if (!ev.synth) {
          ++shard.stats.payload_messages;
          // Acknowledge to the sender. The control plane is reliable
          // (Awerbuch's model): even a dropped payload is acked, else
          // the sender would never announce SAFE and the synchronizer
          // would deadlock on a fault.
          const EdgeId e = g_.incident_edges(
              ev.dst)[static_cast<std::size_t>(ev.dst_port)];
          const NodeId sender = g_.other_endpoint(e, ev.dst);
          enqueue_control(s, ev.time, sender, g_.port_of_edge(sender, e),
                          EventKind::kAck, ev.round);
          ++shard.stats.control_messages;
        }
        if (!ev.dropped) {
          if (ev.file_round > ev.round + 1) {
            node.extras[ev.file_round].push_back(
                {ev.dst_port, ev.round, std::move(ev.payload)});
          } else {
            node.inbox[ev.file_round].push_back(
                {ev.dst_port, std::move(ev.payload)});
          }
        }
        break;
      }
      case EventKind::kAck: {
        if (ev.round == node.executed_round) {
          DMATCH_ASSERT(node.pending_acks > 0);
          if (--node.pending_acks == 0) announce_safe(s, ev.time, ev.dst);
        }
        try_advance(s, ev.time, ev.dst);
        break;
      }
      case EventKind::kSafe: {
        ++node.safe_count[ev.round];
        try_advance(s, ev.time, ev.dst);
        break;
      }
    }
    if (ev.kind == EventKind::kData) try_advance(s, ev.time, ev.dst);
  }

  void announce_safe(unsigned s, double now, NodeId v) {
    AsyncShard& shard = shards_[s];
    auto& node = nodes_[static_cast<std::size_t>(v)];
    if (node.announced_safe) return;
    node.announced_safe = true;
    for (int p = 0; p < g_.degree(v); ++p) {
      const NodeId u = g_.neighbor(v, p);
      const EdgeId e = g_.incident_edges(v)[static_cast<std::size_t>(p)];
      enqueue_control(s, now, u, g_.port_of_edge(u, e), EventKind::kSafe,
                      node.executed_round);
      ++shard.stats.control_messages;
    }
  }

  void try_advance(unsigned s, double now, NodeId v) {
    auto& node = nodes_[static_cast<std::size_t>(v)];
    const auto vi = static_cast<std::size_t>(v);
    for (;;) {
      const int r = node.executed_round;
      if (r + 1 > max_rounds_) return;
      if (!node.announced_safe) return;  // own messages not yet delivered
      if (g_.degree(v) > 0 && node.safe_count[r] < g_.degree(v)) return;
      if (g_.degree(v) == 0) {
        // An isolated halted node influences nobody: spinning it forward
        // only burns simulated rounds. Same for one that died for good.
        if (node.proc->halted()) return;
        if (fault_ && sched_.restart_at[vi] == kRoundNever &&
            sched_.crash_at[vi] <= static_cast<std::uint64_t>(r) + 1) {
          return;
        }
      }
      execute_round(s, v, r + 1, now);
    }
  }

  void execute_round(unsigned s, NodeId v, int round, double now) {
    AsyncShard& shard = shards_[s];
    auto& node = nodes_[static_cast<std::size_t>(v)];
    const auto vi = static_cast<std::size_t>(v);
    DMATCH_ASSERT(round == node.executed_round + 1);
    node.executed_round = round;
    node.safe_count.erase(round - 2);  // stale bookkeeping
    shard.stats.virtual_rounds = std::max(
        shard.stats.virtual_rounds, static_cast<std::uint64_t>(round));
    if (static_cast<std::size_t>(round) >= shard.stats.round_payloads.size()) {
      // Grown before the degenerate-crash return below so dead nodes'
      // silent rounds still appear (as zeros) in the per-round curve.
      shard.stats.round_payloads.resize(static_cast<std::size_t>(round) + 1,
                                        0);
      DMATCH_OBS(shard.round_bits.resize(shard.stats.round_payloads.size(),
                                         0);)
    }

    if (fault_ &&
        sched_.dead_at(v, static_cast<std::uint64_t>(round))) {
      // Crashed node: executes no protocol step and its round's payloads
      // are lost (the engine drops them at consumption), but it keeps
      // the synchronizer sound — no data, so SAFE goes out immediately.
      if (const auto it = node.inbox.find(round); it != node.inbox.end()) {
        shard.stats.dropped_messages += it->second.size();
        node.inbox.erase(it);
      }
      if (const auto it = node.extras.find(round); it != node.extras.end()) {
        shard.stats.dropped_messages += it->second.size();
        node.extras.erase(it);
      }
      node.pending_acks = 0;
      node.announced_safe = false;
      announce_safe(s, now, v);
      return;
    }
    if (fault_ && !node.respawned &&
        sched_.crash_at[vi] <= static_cast<std::uint64_t>(round)) {
      // Crash-restart: fresh protocol state, cleared output register,
      // same private RNG stream — the engine's respawn semantics.
      node.respawned = true;
      node.proc = factory_(v, g_);
      DMATCH_ENSURES(node.proc != nullptr);
      mate_ports_[vi] = -1;
      ++shard.stats.restarted_nodes;
    }

    std::vector<Envelope> inbox;
    if (const auto it = node.inbox.find(round); it != node.inbox.end()) {
      inbox = std::move(it->second);
      node.inbox.erase(it);
    }
    std::sort(inbox.begin(), inbox.end(),
              [](const Envelope& a, const Envelope& b) {
                return a.port < b.port;
              });
    if (fault_) {
      // Late/duplicate payloads follow the regular slots in the engine's
      // delay-ring order: sorted by (port, origin round).
      if (const auto it = node.extras.find(round); it != node.extras.end()) {
        std::sort(it->second.begin(), it->second.end(),
                  [](const ExtraEnvelope& a, const ExtraEnvelope& b) {
                    return std::tie(a.port, a.origin_round) <
                           std::tie(b.port, b.origin_round);
                  });
        for (ExtraEnvelope& e : it->second) {
          inbox.push_back({e.port, std::move(e.msg)});
        }
        node.extras.erase(it);
      }
      if (fault_detail::shuffle_inbox(fseed_, static_cast<std::uint64_t>(round),
                                      v, inbox, options_.fault)) {
        ++shard.stats.reordered_inboxes;
        DMATCH_OBS(if (shard.sobs != nullptr) {
          shard.sobs->trace_at(clock_base_ + static_cast<std::uint64_t>(round),
                               obs::EventType::kFaultReorder,
                               static_cast<std::uint32_t>(v));
        })
      }
    }

    // Arena-backed outbox: reset reclaims the previous round's scratch
    // wholesale (nothing arena-backed outlives an execute_round call),
    // and the CONGEST one-message-per-port contract makes degree(v) an
    // exact reservation, so steady-state rounds never touch the heap.
    shard.arena.reset();
    Outbox outbox{support::ArenaAllocator<std::pair<int, Message>>(shard.arena)};
    outbox.reserve(static_cast<std::size_t>(g_.degree(v)));
    // Mirror Network::run: halted nodes with an empty inbox are skipped
    // (they still synchronize, sending SAFE with no data).
    if (!node.proc->halted() || !inbox.empty()) {
      AsyncContext ctx(g_, v, round, node.rng, mate_ports_[vi], outbox);
      DMATCH_OBS(if (shard.sobs != nullptr) {
        shard.sobs->now = clock_base_ + static_cast<std::uint64_t>(round);
        ctx.attach_obs(shard.sobs);
      })
      node.proc->on_round(ctx, inbox);
    }

    // CONGEST contract, enforced like the engine's port-slot mailboxes:
    // at most one message per port per round. Without it the canonical
    // event key would not be unique and pop order would be ambiguous.
    ++shard.stamp_token;
    for (const auto& [port, msg] : outbox) {
      auto& stamp = shard.port_stamp[static_cast<std::size_t>(port)];
      DMATCH_EXPECTS(stamp != shard.stamp_token);
      stamp = shard.stamp_token;
    }

    node.pending_acks = static_cast<int>(outbox.size());
    node.announced_safe = false;
    shard.stats.round_payloads[static_cast<std::size_t>(round)] +=
        static_cast<std::uint64_t>(outbox.size());
    for (auto& [port, msg] : outbox) {
      const EdgeId e = g_.incident_edges(v)[static_cast<std::size_t>(port)];
      const NodeId u = g_.other_endpoint(e, v);
      const int uport = g_.port_of_edge(u, e);
      DMATCH_OBS(if (shard.sobs != nullptr) {
        // Same sender-side slot the engine's NodeContext profiles.
        shard.sobs->link_message(
            static_cast<std::size_t>(
                slot_offset_[static_cast<std::size_t>(v)]) +
                static_cast<std::size_t>(port),
            msg.bits);
        shard.round_bits[static_cast<std::size_t>(round)] += msg.bits;
      })
      Event ev;
      ev.dst = u;
      ev.dst_port = uport;
      ev.kind = EventKind::kData;
      ev.round = round;
      ev.file_round = round + 1;
      if (fault_) {
        // The round kernel's fate() for (run seed, sender round,
        // receiver slot): identical plan, identical fate.
        const std::uint64_t in_slot =
            slot_offset_[static_cast<std::size_t>(u)] +
            static_cast<std::uint64_t>(uport);
        const fault_detail::MessageFate f = fault_detail::fate(
            fseed_, static_cast<std::uint64_t>(round), in_slot,
            options_.fault);
        if (f.drop) {
          ev.dropped = true;
          ++shard.stats.dropped_messages;
          DMATCH_OBS(if (shard.sobs != nullptr) {
            shard.sobs->trace_at(
                clock_base_ + static_cast<std::uint64_t>(round),
                obs::EventType::kFaultDrop, static_cast<std::uint32_t>(u),
                in_slot);
          })
        }
        if (f.dup_delay > 0) {
          ++shard.stats.duplicated_messages;
          DMATCH_OBS(if (shard.sobs != nullptr) {
            shard.sobs->trace_at(
                clock_base_ + static_cast<std::uint64_t>(round),
                obs::EventType::kFaultDuplicate, static_cast<std::uint32_t>(u),
                in_slot, static_cast<std::uint64_t>(f.dup_delay));
          })
          Event copy;
          copy.dst = u;
          copy.dst_port = uport;
          copy.kind = EventKind::kData;
          copy.round = round;
          copy.file_round = round + 1 + f.dup_delay;
          copy.synth = true;
          copy.payload = msg;
          enqueue(s, now, std::move(copy));
          ++shard.inflight_delta;
        }
        if (f.late_delay > 0) {
          ++shard.stats.delayed_messages;
          DMATCH_OBS(if (shard.sobs != nullptr) {
            shard.sobs->trace_at(
                clock_base_ + static_cast<std::uint64_t>(round),
                obs::EventType::kFaultDelay, static_cast<std::uint32_t>(u),
                in_slot, static_cast<std::uint64_t>(f.late_delay));
          })
          ev.file_round = round + 1 + f.late_delay;
        }
      }
      ev.payload = std::move(msg);
      enqueue(s, now, std::move(ev));
      ++shard.inflight_delta;
    }
    if (node.pending_acks == 0) announce_safe(s, now, v);
  }

#ifndef DMATCH_OBS_DISABLED
  // Emitted once at the end of the run on the driver thread (shard 0
  // handle, workers parked). Per-round records are reconstructed on the
  // virtual-round clock instead of streamed (virtual rounds interleave
  // across nodes and shards). Timestamps are clock_base_ + round — the
  // mapping the engine uses — so sync and async runs share one trace
  // timeline, and the reconstruction consumes only merged, shard-layout-
  // independent inputs, keeping the output byte-identical across
  // num_threads.
  void finish_obs() {
    obs::Observer& ob = *options_.observer;
    obs::ShardObs* sobs = shards_[0].sobs;
    const auto& ids = sobs->ids();
    const std::size_t rounds = stats_.round_payloads.size();
    obs_round_bits_.resize(rounds, 0);
    for (std::size_t r = 0; r < rounds; ++r) {
      const std::uint64_t t = clock_base_ + r;
      sobs->trace_at(t, obs::EventType::kRoundEnd, 0,
                     stats_.round_payloads[r], obs_round_bits_[r]);
      sobs->observe(ids.engine_round_messages_hist, stats_.round_payloads[r]);
      sobs->bits_hist_totals(stats_.round_payloads[r], obs_round_bits_[r]);
      ob.profiler().round_end(stats_.round_payloads[r], obs_round_bits_[r]);
    }
    if (fault_) {
      // The engine's reconstruction with the run starting at lifetime
      // round 0 (async runs are always a fresh nonce-0 history).
      kernel::trace_crash_history(*sobs, sched_, 0, stats_.virtual_rounds + 1,
                                  clock_base_);
      kernel::export_fault_counts(*sobs, stats_);
    }
    sobs->count(ids.async_events, stats_.events);
    sobs->count(ids.async_payload_messages, stats_.payload_messages);
    sobs->count(ids.async_control_messages, stats_.control_messages);
    sobs->count(ids.async_virtual_rounds, stats_.virtual_rounds);
    ob.advance_clock(rounds);
  }
#endif

  const Graph& g_;
  const ProcessFactory& factory_;
  std::vector<int>& mate_ports_;
  const int max_rounds_;
  const AsyncOptions options_;
  const bool fault_;
  const std::uint64_t dseed_;  // delay-hash seed (derived from run seed)

  unsigned num_shards_ = 1;
  std::size_t n_ = 0;
  std::unique_ptr<support::Scheduler> dispatcher_;
  std::vector<AsyncShard> shards_;
  std::vector<std::vector<Event>> lanes_;  // (src shard, dst shard) boxes
  std::atomic<bool> failed_{false};

  fault_detail::CrashSchedule sched_;
  std::uint64_t fseed_ = 0;
  std::vector<std::uint64_t> slot_offset_;

  std::vector<NodeState> nodes_;
  std::int64_t data_in_flight_ = 0;
  AsyncStats stats_;

#ifndef DMATCH_OBS_DISABLED
  std::uint64_t clock_base_ = 0;
  std::vector<std::uint64_t> obs_round_bits_;  // parallels round_payloads
#endif
};

}  // namespace

AsyncStats run_synchronized(const Graph& g, const ProcessFactory& factory,
                            std::vector<int>& mate_ports, std::uint64_t seed,
                            int max_virtual_rounds, const AsyncOptions& options,
                            std::vector<char>* dead_out) {
  DMATCH_EXPECTS(options.min_delay > 0 &&
                 options.max_delay >= options.min_delay);
  AlphaSynchronizerRun run(g, factory, mate_ports, seed, max_virtual_rounds,
                           options);
  return run.run(dead_out);
}

AsyncStats run_synchronized(const Graph& g, const ProcessFactory& factory,
                            std::vector<int>& mate_ports, std::uint64_t seed,
                            int max_virtual_rounds, double min_delay,
                            double max_delay) {
  AsyncOptions options;
  options.min_delay = min_delay;
  options.max_delay = max_delay;
  return run_synchronized(g, factory, mate_ports, seed, max_virtual_rounds,
                          options, nullptr);
}

AsyncRunResult run_synchronized(const Graph& g, const ProcessFactory& factory,
                                std::uint64_t seed, int max_virtual_rounds,
                                const AsyncOptions& options) {
  const auto n = static_cast<std::size_t>(g.node_count());
  std::vector<int> mate_ports(n, -1);
  AsyncRunResult res;
  res.stats = run_synchronized(g, factory, mate_ports, seed,
                               max_virtual_rounds, options, &res.dead_nodes);
  Matching m(g.node_count());
  if (!options.fault.any()) {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const int port = mate_ports[static_cast<std::size_t>(v)];
      if (port < 0) continue;
      const EdgeId e = g.incident_edges(v)[static_cast<std::size_t>(port)];
      const NodeId u = g.other_endpoint(e, v);
      const int uport = mate_ports[static_cast<std::size_t>(u)];
      DMATCH_EXPECTS(uport >= 0 &&
                     g.incident_edges(u)[static_cast<std::size_t>(uport)] == e);
      if (v < u) m.add(g, e);
    }
    res.matching = std::move(m);
    return res;
  }

  // Same register healing as Network::heal_registers, against the
  // end-of-run dead mask: decide on a frozen snapshot, then clear.
  res.degradation.budget_exhausted = !res.stats.completed;
  std::vector<char> clear(n, 0);
  std::uint64_t dead_now = 0;
  for (std::size_t vi = 0; vi < n; ++vi) {
    if (res.dead_nodes[vi]) ++dead_now;
  }
  res.degradation.crashed_nodes =
      std::max(res.degradation.crashed_nodes, dead_now);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto vi = static_cast<std::size_t>(v);
    const int port = mate_ports[vi];
    if (port < 0) continue;
    if (res.dead_nodes[vi]) {
      clear[vi] = 1;
      ++res.degradation.dead_registers_healed;
      continue;
    }
    const EdgeId e = g.incident_edges(v)[static_cast<std::size_t>(port)];
    const NodeId u = g.other_endpoint(e, v);
    if (res.dead_nodes[static_cast<std::size_t>(u)]) {
      clear[vi] = 1;
      ++res.degradation.dead_registers_healed;
      continue;
    }
    const int uport = mate_ports[static_cast<std::size_t>(u)];
    const bool consistent =
        uport >= 0 &&
        g.incident_edges(u)[static_cast<std::size_t>(uport)] == e;
    if (!consistent) {
      clear[vi] = 1;
      ++res.degradation.torn_registers_healed;
    }
  }
  for (std::size_t vi = 0; vi < n; ++vi) {
    if (clear[vi]) mate_ports[vi] = -1;
  }
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const int port = mate_ports[static_cast<std::size_t>(v)];
    if (port < 0) continue;
    const EdgeId e = g.incident_edges(v)[static_cast<std::size_t>(port)];
    const NodeId u = g.other_endpoint(e, v);
    if (v < u) m.add(g, e);
  }
  DMATCH_ENSURES(m.is_valid(g));
  res.matching = std::move(m);
  return res;
}

}  // namespace dmatch::congest
