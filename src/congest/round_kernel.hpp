// One synchronous CONGEST round, written once.
//
// Both round-based executors step their nodes through this kernel: the
// shared-memory Network runs one Lane per shard, the multi-process
// MpEngine one Lane per rank. The kernel owns everything a round does to
// a node — the crash / respawn / parked checks, the port-slot plus
// delay-ring inbox gather, the reorder fault, on_round through the one
// NodeContext, and each sent envelope's fault fate — and hands every
// surviving message to the executor's Router:
//
//   router.deliver(u, in_slot, msg)  next-round delivery into u's slot
//   router.park(Parked)              delayed / duplicated copy
//
// Network's router writes the shared mailbox and its shard lanes; the
// MpEngine's writes its own mailbox or per-peer wire batches. The router
// is a template parameter, so nothing virtual or type-erased sits on the
// per-message path. What stays in each executor is only how a round's
// deliveries cross lanes (barrier vs. frames) and how quiescence and
// aborts are agreed on.
//
// Fault decisions come from fault_detail::fate() / shuffle_inbox(); the
// kernel only applies them, so every executor draws one fault history.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "congest/fault.hpp"
#include "congest/message.hpp"
#include "congest/process.hpp"
#include "graph/graph.hpp"
#include "obs/obs.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "support/slab.hpp"

namespace dmatch::congest::kernel {

/// Per-message cap in bits: congest_factor * ceil(log2 n), with
/// ceil(log2 n) floored at 4 so toy graphs can still run protocols whose
/// constants assume a few machine words.
[[nodiscard]] std::uint32_t message_cap_bits(
    NodeId n, std::uint32_t congest_factor) noexcept;

/// Per-node engine bookkeeping, packed so the route phase touches one
/// 8-byte record per delivered node: mark == e means the node is already
/// scheduled for the round with epoch e; rcv counts messages waiting in
/// its port slots, which lets the inbox gather stop scanning early.
struct NodeGate {
  std::uint32_t mark = 0;
  std::uint32_t rcv = 0;
};

/// Routing tables, built once per graph: slot i = slot_offset[v] + p
/// addresses node v's port p; peer_slot[i] is the slot of the same edge
/// at the other endpoint and peer_node[i] that endpoint. Slot ids are
/// global, which is what keeps the fault hashes executor-independent.
struct PortTable {
  std::vector<std::size_t> slot_offset;  // n + 1 (CSR offsets)
  std::vector<std::uint32_t> peer_slot;  // 2m
  std::vector<NodeId> peer_node;         // 2m

  /// Compute the offsets (a sequential scan) and size the peer tables.
  void init(const Graph& g);
  /// Fill the peer entries of nodes [vb, ve). Ranges are independent,
  /// so callers may fill disjoint ranges in parallel.
  void fill(const Graph& g, std::size_t vb, std::size_t ve);

  [[nodiscard]] std::size_t slots() const noexcept { return peer_slot.size(); }
  /// Port at node u of u's slot `in_slot`.
  [[nodiscard]] int port_of(NodeId u, std::size_t in_slot) const noexcept {
    return static_cast<int>(in_slot -
                            slot_offset[static_cast<std::size_t>(u)]);
  }
};

/// Double-buffered port-indexed mailboxes. A slot holds a live message
/// for the current round iff its stamp equals `epoch`; the epoch
/// advances every round (and jumps past both buffers at the end of every
/// run), so the buffers never need clearing. Stamps are packed to 32
/// bits and renormalized long before they could wrap.
struct Mailboxes {
  std::vector<Message> cur_msg, nxt_msg;
  std::vector<std::uint32_t, support::AlignedAlloc<std::uint32_t>> cur_stamp,
      nxt_stamp;
  std::uint32_t epoch = 1;

  void resize(std::size_t slots);

  /// Post a message for the next round. At most one message per port
  /// per round; a second send would silently overwrite the first.
  void post(std::size_t slot, Message&& msg) {
    DMATCH_EXPECTS(nxt_stamp[slot] != epoch + 1);
    nxt_msg[slot] = std::move(msg);
    nxt_stamp[slot] = epoch + 1;
  }

  /// Round boundary: the next-round buffers become current.
  void advance() noexcept {
    std::swap(cur_msg, nxt_msg);
    std::swap(cur_stamp, nxt_stamp);
    ++epoch;
  }

  /// Remap the stamp space so epochs restart at 2 once they near the
  /// 32-bit ceiling, keeping the live current-round inbox. Callable only
  /// between rounds; returns true if it remapped, and the caller must
  /// then zero the scheduling marks of its NodeGates.
  bool renormalize_if_due();
};

/// Crash / crash-restart schedule of a plan plus the respawn bookkeeping
/// a round executor needs. Rounds are lifetime rounds, accumulated over
/// every run on one engine. Inert (and empty) without an active plan.
class CrashTable {
 public:
  CrashTable() = default;
  /// The schedule covers all n nodes; restart wakeups are kept only for
  /// the nodes [lo, hi) this executor steps.
  CrashTable(const FaultPlan& plan, NodeId n, NodeId lo, NodeId hi);

  [[nodiscard]] bool dead_at(NodeId v, std::uint64_t round) const noexcept {
    return sched_.dead_at(v, round);
  }
  [[nodiscard]] const fault_detail::CrashSchedule& schedule() const noexcept {
    return sched_;
  }

  /// Run-start bookkeeping for v: drops any stale respawn and returns
  /// true, once, if a crash-restart completed before `base_round` — the
  /// node comes back with a cleared output register.
  bool clear_on_run_start(std::size_t vi, std::uint64_t base_round) noexcept;

  /// Consume v's pending respawn: true = recreate its process and clear
  /// its register before its step.
  bool take_respawn(std::size_t vi) noexcept {
    if (!respawn_pending_[vi]) return false;
    respawn_pending_[vi] = 0;
    restart_cleared_[vi] = 1;
    return true;
  }

  /// Mark for respawn every node restarting at lifetime `round` that
  /// `owns` accepts, calling `woken(u)` for each.
  template <class Owns, class Woken>
  void fire_restarts(std::uint64_t round, Owns&& owns, Woken&& woken) {
    auto it = std::lower_bound(restart_events_.begin(), restart_events_.end(),
                               std::make_pair(round, NodeId{0}));
    for (; it != restart_events_.end() && it->first == round; ++it) {
      const NodeId u = it->second;
      if (!owns(u)) continue;
      respawn_pending_[static_cast<std::size_t>(u)] = 1;
      woken(u);
    }
  }

  /// Crash events at lifetime rounds [begin, end) among nodes [lo, hi).
  [[nodiscard]] std::uint64_t crashes_between(std::uint64_t begin,
                                              std::uint64_t end, NodeId lo,
                                              NodeId hi) const noexcept;

 private:
  fault_detail::CrashSchedule sched_;
  // (restart round, node), sorted, so a round wakes its restarting nodes
  // without scanning all n.
  std::vector<std::pair<std::uint64_t, NodeId>> restart_events_;
  std::vector<char> respawn_pending_;  // restart observed; recreate process
  std::vector<char> restart_cleared_;  // register already reset for restart
};

/// A delayed or duplicated delivery on its way to a later round.
/// (node, port, origin_round) is the canonical delivery order, so which
/// lane parked a message never shows in the receiver's inbox.
struct Parked {
  NodeId node;        // receiver
  int port;           // receiver-side port
  int deliver_round;  // run-local
  int origin_round;   // run-local round it was sent in
  Message msg;
};

/// A lane's delay ring: bucket [r % window] holds the parked deliveries
/// due at run-local round r. A message sent at round r is due at r + 2 ..
/// r + 1 + max_delay while buckets r and r + 1 are in use, so a window of
/// max_delay + 2 never wraps a live bucket onto one being filled.
class DelayRing {
 public:
  void reset(int window) {
    buckets_.assign(static_cast<std::size_t>(window), {});
    pending_ = 0;
  }

  void park(Parked&& p) {
    bucket(p.deliver_round).push_back(std::move(p));
    ++pending_;
  }

  /// v's entries in the bucket of `round` (sorted by the last turn()).
  [[nodiscard]] std::span<Parked> due(int round, NodeId v) {
    std::vector<Parked>& b = bucket(round);
    auto lo = std::lower_bound(
        b.begin(), b.end(), v,
        [](const Parked& p, NodeId node) { return p.node < node; });
    auto hi = lo;
    while (hi != b.end() && hi->node == v) ++hi;
    return {lo, hi};
  }

  /// Route-phase turn: retire the bucket of `round` (consumed by the
  /// step) and sort the bucket of round + 1 into canonical order. Returns
  /// the latter so the caller can wake its receivers.
  std::span<const Parked> turn(int round);

  /// Entries parked across all buckets.
  [[nodiscard]] std::uint64_t pending() const noexcept { return pending_; }

 private:
  std::vector<Parked>& bucket(int round) {
    return buckets_[static_cast<std::size_t>(round) % buckets_.size()];
  }

  std::vector<std::vector<Parked>> buckets_;
  std::uint64_t pending_ = 0;
};

/// The Context a node sees during its step: send-side accounting into
/// the lane's RunStats, the CONGEST cap, and the per-message link
/// profiling hook.
class NodeContext final : public Context {
 public:
  NodeContext(const Graph& g, NodeId id, int round, Rng& rng, int& mate_port,
              Model model, std::uint32_t cap_bits,
              std::vector<Envelope>& outbox, RunStats& stats)
      : g_(g),
        id_(id),
        round_(round),
        rng_(rng),
        mate_port_(mate_port),
        model_(model),
        cap_bits_(cap_bits),
        outbox_(outbox),
        stats_(stats) {}

  [[nodiscard]] NodeId id() const override { return id_; }
  [[nodiscard]] int degree() const override { return g_.degree(id_); }
  [[nodiscard]] NodeId neighbor_id(int port) const override;
  [[nodiscard]] Weight edge_weight(int port) const override;
  [[nodiscard]] NodeId n_bound() const override { return g_.node_count(); }
  [[nodiscard]] int round() const override { return round_; }
  Rng& rng() override { return rng_; }
  void send(int port, Message msg) override;
  [[nodiscard]] int mate_port() const override { return mate_port_; }
  void set_mate_port(int port) override;
  void clear_mate() override { mate_port_ = -1; }

#ifndef DMATCH_OBS_DISABLED
  [[nodiscard]] obs::ShardObs* obs() noexcept override { return obs_; }
  void attach_obs(obs::ShardObs* o, std::size_t base_slot) noexcept {
    obs_ = o;
    obs_base_ = base_slot;
  }
#endif

 private:
#ifndef DMATCH_OBS_DISABLED
  obs::ShardObs* obs_ = nullptr;
  std::size_t obs_base_ = 0;  // this node's first sender-side slot
#endif
  const Graph& g_;
  NodeId id_;
  int round_;
  Rng& rng_;
  int& mate_port_;
  Model model_;
  std::uint32_t cap_bits_;
  std::vector<Envelope>& outbox_;
  RunStats& stats_;
};

/// Run state of one lane — a shard of Network, or the owned range of an
/// MpEngine rank. Single writer (the worker stepping the lane), and
/// cache-line aligned so neighboring lanes' counters never share a line.
struct alignas(64) Lane {
  std::vector<NodeId> active;       // nodes to step this round (any order)
  std::vector<NodeId> next_active;  // being built for the next round
  RunStats stats;                   // private accumulator, merged at the end
  std::vector<Envelope> inbox;      // scratch, reused across nodes
  std::vector<Envelope> outbox;     // scratch, reused across nodes
  DelayRing ring;                   // faulty runs only
  // Globally indexed views of the lane's per-node state.
  int* regs = nullptr;
  Rng* rngs = nullptr;
  NodeGate* gates = nullptr;
  obs::ShardObs* sobs = nullptr;  // nullptr = unobserved
};

/// The inputs of one run that every lane shares.
struct Run {
  const Graph& g;
  Model model;
  std::uint32_t cap_bits;
  const PortTable& ports;
  Mailboxes& mail;
  const ProcessFactory& factory;
  std::vector<std::unique_ptr<Process>>& procs;  // indexed by node
  // Fault inputs; inert unless `faults`.
  bool faults;
  const FaultPlan& plan;
  CrashTable& crashes;
  std::uint64_t fseed;       // this run's fault stream (run_seed)
  std::uint64_t base_round;  // lifetime round of run-local round 0
};

/// Ring window of a plan's runs (0 without faults).
[[nodiscard]] inline int delay_window(bool faults, const FaultPlan& plan) {
  return faults ? std::max(1, plan.max_delay) + 2 : 0;
}

/// Build the processes of nodes [vb, ve) for a new run, in ascending
/// order, and schedule the live ones: a node is stepped from its first
/// round unless it is parked (factory returned nullptr), born halted, or
/// dead at lifetime round `first_round`.
void spawn(const Run& run, Lane& lane, std::size_t vb, std::size_t ve,
           std::uint64_t first_round);

/// Schedule u for the next round (the first touch wins).
inline void wake(Lane& lane, NodeId u, std::uint32_t next_epoch) {
  NodeGate& gate = lane.gates[static_cast<std::size_t>(u)];
  if (gate.mark != next_epoch) {
    gate.mark = next_epoch;
    lane.next_active.push_back(u);
  }
}

/// Count one port-slot delivery to u and schedule it.
inline void arrive(Lane& lane, NodeId u, std::uint32_t next_epoch) {
  ++lane.gates[static_cast<std::size_t>(u)].rcv;
  wake(lane, u, next_epoch);
}

/// The step phase of `round` for every node in lane.active. Stops early
/// once `stop` is set (another lane threw).
template <class Router>
void step(const Run& run, Lane& lane, int round, Router& router,
          const std::atomic<bool>& stop) {
  const Graph& g = run.g;
  const PortTable& ports = run.ports;
  const std::size_t* const slot_offset = ports.slot_offset.data();
  const std::uint32_t* const peer_slot = ports.peer_slot.data();
  const NodeId* const peer_node = ports.peer_node.data();
  Message* const cur_msg = run.mail.cur_msg.data();
  const std::uint32_t* const cur_stamp = run.mail.cur_stamp.data();
  const std::uint32_t epoch = run.mail.epoch;
  const std::uint64_t life_round =
      run.base_round + static_cast<std::uint64_t>(round);
  DMATCH_OBS(obs::ShardObs* const sobs = lane.sobs;)

  for (const NodeId v : lane.active) {
    if (stop.load(std::memory_order_relaxed)) break;
    const auto vi = static_cast<std::size_t>(v);
    const std::size_t base = slot_offset[vi];
    NodeGate& gate = lane.gates[vi];

    if (run.faults) {
      if (run.crashes.dead_at(v, life_round)) {
        // Dead node: everything addressed to it this round is lost. The
        // port slots expire with the epoch; its ring entries are retired
        // with the bucket at the route phase.
        lane.stats.dropped_messages += gate.rcv + lane.ring.due(round, v).size();
        gate.rcv = 0;
        continue;
      }
      if (run.crashes.take_respawn(vi)) {
        // Crash-restart: fresh protocol state, cleared register.
        lane.regs[vi] = -1;
        run.procs[vi] = run.factory(v, g);
      }
    }

    Process* const proc = run.procs[vi].get();
    if (proc == nullptr) {
      // Parked node: discard anything addressed to it.
      gate.rcv = 0;
      continue;
    }

    // Gather the inbox: port slots in port order (the receive counter
    // cuts the scan short), then the ring's canonical late deliveries.
    std::vector<Envelope>& inbox = lane.inbox;
    inbox.clear();
    std::uint32_t remaining = gate.rcv;
    gate.rcv = 0;
    const std::size_t slot_end = slot_offset[vi + 1];
    for (std::size_t slot = base; remaining > 0 && slot < slot_end; ++slot) {
      if (cur_stamp[slot] == epoch) {
        inbox.push_back({static_cast<int>(slot - base),
                         std::move(cur_msg[slot])});
        --remaining;
      }
    }
    DMATCH_ASSERT(remaining == 0);
    if (run.faults) {
      for (Parked& p : lane.ring.due(round, v)) {
        inbox.push_back({p.port, std::move(p.msg)});
      }
    }

    if (proc->halted() && inbox.empty()) continue;

    if (run.faults &&
        fault_detail::shuffle_inbox(run.fseed, life_round, v, inbox, run.plan)) {
      ++lane.stats.reordered_inboxes;
      DMATCH_OBS(if (sobs != nullptr) {
        sobs->trace(obs::EventType::kFaultReorder,
                    static_cast<std::uint32_t>(v));
      })
    }

    lane.outbox.clear();
    NodeContext ctx(g, v, round, lane.rngs[vi], lane.regs[vi], run.model,
                    run.cap_bits, lane.outbox, lane.stats);
    DMATCH_OBS(ctx.attach_obs(sobs, base);)
    proc->on_round(ctx, inbox);

    for (Envelope& env : lane.outbox) {
      const std::size_t out_slot = base + static_cast<std::size_t>(env.port);
      const std::size_t in_slot = peer_slot[out_slot];
      const NodeId u = peer_node[out_slot];
      if (run.faults) {
        const fault_detail::MessageFate f =
            fault_detail::fate(run.fseed, life_round, in_slot, run.plan);
        if (f.drop) {
          ++lane.stats.dropped_messages;
          DMATCH_OBS(if (sobs != nullptr) {
            sobs->trace(obs::EventType::kFaultDrop,
                        static_cast<std::uint32_t>(u), in_slot);
          })
          continue;
        }
        if (f.dup_delay > 0) {
          ++lane.stats.duplicated_messages;
          DMATCH_OBS(if (sobs != nullptr) {
            sobs->trace(obs::EventType::kFaultDuplicate,
                        static_cast<std::uint32_t>(u), in_slot,
                        static_cast<std::uint64_t>(f.dup_delay));
          })
          router.park({u, ports.port_of(u, in_slot), round + 1 + f.dup_delay,
                       round, env.msg});
        }
        if (f.late_delay > 0) {
          // The only copy arrives late, through the delay ring.
          ++lane.stats.delayed_messages;
          DMATCH_OBS(if (sobs != nullptr) {
            sobs->trace(obs::EventType::kFaultDelay,
                        static_cast<std::uint32_t>(u), in_slot,
                        static_cast<std::uint64_t>(f.late_delay));
          })
          router.park({u, ports.port_of(u, in_slot),
                       round + 1 + f.late_delay, round, std::move(env.msg)});
          continue;
        }
      }
      router.deliver(u, in_slot, std::move(env.msg));
    }
    if (!proc->halted()) {
      lane.next_active.push_back(v);
      gate.mark = epoch + 1;
    }
  }
}

/// Fault tail of the route phase of `round`, after every delivery due at
/// round + 1 has been parked in the lane's ring: retire this round's
/// bucket, wake the receivers of the next one, and fire the restarts of
/// the next lifetime round among the nodes `owns` accepts.
template <class Owns>
void settle(const Run& run, Lane& lane, int round, Owns&& owns) {
  const std::uint32_t next_epoch = run.mail.epoch + 1;
  for (const Parked& p : lane.ring.turn(round)) wake(lane, p.node, next_epoch);
  run.crashes.fire_restarts(
      run.base_round + static_cast<std::uint64_t>(round) + 1, owns,
      [&](NodeId u) {
        ++lane.stats.restarted_nodes;
        wake(lane, u, next_epoch);
      });
}

/// Reconstruct the crash and restart instants of lifetime rounds
/// [begin, end) on the trace clock, where `clock0` is the clock at
/// lifetime round `begin` — the same window the RunStats counters use.
void trace_crash_history(obs::ShardObs& o,
                         const fault_detail::CrashSchedule& sched,
                         std::uint64_t begin, std::uint64_t end,
                         std::uint64_t clock0);

/// Import the fault counters of a finished run (RunStats or AsyncStats)
/// into the metrics registry.
template <class Stats>
void export_fault_counts(obs::ShardObs& o, const Stats& s) {
  const obs::StdMetricIds& mid = o.ids();
  o.count(mid.fault_dropped, s.dropped_messages);
  o.count(mid.fault_duplicated, s.duplicated_messages);
  o.count(mid.fault_delayed, s.delayed_messages);
  o.count(mid.fault_reordered, s.reordered_inboxes);
  o.count(mid.fault_crashed, s.crashed_nodes);
  o.count(mid.fault_restarted, s.restarted_nodes);
}

/// Import a finished round-engine run's totals into the metrics
/// registry, off the hot path.
void export_run_totals(obs::ShardObs& o, const RunStats& stats);

}  // namespace dmatch::congest::kernel
