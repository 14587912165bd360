#include "congest/round_kernel.hpp"

#include <algorithm>
#include <string>
#include <tuple>

namespace dmatch::congest::kernel {

std::uint32_t message_cap_bits(NodeId n,
                               std::uint32_t congest_factor) noexcept {
  unsigned log_n = 1;
  while ((NodeId{1} << log_n) < n) ++log_n;
  return congest_factor * std::max(log_n, 4u);
}

void PortTable::init(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.node_count());
  slot_offset.assign(n + 1, 0);
  for (std::size_t vi = 0; vi < n; ++vi) {
    slot_offset[vi + 1] =
        slot_offset[vi] +
        static_cast<std::size_t>(g.degree(static_cast<NodeId>(vi)));
  }
  peer_slot.resize(slot_offset[n]);
  peer_node.resize(slot_offset[n]);
}

void PortTable::fill(const Graph& g, std::size_t vb, std::size_t ve) {
  for (std::size_t vi = vb; vi < ve; ++vi) {
    const auto v = static_cast<NodeId>(vi);
    const auto edges = g.incident_edges(v);
    for (std::size_t p = 0; p < edges.size(); ++p) {
      const EdgeId e = edges[p];
      const NodeId u = g.other_endpoint(e, v);
      const std::size_t i = slot_offset[vi] + p;
      peer_node[i] = u;
      peer_slot[i] = static_cast<std::uint32_t>(
          slot_offset[static_cast<std::size_t>(u)] +
          static_cast<std::size_t>(g.port_of_edge(u, e)));
    }
  }
}

void Mailboxes::resize(std::size_t slots) {
  cur_msg.resize(slots);
  nxt_msg.resize(slots);
  cur_stamp.assign(slots, 0);
  nxt_stamp.assign(slots, 0);
}

bool Mailboxes::renormalize_if_due() {
  // Far below wrap, far above any round budget a single run executes
  // between two checks (the top of every round and of every run).
  constexpr std::uint32_t kEpochRenorm = 0xFFFF0000u;
  if (epoch < kEpochRenorm) return false;
  // Live state between rounds is exactly the current-round inbox (cur
  // stamps equal to epoch), which is kept; nxt stamps are stale there.
  for (std::size_t i = 0; i < cur_stamp.size(); ++i) {
    cur_stamp[i] = cur_stamp[i] == epoch ? 2u : 0u;
    nxt_stamp[i] = 0;
  }
  epoch = 2;
  return true;
}

CrashTable::CrashTable(const FaultPlan& plan, NodeId n, NodeId lo, NodeId hi)
    : sched_(fault_detail::compute_crash_schedule(plan, n)) {
  for (NodeId v = lo; v < hi; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (sched_.crash_at[vi] != kRoundNever &&
        sched_.restart_at[vi] != kRoundNever) {
      restart_events_.emplace_back(sched_.restart_at[vi], v);
    }
  }
  std::sort(restart_events_.begin(), restart_events_.end());
  respawn_pending_.assign(static_cast<std::size_t>(n), 0);
  restart_cleared_.assign(static_cast<std::size_t>(n), 0);
}

bool CrashTable::clear_on_run_start(std::size_t vi,
                                    std::uint64_t base_round) noexcept {
  respawn_pending_[vi] = 0;
  if (sched_.restart_at[vi] > base_round || restart_cleared_[vi]) {
    return false;
  }
  restart_cleared_[vi] = 1;
  return true;
}

std::uint64_t CrashTable::crashes_between(std::uint64_t begin,
                                          std::uint64_t end, NodeId lo,
                                          NodeId hi) const noexcept {
  std::uint64_t crashes = 0;
  for (NodeId v = lo; v < hi; ++v) {
    const std::uint64_t at = sched_.crash_at[static_cast<std::size_t>(v)];
    if (at >= begin && at < end) ++crashes;
  }
  return crashes;
}

std::span<const Parked> DelayRing::turn(int round) {
  std::vector<Parked>& done = bucket(round);
  pending_ -= done.size();
  done.clear();
  std::vector<Parked>& next = bucket(round + 1);
  std::sort(next.begin(), next.end(), [](const Parked& a, const Parked& b) {
    return std::tie(a.node, a.port, a.origin_round) <
           std::tie(b.node, b.port, b.origin_round);
  });
  return next;
}

NodeId NodeContext::neighbor_id(int port) const {
  return g_.neighbor(id_, port);
}

Weight NodeContext::edge_weight(int port) const {
  return g_.weight(g_.incident_edges(id_)[static_cast<std::size_t>(port)]);
}

void NodeContext::send(int port, Message msg) {
  DMATCH_EXPECTS(port >= 0 && port < degree());
  if (model_ == Model::kCongest && msg.bits > cap_bits_) {
    throw MessageTooLarge("message of " + std::to_string(msg.bits) +
                          " bits exceeds CONGEST cap of " +
                          std::to_string(cap_bits_) + " bits");
  }
  ++stats_.messages;
  stats_.total_bits += msg.bits;
  stats_.max_message_bits = std::max(stats_.max_message_bits, msg.bits);
  DMATCH_OBS(if (obs_ != nullptr) {
    obs_->link_message(obs_base_ + static_cast<std::size_t>(port), msg.bits);
  })
  outbox_.push_back({port, std::move(msg)});
}

void NodeContext::set_mate_port(int port) {
  DMATCH_EXPECTS(port >= 0 && port < degree());
  mate_port_ = port;
}

void spawn(const Run& run, Lane& lane, std::size_t vb, std::size_t ve,
           std::uint64_t first_round) {
  for (std::size_t vi = vb; vi < ve; ++vi) {
    const auto v = static_cast<NodeId>(vi);
    if (run.faults && run.crashes.clear_on_run_start(vi, run.base_round)) {
      lane.regs[vi] = -1;
    }
    std::unique_ptr<Process>& proc = run.procs[vi];
    proc = run.factory(v, run.g);
    // A process that starts out halted is never stepped (and, with no
    // messages in flight yet, cannot be woken) until someone contacts
    // it; a currently dead node waits for its restart.
    if (proc != nullptr && !proc->halted() &&
        !(run.faults && run.crashes.dead_at(v, first_round))) {
      lane.active.push_back(v);
    }
  }
}

void trace_crash_history(obs::ShardObs& o,
                         const fault_detail::CrashSchedule& sched,
                         std::uint64_t begin, std::uint64_t end,
                         std::uint64_t clock0) {
  for (std::size_t vi = 0; vi < sched.crash_at.size(); ++vi) {
    const auto actor = static_cast<std::uint32_t>(vi);
    const std::uint64_t crash = sched.crash_at[vi];
    const std::uint64_t restart = sched.restart_at[vi];
    if (crash >= begin && crash < end) {
      o.trace_at(clock0 + (crash - begin), obs::EventType::kCrash, actor);
    }
    if (restart > begin && restart <= end) {
      o.trace_at(clock0 + (restart - begin), obs::EventType::kRestart, actor);
    }
  }
}

void export_run_totals(obs::ShardObs& o, const RunStats& stats) {
  const obs::StdMetricIds& mid = o.ids();
  o.count(mid.engine_runs, 1);
  o.count(mid.engine_rounds, stats.rounds);
  o.count(mid.engine_messages, stats.messages);
  o.count(mid.engine_bits, stats.total_bits);
  o.gauge_max(mid.engine_max_message_bits, stats.max_message_bits);
  export_fault_counts(o, stats);
}

}  // namespace dmatch::congest::kernel
