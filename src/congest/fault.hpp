// Deterministic fault model for the CONGEST simulator.
//
// A FaultPlan (attached through Network::Options) describes which
// adversarial events the round engine injects: per-message drops,
// duplicates, k-round delays and per-receiver inbox reorderings, plus
// node crashes and crash-restarts. Every probabilistic decision is a
// pure hash of (plan seed, run nonce, round, slot/node), never a draw
// from a shared stream, so a faulty run is bit-identical for any
// Options::num_threads — the same contract the fault-free engine gives.
//
// Crash schedules are drawn once per node from the plan seed (so every
// Network built with the same plan agrees on who dies when), with
// explicit scheduled CrashEvents layered on top. Rounds in crash
// schedules are *lifetime* rounds: they accumulate over every run() a
// Network executes, which lets a driver that composes many protocol
// runs on one Network see a consistent failure history.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "congest/message.hpp"
#include "graph/graph.hpp"

namespace dmatch::congest {

/// Round number that never arrives (no crash / no restart).
inline constexpr std::uint64_t kRoundNever = ~std::uint64_t{0};

/// An explicitly scheduled crash: `node` dies at lifetime round `round`
/// (it executes no step from that round on) and, if `restart_round` is
/// set, comes back at that round with fresh protocol state and a cleared
/// output register.
struct CrashEvent {
  NodeId node = 0;
  std::uint64_t round = 0;
  std::uint64_t restart_round = kRoundNever;
};

/// Distribution of the extra-delay magnitude over [1, max_delay] (for
/// both delays and duplicates). kUniform is the original model; kPareto
/// is a truncated heavy-tailed draw — most delays are 1 round, a rare
/// few approach max_delay — modelling hostile-network stragglers.
enum class DelayModel : std::uint8_t { kUniform = 0, kPareto = 1 };

struct FaultPlan {
  // --- Per-message faults (decided per delivery attempt) ---
  /// Probability a message is lost in transit.
  double drop_prob = 0;
  /// Probability a message is delivered twice; the extra copy arrives
  /// 1..max_delay rounds after the original.
  double duplicate_prob = 0;
  /// Probability a message is late: its only copy arrives 1..max_delay
  /// rounds after the normal delivery round.
  double delay_prob = 0;
  /// Largest extra delay, in rounds (for both delays and duplicates).
  int max_delay = 3;
  /// How delay magnitudes are distributed over [1, max_delay].
  DelayModel delay_model = DelayModel::kUniform;
  /// Pareto shape for DelayModel::kPareto (smaller = heavier tail;
  /// must be > 0). Ignored under kUniform.
  double pareto_alpha = 1.1;
  /// Probability that a receiver's inbox for one round is handed to the
  /// process in a scrambled (but seed-deterministic) order instead of
  /// the engine's ascending-port order.
  double reorder_prob = 0;

  // --- Node crashes ---
  /// Per-node probability of crashing at all (drawn once per node from
  /// the plan seed; the crash round is uniform in [0, crash_round_bound)).
  double crash_prob = 0;
  std::uint64_t crash_round_bound = 64;
  /// Probability that a crashing node restarts (crash-restart fault)
  /// `restart_delay` rounds later, with fresh state.
  double restart_prob = 0;
  std::uint64_t restart_delay = 8;
  /// Scheduled crashes, applied after the probabilistic draw (a node
  /// listed here gets exactly the listed schedule).
  std::vector<CrashEvent> crashes;

  /// Seed of the fault stream. Independent of the protocol seed: the
  /// same protocol run can be replayed under different fault histories
  /// and vice versa.
  std::uint64_t seed = 0;

  /// True if any fault can ever fire. A default-constructed plan is
  /// inactive and leaves the engine's behavior byte-for-byte unchanged.
  [[nodiscard]] bool any() const noexcept {
    return drop_prob > 0 || duplicate_prob > 0 || delay_prob > 0 ||
           reorder_prob > 0 || crash_prob > 0 || !crashes.empty();
  }
};

/// What a self-healing driver had to give up to return a valid matching
/// under a FaultPlan. All-zero/false means the run degraded nowhere.
struct DegradationReport {
  /// A protocol run hit its real-round watchdog budget before quiescing.
  bool budget_exhausted = false;
  /// A protocol invariant threw under faults; the run was abandoned and
  /// the registers healed (never surfaces without an active plan).
  bool contract_tripped = false;
  /// Nodes dead at extraction time.
  std::uint64_t crashed_nodes = 0;
  /// Registers cleared because the partner did not point back (torn,
  /// e.g. an augmentation whose trace-back a fault cut short).
  std::uint64_t torn_registers_healed = 0;
  /// Registers cleared because they sat on (or pointed at) a dead node.
  std::uint64_t dead_registers_healed = 0;

  [[nodiscard]] bool degraded() const noexcept {
    return budget_exhausted || contract_tripped || crashed_nodes > 0 ||
           torn_registers_healed > 0 || dead_registers_healed > 0;
  }

  void merge(const DegradationReport& o) noexcept {
    budget_exhausted = budget_exhausted || o.budget_exhausted;
    contract_tripped = contract_tripped || o.contract_tripped;
    crashed_nodes = std::max(crashed_nodes, o.crashed_nodes);
    torn_registers_healed += o.torn_registers_healed;
    dead_registers_healed += o.dead_registers_healed;
  }
};

namespace fault_detail {

/// Stateless mix of up to four words into one hash (SplitMix64 finalizer
/// chain). The basis of every per-message / per-node fault decision; the
/// salt words that separate those decisions are private to fault.cpp.
std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                  std::uint64_t d) noexcept;

/// Map a hash to a uniform double in [0, 1).
inline double to_unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Per-run fault-stream seed: decorrelates the message-fault draws of
/// successive run() invocations on one plan (`nonce` = run index).
inline std::uint64_t run_seed(std::uint64_t plan_seed,
                              std::uint64_t nonce) noexcept {
  return mix(plan_seed, 0x5eedf417, nonce, 0);
}

/// Precomputed per-node crash schedule. crash_at[v] / restart_at[v] are
/// lifetime rounds (kRoundNever = never); the node executes no step in
/// [crash_at, restart_at).
struct CrashSchedule {
  std::vector<std::uint64_t> crash_at;
  std::vector<std::uint64_t> restart_at;

  [[nodiscard]] bool dead_at(NodeId v, std::uint64_t round) const noexcept {
    const auto vi = static_cast<std::size_t>(v);
    return crash_at[vi] <= round && round < restart_at[vi];
  }
};

/// What a plan does to one message. A dropped message is never also
/// duplicated or delayed; a message can be both duplicated (an extra
/// copy) and delayed (the original is late), each by its own draw.
struct MessageFate {
  bool drop = false;
  /// > 0: an extra copy arrives this many rounds after the normal round.
  int dup_delay = 0;
  /// > 0: the only copy arrives this many rounds after the normal round.
  int late_delay = 0;
};

/// The fate of the message sent in (lifetime) round `round` into the
/// receiver-side port slot `in_slot`, for run seed `fseed`. Every
/// executor takes its drop / duplicate / delay decisions from here and
/// from nowhere else, so one plan yields one fault history.
[[nodiscard]] MessageFate fate(std::uint64_t fseed, std::uint64_t round,
                               std::uint64_t in_slot,
                               const FaultPlan& plan) noexcept;

/// The reorder fault for node `v`'s inbox in (lifetime) round `round`:
/// with probability plan.reorder_prob the inbox is permuted in place by
/// a seed-derived shuffle. Returns true iff it was reordered (inboxes of
/// fewer than two messages never are).
bool shuffle_inbox(std::uint64_t fseed, std::uint64_t round, NodeId v,
                   std::span<Envelope> inbox, const FaultPlan& plan) noexcept;

/// Draw the full crash schedule for `n` nodes from the plan seed, then
/// layer the explicitly scheduled CrashEvents on top — every executor
/// built with the same plan agrees on who dies when, before a single
/// round runs. Requires all scheduled nodes < n and restart > crash.
CrashSchedule compute_crash_schedule(const FaultPlan& plan, NodeId n);

}  // namespace fault_detail

}  // namespace dmatch::congest
