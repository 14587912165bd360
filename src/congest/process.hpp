// The node-program interface of the synchronous message-passing model.
//
// One Process instance runs at each node. In every round the Network calls
// on_round with the messages that neighbors sent in the previous round; the
// process may send messages through the Context, update its local state,
// and update its matching output register. A protocol terminates when every
// process reports halted and no message is in flight. RunStats is what one
// such run costs, the quantity CONGEST complexity statements are about.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "congest/message.hpp"
#include "graph/graph.hpp"
#include "support/rng.hpp"

namespace dmatch::obs {
class ShardObs;
}  // namespace dmatch::obs

namespace dmatch::congest {

/// Per-node view of the network, provided by the simulator. Exposes only
/// information a CONGEST node legitimately has: its id, its ports, the ids
/// and edge weights of its neighbors, a global bound on n (standard
/// assumption: nodes know W_max with log W_max = O(log n)), a private
/// random stream, and its output register.
class Context {
 public:
  virtual ~Context() = default;

  [[nodiscard]] virtual NodeId id() const = 0;
  [[nodiscard]] virtual int degree() const = 0;
  [[nodiscard]] virtual NodeId neighbor_id(int port) const = 0;
  [[nodiscard]] virtual Weight edge_weight(int port) const = 0;

  /// Common upper bound on the number of nodes / identifier values.
  [[nodiscard]] virtual NodeId n_bound() const = 0;

  /// Current round number (0-based within the running protocol).
  [[nodiscard]] virtual int round() const = 0;

  /// This node's private randomness.
  virtual Rng& rng() = 0;

  /// Queue a message for delivery to the neighbor on `port` next round.
  /// At most one message per port per round; over-cap messages throw in
  /// CONGEST mode.
  virtual void send(int port, Message msg) = 0;

  /// Matching output register: the port of the matched edge, or -1.
  [[nodiscard]] virtual int mate_port() const = 0;
  virtual void set_mate_port(int port) = 0;
  virtual void clear_mate() = 0;

  /// Observability handle of the shard executing this node, or nullptr
  /// when no Observer is attached. Not part of the CONGEST model —
  /// wrappers (e.g. the resilient transport) use it to emit trace events
  /// without widening the protocol interface.
  [[nodiscard]] virtual obs::ShardObs* obs() noexcept { return nullptr; }
};

class Process {
 public:
  virtual ~Process() = default;

  /// Execute one synchronous round. `inbox` holds the messages sent to this
  /// node in the previous round, in ascending port order.
  virtual void on_round(Context& ctx, std::span<const Envelope> inbox) = 0;

  /// True once this node will neither send nor change state again.
  [[nodiscard]] virtual bool halted() const = 0;
};

enum class Model { kCongest, kLocal };

/// Thrown when a protocol sends a message exceeding the CONGEST cap.
class MessageTooLarge : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct RunStats {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t total_bits = 0;
  std::uint32_t max_message_bits = 0;
  bool completed = true;  // all nodes halted before the round budget ran out
  /// Messages sent in each executed round (size == rounds); the per-round
  /// histogram behind `messages`, so sum(round_messages) == messages.
  std::vector<std::uint64_t> round_messages;

  // Fault-injection counters (all zero unless the Network carries an
  // active FaultPlan). Drops count messages lost in transit plus
  // deliveries discarded because the receiver was dead.
  std::uint64_t dropped_messages = 0;
  std::uint64_t duplicated_messages = 0;
  std::uint64_t delayed_messages = 0;
  std::uint64_t reordered_inboxes = 0;
  std::uint64_t crashed_nodes = 0;    // crash rounds inside this run
  std::uint64_t restarted_nodes = 0;  // restart rounds inside this run

  void merge(const RunStats& other) {
    rounds += other.rounds;
    messages += other.messages;
    total_bits += other.total_bits;
    max_message_bits = std::max(max_message_bits, other.max_message_bits);
    completed = completed && other.completed;
    round_messages.insert(round_messages.end(), other.round_messages.begin(),
                          other.round_messages.end());
    dropped_messages += other.dropped_messages;
    duplicated_messages += other.duplicated_messages;
    delayed_messages += other.delayed_messages;
    reordered_inboxes += other.reordered_inboxes;
    crashed_nodes += other.crashed_nodes;
    restarted_nodes += other.restarted_nodes;
  }

  /// Element-wise aggregate of parallel shards of ONE run (the
  /// multi-process engine's coordinator view): counts add, rounds and
  /// the message cap take the max, completion ANDs, and round_messages
  /// adds per round — so summing every rank's share reproduces the
  /// single-process RunStats of the same run exactly. Contrast with
  /// merge(), which composes *sequential* runs. Shards legitimately
  /// report histograms of different lengths (a rank whose range quiesces
  /// early executes fewer rounds), so mismatched round_messages sizes
  /// merge by resize-to-longest, never by truncation — missing trailing
  /// rounds count as zero messages. Locked by the
  /// Counting.AccumulateMergesMismatchedHistograms regression test.
  void accumulate(const RunStats& other) {
    rounds = std::max(rounds, other.rounds);
    messages += other.messages;
    total_bits += other.total_bits;
    max_message_bits = std::max(max_message_bits, other.max_message_bits);
    completed = completed && other.completed;
    if (round_messages.size() < other.round_messages.size()) {
      round_messages.resize(other.round_messages.size(), 0);
    }
    for (std::size_t i = 0; i < other.round_messages.size(); ++i) {
      round_messages[i] += other.round_messages[i];
    }
    dropped_messages += other.dropped_messages;
    duplicated_messages += other.duplicated_messages;
    delayed_messages += other.delayed_messages;
    reordered_inboxes += other.reordered_inboxes;
    crashed_nodes += other.crashed_nodes;
    restarted_nodes += other.restarted_nodes;
  }

  /// Rounds after charging over-cap messages as pipelined chunks: a
  /// round whose largest message used b bits counts as ceil(b / cap)
  /// rounds. This is how DESIGN.md normalizes the token messages.
  [[nodiscard]] std::uint64_t normalized_rounds(
      std::uint32_t cap_bits) const noexcept {
    if (cap_bits == 0 || max_message_bits <= cap_bits) return rounds;
    const std::uint64_t factor =
        (max_message_bits + cap_bits - 1) / cap_bits;
    return rounds * factor;
  }
};

/// Node-program factory. Returning nullptr *parks* the node for this
/// run: it keeps its output register but holds no protocol state, is
/// never scheduled, and silently discards anything addressed to it —
/// the zero-allocation form of a process that is born halted. Drivers
/// that re-run protocols on a small region of a large persistent
/// network (src/dyn) park everything outside the region this way, so a
/// multi-phase repair pays per-run cost proportional to the region.
using ProcessFactory =
    std::function<std::unique_ptr<Process>(NodeId, const Graph&)>;

}  // namespace dmatch::congest
