#include "congest/network.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <utility>

#include "support/assert.hpp"

namespace dmatch::congest {

Network::Network(const Graph& g, Model model, std::uint64_t seed,
                 std::uint32_t congest_factor)
    : Network(g, model, seed, congest_factor, Options()) {}

Network::Network(const Graph& g, Model model, std::uint64_t seed,
                 std::uint32_t congest_factor, Options options)
    : g_(&g),
      model_(model),
      cap_bits_(kernel::message_cap_bits(g.node_count(), congest_factor)),
      options_(std::move(options)) {
  const auto n = static_cast<std::size_t>(g.node_count());
  num_threads_ = options_.num_threads != 0
                     ? options_.num_threads
                     : std::max(1u, std::thread::hardware_concurrency());
  sched_ = std::make_unique<support::Scheduler>(num_threads_, options_.sched);
  // Shard count is frozen here: one shard for one worker, several
  // stealable blocks per worker otherwise. Results are shard-layout
  // independent, so thread counts with different shard counts still
  // produce bit-identical runs.
  num_shards_ = sched_->plan_tasks(n);

  // Slot-offset prefix sums stay sequential (a scan), but the per-node
  // RNG forks and the cross-endpoint peer tables are embarrassingly
  // parallel: each worker fills contiguous node shards, and every entry
  // is a pure function of (seed, graph), so the tables are identical for
  // any worker count.
  const Rng root(seed);
  node_rng_.reset(n, num_shards_, Rng(0));
  mate_port_.reset(n, num_shards_, -1);
  gates_.reset(n, num_shards_, kernel::NodeGate{});
  ports_.init(g);
  sched_->run_tasks(num_shards_, [this, &g, &root](unsigned s) {
    Rng* const rngs = node_rng_.shard_view(s);
    const auto [vb, ve] = node_rng_.range(s);
    for (std::size_t vi = vb; vi < ve; ++vi) {
      rngs[vi] = root.fork(static_cast<std::uint64_t>(vi));
    }
    ports_.fill(g, vb, ve);
  });
  mail_.resize(ports_.slots());

  // Precompute the whole crash schedule from the plan seed so every
  // Network built with the same plan — at any thread count — agrees on
  // who dies when, before a single round executes.
  fault_active_ = options_.fault.any();
  if (fault_active_) {
    crashes_ = kernel::CrashTable(options_.fault, g.node_count(), 0,
                                  g.node_count());
  }
}

RunStats Network::run(const ProcessFactory& factory, int max_rounds) {
  DMATCH_EXPECTS(max_rounds >= 0);
  const Graph& g = *g_;
  const auto n = static_cast<std::size_t>(g.node_count());

  // Every fault decision is a pure hash of (fseed, round, slot-or-node),
  // so the injected history is a function of the plan alone — identical
  // for every thread count.
  const bool faults = fault_active_;
  const std::uint64_t base_round = lifetime_rounds_;
  const std::uint64_t fseed =
      faults ? fault_detail::run_seed(options_.fault.seed, fault_nonce_++) : 0;

  renormalize_epochs();
  if (options_.sched.profile) sched_->reset_profile();

  const unsigned num_shards = num_shards_;
  const auto shard_of = [n, num_shards](NodeId v) {
    return support::balanced_part_of(n, num_shards,
                                     static_cast<std::size_t>(v));
  };

  std::vector<std::unique_ptr<Process>> procs(n);
  const kernel::Run krun{g, model_, cap_bits_, ports_, mail_, factory, procs,
                         faults, options_.fault, crashes_, fseed,
                         base_round};
  std::vector<kernel::Lane> lanes(num_shards);
  std::vector<std::exception_ptr> errors(num_shards);
  // Activity boxes: box(src, dst) carries the ids of nodes in shard dst
  // that shard src delivered a message to; the payloads themselves go
  // straight into the port slots. Drained by dst at the routing barrier.
  // Faulty (delayed / duplicated) deliveries carry their payload along
  // in the same shape, since they bypass the port slots.
  std::vector<std::vector<NodeId>> boxes(
      static_cast<std::size_t>(num_shards) * num_shards);
  std::vector<std::vector<kernel::Parked>> parked_boxes(
      faults ? static_cast<std::size_t>(num_shards) * num_shards : 0);
  const auto box_index = [num_shards](unsigned src, unsigned dst) {
    return static_cast<std::size_t>(src) * num_shards + dst;
  };

  // Shard-major construction visits nodes in global ascending order
  // while touching each register segment exactly once.
  for (unsigned s = 0; s < num_shards; ++s) {
    kernel::Lane& lane = lanes[s];
    lane.regs = mate_port_.shard_view(s);
    lane.rngs = node_rng_.shard_view(s);
    lane.gates = gates_.shard_view(s);
    lane.ring.reset(kernel::delay_window(faults, options_.fault));
    const auto [vb, ve] = mate_port_.range(s);
    kernel::spawn(krun, lane, vb, ve, base_round);
  }

  RunStats stats;
  std::atomic<bool> failed{false};
  std::uint64_t routed_before = 0;

#ifndef DMATCH_OBS_DISABLED
  // Observability attach: per-shard single-writer handles, a `profiled`
  // flag saying whether this run's graph feeds the link profiler, and
  // (under faults only) per-round snapshots so an aborted partial round
  // never leaks shard-layout-dependent events or counts.
  obs::Observer* const observer = options_.observer;
  const bool profiled =
      observer != nullptr && observer->begin_run(num_shards, g);
  const std::uint64_t run_start_clock =
      observer != nullptr ? observer->clock() : 0;
  if (observer != nullptr) {
    for (unsigned s = 0; s < num_shards; ++s) {
      lanes[s].sobs = observer->shard(s);
    }
  }
  std::uint64_t obs_bits_before = 0;
  std::vector<std::vector<std::uint64_t>> obs_slab_snap;
  std::vector<obs::TraceSink::Mark> obs_trace_marks(num_shards);
  obs::CongestionProfiler::LinkSnapshot obs_link_snap;
#endif

  // The step router: next-round deliveries go straight into the shared
  // port slots (each slot has exactly one writer) and announce their
  // receiver in the destination shard's box.
  struct ShardRouter {
    kernel::Mailboxes& mail;
    std::vector<std::vector<NodeId>>& boxes;
    std::vector<std::vector<kernel::Parked>>& parked_boxes;
    const decltype(shard_of)& dst_shard;
    std::size_t row;  // box_index(src, 0)
    void deliver(NodeId u, std::size_t in_slot, Message&& msg) {
      mail.post(in_slot, std::move(msg));
      boxes[row + dst_shard(u)].push_back(u);
    }
    void park(kernel::Parked&& p) {
      parked_boxes[row + dst_shard(p.node)].push_back(std::move(p));
    }
  };

  const auto step_shard = [&](int round) {
    return [&, round](unsigned s) {
      ShardRouter router{mail_, boxes, parked_boxes, shard_of,
                         box_index(s, 0)};
      try {
        kernel::step(krun, lanes[s], round, router, failed);
      } catch (...) {
        errors[s] = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    };
  };

  const auto route_shard = [&](int round) {
    return [&, round](unsigned t) {
      kernel::Lane& lane = lanes[t];
      const std::uint32_t next_epoch = mail_.epoch + 1;
      for (unsigned s = 0; s < num_shards; ++s) {
        std::vector<NodeId>& box = boxes[box_index(s, t)];
        for (const NodeId u : box) kernel::arrive(lane, u, next_epoch);
        box.clear();
      }
      if (!faults) return;
      for (unsigned s = 0; s < num_shards; ++s) {
        std::vector<kernel::Parked>& box = parked_boxes[box_index(s, t)];
        for (kernel::Parked& p : box) lane.ring.park(std::move(p));
        box.clear();
      }
      kernel::settle(krun, lane, round,
                     [&](NodeId u) { return shard_of(u) == t; });
    };
  };

  // Quiescent = nothing scheduled and (under faults) nothing parked in
  // a delay ring.
  const auto all_idle = [&] {
    return std::all_of(lanes.begin(), lanes.end(), [](const auto& l) {
      return l.active.empty() && l.ring.pending() == 0;
    });
  };

  // On every exit (including exceptions) jump the epoch past both mailbox
  // buffers so no stale message or pending mark can leak into a later run.
  const auto invalidate_state = [&] {
    mail_.epoch += 2;
    gates_.fill(kernel::NodeGate{});
  };

  // Under faults, a protocol abort (its invariants may legitimately break)
  // must leave deterministic registers: shards step independently until the
  // barrier, so the aborted round's partial writes depend on the shard
  // layout. Snapshot at round start and roll back on abort.
  std::vector<int> reg_snapshot;

  int executed = 0;
  bool quiesced = false;
  for (; executed < max_rounds; ++executed) {
    quiesced = all_idle();
    if (quiesced) break;
    // Between rounds is the other safe renormalization point, covering
    // single runs long enough to approach the 32-bit epoch ceiling.
    renormalize_epochs();

#ifndef DMATCH_OBS_DISABLED
    if (observer != nullptr) {
      const std::uint64_t now = observer->clock();
      std::uint64_t scheduled = 0;
      for (kernel::Lane& lane : lanes) {
        lane.sobs->now = now;
        scheduled += lane.active.size();
      }
      if (faults) {
        // Snapshot before emitting anything, so an aborted round rolls
        // back to a state with no trace of the round at all.
        obs_slab_snap = observer->metrics().snapshot();
        for (unsigned s = 0; s < num_shards; ++s) {
          obs_trace_marks[s] = observer->trace_sink().mark(s);
        }
        if (profiled) obs_link_snap = observer->profiler().snapshot_links();
      }
      lanes[0].sobs->trace(obs::EventType::kRoundStart, 0, scheduled);
    }
#endif

    if (faults) mate_port_.copy_to(reg_snapshot);
    sched_->run_tasks(num_shards, step_shard(executed));
    if (failed.load(std::memory_order_relaxed)) {
      if (faults) mate_port_.assign_from(reg_snapshot);
#ifndef DMATCH_OBS_DISABLED
      if (observer != nullptr && faults) {
        observer->metrics().restore(obs_slab_snap);
        for (unsigned s = 0; s < num_shards; ++s) {
          observer->trace_sink().rewind(s, std::move(obs_trace_marks[s]));
        }
        if (profiled) observer->profiler().restore_links(obs_link_snap);
      }
#endif
      invalidate_state();
      lifetime_rounds_ = base_round + static_cast<std::uint64_t>(executed);
      for (const std::exception_ptr& error : errors) {
        if (error != nullptr) std::rethrow_exception(error);
      }
    }
    sched_->run_tasks(num_shards, route_shard(executed));

    std::uint64_t routed = 0;
    for (const kernel::Lane& lane : lanes) routed += lane.stats.messages;
    const std::uint64_t sent = routed - routed_before;
    stats.round_messages.push_back(sent);
    routed_before = routed;
    ++stats.rounds;

#ifndef DMATCH_OBS_DISABLED
    if (observer != nullptr) {
      std::uint64_t bits = 0;
      for (const kernel::Lane& lane : lanes) bits += lane.stats.total_bits;
      obs::ShardObs* const o = lanes[0].sobs;
      o->trace(obs::EventType::kRoundEnd, 0, sent, bits - obs_bits_before);
      o->observe(o->ids().engine_round_messages_hist, sent);
      o->bits_hist_totals(sent, bits - obs_bits_before);
      observer->profiler().round_end(sent, bits - obs_bits_before);
      obs_bits_before = bits;
      observer->advance_clock();
    }
#endif

    mail_.advance();
    for (kernel::Lane& lane : lanes) {
      std::swap(lane.active, lane.next_active);
      lane.next_active.clear();
    }
  }

  if (!quiesced) {
    // Budget exhausted: completed only if nothing is pending.
    quiesced = all_idle();
  }
  stats.completed = quiesced;
  const std::uint64_t end_round =
      base_round + static_cast<std::uint64_t>(executed);
  if (faults) {
    // Deliveries still parked when the budget ran out are lost: the next
    // run starts with fresh rings. Restarts were counted at their wakeups.
    for (kernel::Lane& lane : lanes) {
      lane.stats.dropped_messages += lane.ring.pending();
    }
    stats.crashed_nodes =
        crashes_.crashes_between(base_round, end_round, 0, g.node_count());
  }
  for (const kernel::Lane& lane : lanes) stats.merge(lane.stats);

#ifndef DMATCH_OBS_DISABLED
  if (observer != nullptr) {
    obs::ShardObs& o = *lanes[0].sobs;
    if (faults) {
      kernel::trace_crash_history(o, crashes_.schedule(), base_round,
                                  end_round, run_start_clock);
    }
    kernel::export_run_totals(o, stats);
    // Engine-side half of the round-accounting cross-check (the full
    // check lives in core/verify): the profiler's curve tail must
    // replicate RunStats.round_messages exactly.
    const auto& curve = observer->profiler().round_messages();
    DMATCH_ASSERT(curve.size() >= stats.round_messages.size());
    const std::size_t tail = curve.size() - stats.round_messages.size();
    for (std::size_t i = 0; i < stats.round_messages.size(); ++i) {
      DMATCH_ASSERT(curve[tail + i] == stats.round_messages[i]);
    }
    // Scheduling profile export. Wall-clock service times are inherently
    // non-deterministic, so this is opt-in: without sched.profile the
    // deterministic-artifact guarantee (byte-identical traces/metrics
    // across thread counts and modes) holds unconditionally.
    if (options_.sched.profile) {
      const auto& service = sched_->task_service_ns();
      for (unsigned t = 0; t < num_shards && t < service.size(); ++t) {
        o.trace(obs::EventType::kSchedShard, t, service[t]);
        o.observe(o.ids().sched_shard_service_ns, service[t]);
      }
    }
  }
#endif

  invalidate_state();
  lifetime_rounds_ = end_round;
  total_.merge(stats);
  return stats;
}

Matching Network::extract_matching() const {
  const Graph& g = *g_;
  Matching m(g.node_count());
  // Parallel scan, deterministic reduction: each task checks and
  // collects the matched edges (as seen from their lower endpoint) of
  // its contiguous node shard; the driver then applies the per-shard
  // lists in shard order, which is exactly the sequential v-ascending
  // order. Contract trips are captured per shard and rethrown lowest
  // shard first (the scheduler's contract), so the thrown violation is
  // thread-count-independent. The scan reads a flat register snapshot:
  // the consistency check follows v -> mate -> back, crossing shard
  // boundaries, and a flat copy keeps that random access cheap.
  const unsigned tasks = num_shards_;
  std::vector<int> reg;
  mate_port_.copy_to(reg);
  std::vector<std::vector<EdgeId>> found(tasks);
  const auto scan = [&](unsigned w) {
    const auto [vb, ve] = support::balanced_range(
        static_cast<std::size_t>(g.node_count()), tasks, w);
    for (std::size_t vi = vb; vi < ve; ++vi) {
      const auto v = static_cast<NodeId>(vi);
      const int port = reg[vi];
      if (port < 0) continue;
      DMATCH_EXPECTS(port < g.degree(v));
      const EdgeId e = g.incident_edges(v)[static_cast<std::size_t>(port)];
      const NodeId u = g.other_endpoint(e, v);
      // Register consistency: u must point back along the same edge.
      const int uport = reg[static_cast<std::size_t>(u)];
      DMATCH_EXPECTS(uport >= 0);
      DMATCH_EXPECTS(
          g.incident_edges(u)[static_cast<std::size_t>(uport)] == e);
      if (v < u) found[w].push_back(e);
    }
  };
  sched_->run_tasks(tasks, scan);
  for (unsigned w = 0; w < tasks; ++w) {
    for (const EdgeId e : found[w]) m.add(g, e);
  }
  DMATCH_ENSURES(m.is_valid(g));
  return m;
}

Matching Network::extract_matching_resilient(DegradationReport* report) const {
  const Graph& g = *g_;
  Matching m(g.node_count());
  DegradationReport scratch;
  DegradationReport& rep = report != nullptr ? *report : scratch;
  // Same parallel scan + shard-ordered reduction as extract_matching;
  // never throws. The heal tallies are sums, so adding the per-shard
  // partials in any fixed order reproduces the sequential counts.
  const unsigned workers = num_shards_;
  std::vector<int> reg;
  mate_port_.copy_to(reg);
  std::vector<std::vector<EdgeId>> found(workers);
  std::vector<std::uint64_t> dead_part(workers, 0);
  std::vector<std::uint64_t> dead_healed_part(workers, 0);
  std::vector<std::uint64_t> torn_healed_part(workers, 0);
  const auto scan = [&, this](unsigned w) {
    const auto [vb, ve] = support::balanced_range(
        static_cast<std::size_t>(g.node_count()), workers, w);
    for (std::size_t vi = vb; vi < ve; ++vi) {
      const auto v = static_cast<NodeId>(vi);
      if (node_dead(v)) {
        ++dead_part[w];
        if (reg[vi] >= 0) ++dead_healed_part[w];
        continue;
      }
      const int port = reg[vi];
      if (port < 0) continue;
      const EdgeId e = g.incident_edges(v)[static_cast<std::size_t>(port)];
      const NodeId u = g.other_endpoint(e, v);
      if (node_dead(u)) {
        ++dead_healed_part[w];
        continue;
      }
      const int uport = reg[static_cast<std::size_t>(u)];
      const bool consistent =
          uport >= 0 &&
          g.incident_edges(u)[static_cast<std::size_t>(uport)] == e;
      if (!consistent) {
        ++torn_healed_part[w];
        continue;
      }
      if (v < u) found[w].push_back(e);
    }
  };
  sched_->run_tasks(workers, scan);
  // crashed_nodes is a high-water mark (a dead node stays dead), so count
  // this pass locally and max it in; repeated extractions must not inflate.
  std::uint64_t dead_now = 0;
  for (unsigned w = 0; w < workers; ++w) {
    dead_now += dead_part[w];
    rep.dead_registers_healed += dead_healed_part[w];
    rep.torn_registers_healed += torn_healed_part[w];
    for (const EdgeId e : found[w]) m.add(g, e);
  }
  rep.crashed_nodes = std::max(rep.crashed_nodes, dead_now);
  DMATCH_ENSURES(m.is_valid(g));
  return m;
}

Matching Network::extract_matching_resilient(std::span<const NodeId> dirty,
                                             const Matching& base,
                                             DegradationReport* report) const {
  const Graph& g = *g_;
  DMATCH_EXPECTS(base.node_count() == g.node_count());
  DMATCH_EXPECTS(std::is_sorted(dirty.begin(), dirty.end()));
  DegradationReport scratch;
  DegradationReport& rep = report != nullptr ? *report : scratch;
  Matching m = base;
  // Pass 1: drop every base pair that involves a dirty node — its half of
  // the pair is about to be re-read from the registers, and removing
  // before re-adding keeps Matching::add's both-free precondition intact.
  for (const NodeId v : dirty) {
    if (m.is_matched(v)) m.remove(g, m.matched_edge(v));
  }
  // Pass 2: re-validate exactly the dirty registers, with the same heal
  // rules as the full scan (dead nodes, dead partners, torn pointers).
  // A clean partner whose register disagrees (it still points at a third
  // node) fails the consistency check and the pair is skipped, so the
  // caller contract — clean registers agree with base — is the only
  // thing trusted, never re-derived state.
  std::uint64_t dead_now = 0;
  for (const NodeId v : dirty) {
    const auto vi = static_cast<std::size_t>(v);
    const int port = mate_port_.at(vi);
    if (node_dead(v)) {
      ++dead_now;
      if (port >= 0) ++rep.dead_registers_healed;
      continue;
    }
    if (port < 0) continue;
    const EdgeId e = g.incident_edges(v)[static_cast<std::size_t>(port)];
    const NodeId u = g.other_endpoint(e, v);
    if (node_dead(u)) {
      ++rep.dead_registers_healed;
      continue;
    }
    const int uport = mate_port_.at(static_cast<std::size_t>(u));
    const bool consistent =
        uport >= 0 && g.incident_edges(u)[static_cast<std::size_t>(uport)] == e;
    if (!consistent) {
      ++rep.torn_registers_healed;
      continue;
    }
    // Add each surviving pair once: at the lower endpoint when both are
    // dirty (the higher endpoint's iteration skips), else at the dirty one.
    if (std::binary_search(dirty.begin(), dirty.end(), u) && v > u) continue;
    if (!m.is_matched(v) && !m.is_matched(u)) m.add(g, e);
  }
  rep.crashed_nodes = std::max(rep.crashed_nodes, dead_now);
  // No full is_valid() postcondition here: the point of this overload is
  // O(|dirty| · deg), and Matching::add/remove already enforce pair
  // consistency on every mutation above.
  return m;
}

void heal_register_image(const Graph& g, std::vector<int>& reg,
                         const std::vector<char>& dead,
                         DegradationReport* report) {
  DMATCH_EXPECTS(reg.size() == static_cast<std::size_t>(g.node_count()));
  DMATCH_EXPECTS(dead.size() == reg.size());
  DegradationReport scratch;
  DegradationReport& rep = report != nullptr ? *report : scratch;
  const auto n = reg.size();
  std::uint64_t dead_now = 0;
  for (std::size_t vi = 0; vi < n; ++vi) {
    if (dead[vi]) ++dead_now;
  }
  rep.crashed_nodes = std::max(rep.crashed_nodes, dead_now);
  // Decide against the frozen image, then clear: clearing v in place
  // would make a consistent partner look torn within the same pass.
  std::vector<char> clear(n, 0);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto vi = static_cast<std::size_t>(v);
    const int port = reg[vi];
    if (port < 0) continue;
    if (dead[vi]) {
      clear[vi] = 1;
      ++rep.dead_registers_healed;
      continue;
    }
    const EdgeId e = g.incident_edges(v)[static_cast<std::size_t>(port)];
    const NodeId u = g.other_endpoint(e, v);
    if (dead[static_cast<std::size_t>(u)]) {
      clear[vi] = 1;
      ++rep.dead_registers_healed;
      continue;
    }
    const int uport = reg[static_cast<std::size_t>(u)];
    const bool consistent =
        uport >= 0 &&
        g.incident_edges(u)[static_cast<std::size_t>(uport)] == e;
    if (!consistent) {
      clear[vi] = 1;
      ++rep.torn_registers_healed;
    }
  }
  for (std::size_t vi = 0; vi < n; ++vi) {
    if (clear[vi]) reg[vi] = -1;
  }
}

Matching extract_matching_from_image(const Graph& g,
                                     std::span<const int> reg) {
  DMATCH_EXPECTS(reg.size() == static_cast<std::size_t>(g.node_count()));
  Matching m(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto vi = static_cast<std::size_t>(v);
    const int port = reg[vi];
    if (port < 0) continue;
    DMATCH_EXPECTS(port < g.degree(v));
    const EdgeId e = g.incident_edges(v)[static_cast<std::size_t>(port)];
    const NodeId u = g.other_endpoint(e, v);
    const int uport = reg[static_cast<std::size_t>(u)];
    DMATCH_EXPECTS(uport >= 0);
    DMATCH_EXPECTS(g.incident_edges(u)[static_cast<std::size_t>(uport)] == e);
    if (v < u) m.add(g, e);
  }
  DMATCH_ENSURES(m.is_valid(g));
  return m;
}

void Network::heal_registers(DegradationReport* report) {
  const Graph& g = *g_;
  const auto n = static_cast<std::size_t>(g.node_count());
  // The image-based core does the work; this wrapper supplies the
  // crash-schedule dead mask and writes the healed snapshot back to the
  // register slabs wholesale.
  std::vector<int> reg;
  mate_port_.copy_to(reg);
  std::vector<char> dead(n, 0);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (node_dead(v)) dead[static_cast<std::size_t>(v)] = 1;
  }
  heal_register_image(g, reg, dead, report);
  mate_port_.assign_from(reg);
}

void Network::set_matching(const Matching& m) {
  const Graph& g = *g_;
  DMATCH_EXPECTS(m.node_count() == g.node_count());
  DMATCH_EXPECTS(m.is_valid(g));
  std::vector<int> reg(static_cast<std::size_t>(g.node_count()));
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const EdgeId e = m.matched_edge(v);
    reg[static_cast<std::size_t>(v)] =
        e == kNoEdge ? -1 : g.port_of_edge(v, e);
  }
  mate_port_.assign_from(reg);
}

std::size_t Network::restore_registers(std::span<const int> image) {
  DMATCH_EXPECTS(image.size() == static_cast<std::size_t>(g_->node_count()));
  // Shard-major walk through the slab segments (same idiom as process
  // construction): each register is compared in place and rewritten only
  // if it drifted, so a rollback after a short aborted stage touches
  // O(dirty) cache lines instead of the whole register file.
  std::size_t dirty = 0;
  for (unsigned s = 0; s < num_shards_; ++s) {
    int* const regs = mate_port_.shard_view(s);
    const auto [vb, ve] = mate_port_.range(s);
    for (std::size_t vi = vb; vi < ve; ++vi) {
      if (regs[vi] != image[vi]) {
        regs[vi] = image[vi];
        ++dirty;
      }
    }
  }
  return dirty;
}

void Network::renormalize_epochs() {
  // Callable only between rounds or between runs, where the scheduling
  // marks are stale by construction; the receive counters stay live.
  if (!mail_.renormalize_if_due()) return;
  for (unsigned s = 0; s < gates_.shards(); ++s) {
    kernel::NodeGate* const gates = gates_.shard_view(s);
    const auto [vb, ve] = gates_.range(s);
    for (std::size_t vi = vb; vi < ve; ++vi) gates[vi].mark = 0;
  }
}

}  // namespace dmatch::congest
