#include "congest/fault.hpp"

#include <cmath>
#include <utility>

#include "support/assert.hpp"
#include "support/rng.hpp"

namespace dmatch::congest::fault_detail {

namespace {

constexpr std::uint64_t finalize(std::uint64_t z) noexcept {
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z;
}

}  // namespace

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                  std::uint64_t d) noexcept {
  std::uint64_t h = finalize(a + 0x9e3779b97f4a7c15ULL);
  h = finalize(h ^ (b + 0x9e3779b97f4a7c15ULL));
  h = finalize(h ^ (c + 0x9e3779b97f4a7c15ULL));
  h = finalize(h ^ (d + 0x9e3779b97f4a7c15ULL));
  return h;
}

namespace {

// Salt words separating the independent per-message / per-node fault
// decisions derived from one (seed, nonce, round, slot) hash.
constexpr std::uint64_t kSaltDrop = 0xd509;
constexpr std::uint64_t kSaltDelay = 0xde1a;
constexpr std::uint64_t kSaltDelayAmount = 0xde1b;
constexpr std::uint64_t kSaltDup = 0xd0b1;
constexpr std::uint64_t kSaltDupAmount = 0xd0b2;
constexpr std::uint64_t kSaltReorder = 0x5eff;
constexpr std::uint64_t kSaltCrash = 0xc4a5;
constexpr std::uint64_t kSaltCrashRound = 0xc4a6;
constexpr std::uint64_t kSaltRestart = 0xc4a7;

/// Extra-delay magnitude in rounds, in [1, max(1, plan.max_delay)], drawn
/// from the plan's delay model; `h` is the salted amount hash. Under
/// kUniform this is the historical `1 + h % max_delay` draw.
int delay_amount(std::uint64_t h, const FaultPlan& plan) noexcept {
  const int max_d = std::max(1, plan.max_delay);
  if (plan.delay_model == DelayModel::kPareto) {
    // Truncated Pareto(scale 1, shape alpha) via inverse CDF on a
    // uniform draw, floored to whole rounds. The floor keeps the mass
    // at 1 round high while the tail reaches max_delay with probability
    // ~ max_delay^-alpha — a straggler model, not a shifted uniform.
    const double alpha = plan.pareto_alpha > 0 ? plan.pareto_alpha : 1.1;
    const double x = std::pow(1.0 - to_unit(h), -1.0 / alpha);
    if (!(x < static_cast<double>(max_d))) return max_d;
    const int d = static_cast<int>(x);
    return d < 1 ? 1 : d;
  }
  return 1 + static_cast<int>(h % static_cast<std::uint64_t>(max_d));
}

bool below(std::uint64_t h, std::uint64_t salt, double prob) noexcept {
  return prob > 0 && to_unit(mix(h, salt, 0, 0)) < prob;
}

}  // namespace

MessageFate fate(std::uint64_t fseed, std::uint64_t round,
                 std::uint64_t in_slot, const FaultPlan& plan) noexcept {
  const std::uint64_t h = mix(fseed, round, in_slot, 0);
  MessageFate f;
  if (below(h, kSaltDrop, plan.drop_prob)) {
    f.drop = true;
    return f;
  }
  if (below(h, kSaltDup, plan.duplicate_prob)) {
    f.dup_delay = delay_amount(mix(h, kSaltDupAmount, 0, 0), plan);
  }
  if (below(h, kSaltDelay, plan.delay_prob)) {
    f.late_delay = delay_amount(mix(h, kSaltDelayAmount, 0, 0), plan);
  }
  return f;
}

bool shuffle_inbox(std::uint64_t fseed, std::uint64_t round, NodeId v,
                   std::span<Envelope> inbox, const FaultPlan& plan) noexcept {
  if (plan.reorder_prob <= 0 || inbox.size() < 2) return false;
  std::uint64_t state =
      mix(fseed, kSaltReorder, round, static_cast<std::uint64_t>(v));
  if (to_unit(state) >= plan.reorder_prob) return false;
  for (std::size_t i = inbox.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(splitmix64(state) % (i + 1));
    std::swap(inbox[i], inbox[j]);
  }
  return true;
}

CrashSchedule compute_crash_schedule(const FaultPlan& plan, NodeId n) {
  CrashSchedule sched;
  const auto nn = static_cast<std::size_t>(n);
  sched.crash_at.assign(nn, kRoundNever);
  sched.restart_at.assign(nn, kRoundNever);
  if (plan.crash_prob > 0) {
    const std::uint64_t bound =
        std::max<std::uint64_t>(1, plan.crash_round_bound);
    for (NodeId v = 0; v < n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (to_unit(mix(plan.seed, kSaltCrash, v, 0)) >= plan.crash_prob) {
        continue;
      }
      sched.crash_at[vi] = mix(plan.seed, kSaltCrashRound, v, 0) % bound;
      if (plan.restart_prob > 0 &&
          to_unit(mix(plan.seed, kSaltRestart, v, 0)) < plan.restart_prob) {
        sched.restart_at[vi] =
            sched.crash_at[vi] + std::max<std::uint64_t>(1, plan.restart_delay);
      }
    }
  }
  for (const CrashEvent& ev : plan.crashes) {
    DMATCH_EXPECTS(ev.node < n);
    DMATCH_EXPECTS(ev.restart_round == kRoundNever ||
                   ev.restart_round > ev.round);
    const auto vi = static_cast<std::size_t>(ev.node);
    sched.crash_at[vi] = ev.round;
    sched.restart_at[vi] = ev.restart_round;
  }
  return sched;
}

}  // namespace dmatch::congest::fault_detail
