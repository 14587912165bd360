// Allocation regression guard for the CONGEST message path.
//
// CONGEST messages are O(log n) bits and live inline in congest::Message
// (support/wire.hpp's WordStore), so building, sending, routing and
// reading one must not touch the heap. This executable replaces the
// global operator new with a counting one and runs a fault-free one-bit
// flood twice on the same Network: the second run measures steady state
// (mailboxes, lanes and the dispatcher are already sized), where the
// only allocations left are per-run ones such as the node processes.
// A per-message allocation would put the count at or above the message
// count; the guard allows one allocation per eight messages.
//
// Its own executable because replacing operator new is program-wide.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>

#include "congest/network.hpp"
#include "graph/generators.hpp"
#include "support/wire.hpp"

namespace {

std::atomic<std::uint64_t> g_news{0};

void* counted_alloc(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* const p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t size, std::align_val_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* const p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dmatch {
namespace {

using congest::Context;
using congest::Envelope;
using congest::Message;
using congest::Model;
using congest::Network;
using congest::Process;
using congest::ProcessFactory;
using congest::RunStats;

constexpr int kFloodRounds = 8;

/// Every node sends one bit, (round + id) mod 2, on every port for
/// kFloodRounds rounds, and checks each bit it receives against its
/// sender's parity.
class OneBitFlood final : public Process {
 public:
  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    for (const Envelope& env : inbox) {
      BitReader r = env.msg.reader();
      const auto sender = static_cast<unsigned>(ctx.neighbor_id(env.port));
      const auto sent_round = static_cast<unsigned>(ctx.round() - 1);
      if (r.read(1) != ((sent_round + sender) & 1u)) ++bad_bits;
    }
    if (ctx.round() == kFloodRounds) {
      halted_ = true;
      return;
    }
    BitWriter w;
    w.write((static_cast<unsigned>(ctx.round()) +
             static_cast<unsigned>(ctx.id())) &
                1u,
            1);
    const Message msg = Message::from_writer(std::move(w));
    for (int p = 0; p < ctx.degree(); ++p) ctx.send(p, msg);
  }

  [[nodiscard]] bool halted() const override { return halted_; }

  static inline std::atomic<std::uint64_t> bad_bits{0};

 private:
  bool halted_ = false;
};

ProcessFactory flood_factory() {
  return [](NodeId, const Graph&) -> std::unique_ptr<Process> {
    return std::make_unique<OneBitFlood>();
  };
}

void expect_flood_allocation_free(unsigned threads) {
  const Graph g = gen::gnp(200, 0.1, 11);
  Network net(g, Model::kCongest, 3, 48,
              Network::Options{.num_threads = threads});
  OneBitFlood::bad_bits = 0;
  (void)net.run(flood_factory(), 4 * kFloodRounds);  // size every buffer

  ProcessFactory factory = flood_factory();
  const std::uint64_t before = g_news.load();
  const RunStats stats = net.run(std::move(factory), 4 * kFloodRounds);
  const std::uint64_t news = g_news.load() - before;

  EXPECT_EQ(OneBitFlood::bad_bits.load(), 0u);
  const std::uint64_t expected_messages =
      static_cast<std::uint64_t>(kFloodRounds) * 2 *
      static_cast<std::uint64_t>(g.edge_count());
  ASSERT_EQ(stats.messages, expected_messages);
  EXPECT_LT(news, stats.messages / 8)
      << "threads=" << threads << ": " << news << " allocations for "
      << stats.messages << " one-bit messages";
}

TEST(AllocGuard, OneBitFloodSecondRunIsAllocationFreePerMessage) {
  expect_flood_allocation_free(1);
}

TEST(AllocGuard, OneBitFloodSecondRunIsAllocationFreePerMessageThreaded) {
  expect_flood_allocation_free(4);
}

}  // namespace
}  // namespace dmatch
