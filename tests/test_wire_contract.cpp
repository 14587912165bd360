// Pins the wire formats documented in docs/PROTOCOLS.md: if a protocol's
// message layout changes, these tests fail and the document must be
// updated alongside.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "congest/network.hpp"
#include "core/bipartite_mcm.hpp"
#include "core/delta_mwm.hpp"
#include "core/half_mwm.hpp"
#include "core/israeli_itai.hpp"
#include "graph/generators.hpp"
#include "mis/luby.hpp"
#include "mp/frames.hpp"
#include "support/rng.hpp"

namespace dmatch {
namespace {

using congest::Model;
using congest::Network;

TEST(WireContract, IsraeliItaiMessagesAreTwoBits) {
  const Graph g = gen::gnp(40, 0.15, 1);
  Network net(g, Model::kCongest, 2);
  const auto result = israeli_itai(net);
  EXPECT_EQ(result.stats.max_message_bits, 2u);
}

TEST(WireContract, LubyMessagesAreAtMost65Bits) {
  const Graph g = gen::gnp(40, 0.15, 3);
  Network net(g, Model::kCongest, 4);
  const auto result = luby_mis_distributed(net);
  // DRAW = 1 + 64 bits; JOIN = 1 bit.
  EXPECT_EQ(result.stats.max_message_bits, 65u);
}

TEST(WireContract, AugmentIterationMessagesAre130Bits) {
  const Graph g = gen::bipartite_gnp(20, 20, 0.3, 5);
  const auto side = *g.bipartition();
  Network net(g, Model::kCongest, 6);
  const auto stats = run_augment_iteration(net, side, 3);
  // COUNT = 2 + 128; TOKEN = 2 + 64 + 64; AUGMENT = 2.
  EXPECT_EQ(stats.max_message_bits, 130u);
}

TEST(WireContract, GainExchangeIs64BitsAndDropIsOneBit) {
  const Graph g = gen::with_uniform_weights(gen::gnp(30, 0.2, 7), 1.0, 9.0,
                                            8);
  HalfMwmOptions options;
  options.epsilon = 0.3;
  options.black_box = HalfMwmOptions::BlackBox::kLocallyDominant;
  options.seed = 9;
  const auto result = half_mwm(g, options);
  // The largest message in the whole pipeline is the 64-bit weight
  // broadcast of the gain exchange (box messages are 1-2 bits).
  EXPECT_EQ(result.stats.max_message_bits, 64u);
}

TEST(WireContract, DominantBoxMessagesAreOneBit) {
  const Graph g = gen::with_uniform_weights(gen::gnp(30, 0.2, 10), 1.0, 9.0,
                                            11);
  const auto result = locally_dominant_mwm(g, {});
  EXPECT_EQ(result.stats.max_message_bits, 1u);
}

TEST(WireContract, TotalBitsAreConsistentWithCounts) {
  // total_bits must equal messages * 2 for the 2-bit II protocol.
  const Graph g = gen::gnp(50, 0.1, 12);
  Network net(g, Model::kCongest, 13);
  const auto result = israeli_itai(net);
  EXPECT_EQ(result.stats.total_bits, 2 * result.stats.messages);
}

TEST(WireContract, AllCongestMessagesFitFortyEightLogN) {
  // The default cap with factor 48 must accommodate every CONGEST
  // protocol at the smallest supported scale (cap floor = 48 * 4 bits).
  const Graph g = gen::bipartite_gnp(4, 4, 0.9, 14);
  const auto side = *g.bipartition();
  Network net(g, Model::kCongest, 15);
  EXPECT_GE(net.message_cap_bits(), 192u);
  EXPECT_NO_THROW(run_augment_iteration(net, side, 1));
}

// --- multi-process peer-batch frames (docs/PROTOCOLS.md, "Multi-process
// sharding"): the data plane of the mp engine must round-trip exactly and
// reject truncated or corrupted bytes without undefined behavior. --------

mp::RoundFrame sample_round_frame() {
  mp::RoundFrame f;
  f.src = 1;
  f.round = 7;
  for (int i = 0; i < 3; ++i) {
    BitWriter w;
    w.write(static_cast<std::uint64_t>(i + 1), 2);
    w.write_bool(i % 2 == 0);
    mp::WireMsg m;
    m.dst = static_cast<NodeId>(i * 2);
    m.port = i % 2;
    m.deliver_round = 8 + i;
    m.origin_round = 7;
    m.msg = congest::Message::from_writer(std::move(w));
    f.msgs.push_back(std::move(m));
  }
  return f;
}

TEST(WireContract, MpRoundFrameRoundTrips) {
  const Graph g = gen::cycle(8);
  const mp::RoundFrame f = sample_round_frame();
  const auto bytes = mp::encode_round(f);

  const auto h = mp::peek_header(bytes);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->kind, mp::FrameKind::kRound);
  EXPECT_EQ(h->src, 1u);
  EXPECT_EQ(h->round, 7u);

  const auto d = mp::decode_round(bytes, g, 192);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->src, f.src);
  EXPECT_EQ(d->round, f.round);
  ASSERT_EQ(d->msgs.size(), f.msgs.size());
  for (std::size_t i = 0; i < f.msgs.size(); ++i) {
    EXPECT_EQ(d->msgs[i].dst, f.msgs[i].dst);
    EXPECT_EQ(d->msgs[i].port, f.msgs[i].port);
    EXPECT_EQ(d->msgs[i].deliver_round, f.msgs[i].deliver_round);
    EXPECT_EQ(d->msgs[i].origin_round, f.msgs[i].origin_round);
    EXPECT_EQ(d->msgs[i].msg.bits, f.msgs[i].msg.bits);
    EXPECT_EQ(d->msgs[i].msg.words, f.msgs[i].msg.words);
  }
}

TEST(WireContract, MpRoundFrameRejectsEveryTruncation) {
  const Graph g = gen::cycle(8);
  const auto bytes = mp::encode_round(sample_round_frame());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::span<const std::uint8_t> prefix(bytes.data(), len);
    EXPECT_FALSE(mp::decode_round(prefix, g, 192).has_value())
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(WireContract, MpRoundFrameSurvivesCorruptionWithoutUb) {
  const Graph g = gen::cycle(8);
  const auto bytes = mp::encode_round(sample_round_frame());

  // Bad magic is rejected at the header peek.
  auto bad = bytes;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(mp::peek_header(bad).has_value());
  EXPECT_FALSE(mp::decode_round(bad, g, 192).has_value());

  // Single-byte corruption anywhere either fails to decode or yields
  // only topology-valid fields (never out-of-range indices or over-cap
  // payloads the router would trip on).
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto mutated = bytes;
    mutated[i] ^= 0x5A;
    const auto d = mp::decode_round(mutated, g, 192);
    if (!d.has_value()) continue;
    for (const mp::WireMsg& m : d->msgs) {
      ASSERT_GE(m.dst, 0);
      ASSERT_LT(m.dst, g.node_count());
      ASSERT_GE(m.port, 0);
      ASSERT_LT(m.port, g.degree(m.dst));
      ASSERT_LE(m.msg.bits, 192u);
    }
  }

  // Pure garbage buffers of assorted sizes never decode.
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (const std::size_t len : {1u, 7u, 16u, 63u, 256u}) {
    std::vector<std::uint8_t> junk(len);
    for (auto& b : junk) b = static_cast<std::uint8_t>(splitmix64(state));
    EXPECT_FALSE(mp::decode_round(junk, g, 192).has_value());
  }
}

TEST(WireContract, MpRoundFrameRejectsForeignTopologyAndOverCap) {
  const Graph big = gen::cycle(8);
  const Graph small = gen::cycle(4);
  mp::RoundFrame f;
  f.src = 0;
  f.round = 1;
  mp::WireMsg m;
  m.dst = 6;  // valid in `big`, out of range in `small`
  m.port = 1;
  m.deliver_round = 2;
  m.origin_round = 1;
  BitWriter w;
  w.write(0x3, 2);
  m.msg = congest::Message::from_writer(std::move(w));
  f.msgs.push_back(std::move(m));
  const auto bytes = mp::encode_round(f);
  EXPECT_TRUE(mp::decode_round(bytes, big, 192).has_value());
  EXPECT_FALSE(mp::decode_round(bytes, small, 192).has_value());
  // A receiver with a tighter CONGEST cap rejects the payload outright.
  EXPECT_FALSE(mp::decode_round(bytes, big, 1).has_value());
}

// Payloads on both sides of congest::Message's inline limit (128 bits)
// and at the CONGEST cap of n = 2e4 with factor 48 (720 bits). Frames
// encode payload bits, not the container, so the frame bytes are pinned:
// how a Message stores its words must never change them.
congest::Message payload_of_bits(std::uint32_t bits, std::uint64_t seed) {
  BitWriter w;
  std::uint64_t state = seed;
  for (std::uint32_t left = bits; left > 0;) {
    const unsigned take = left < 64 ? left : 64;
    std::uint64_t v = splitmix64(state);
    if (take < 64) v &= (std::uint64_t{1} << take) - 1;
    w.write(v, take);
    left -= take;
  }
  return congest::Message::from_writer(std::move(w));
}

bool same_message(const congest::Message& a, const congest::Message& b) {
  return a.bits == b.bits && a.words == b.words;
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(WireContract, MessageCopyMoveAndEquality) {
  for (const std::uint32_t bits : {0u, 1u, 65u, 128u, 129u, 720u}) {
    const congest::Message original = payload_of_bits(bits, 100 + bits);
    EXPECT_EQ(original.bits, bits);
    EXPECT_EQ(original.words.size(), (bits + 63) / 64);

    congest::Message copy = original;
    EXPECT_TRUE(same_message(copy, original)) << bits;
    congest::Message other = payload_of_bits(bits, 200 + bits);
    EXPECT_EQ(same_message(other, original), bits == 0) << bits;
    ++copy.bits;
    EXPECT_FALSE(same_message(copy, original)) << bits;

    congest::Message source = original;
    congest::Message moved(std::move(source));
    EXPECT_TRUE(same_message(moved, original)) << bits;
    EXPECT_EQ(source.words.size(), 0u) << bits;
    EXPECT_FALSE(source.words.spilled()) << bits;

    congest::Message& alias = moved;
    moved = alias;
    EXPECT_TRUE(same_message(moved, original)) << bits;
    moved = std::move(alias);
    EXPECT_TRUE(same_message(moved, original)) << bits;

    // Both the inline and the spilled form read back through reader().
    BitReader a = moved.reader();
    BitReader b = original.reader();
    for (std::uint32_t left = bits; left > 0;) {
      const unsigned take = left < 64 ? left : 64;
      ASSERT_EQ(a.read(take), b.read(take)) << bits;
      left -= take;
    }
  }
}

TEST(WireContract, MpRoundFramePinsBytesAcrossTheInlineLimit) {
  struct Case {
    std::uint32_t bits;
    std::size_t frame_bytes;
    std::uint64_t fnv;
  };
  const Case cases[] = {{128, 46, 0x2757ba14b1315c56ull},
                        {129, 47, 0xf9b8c4770f28242dull},
                        {720, 120, 0xb834dd2deadcd755ull}};
  const Graph g = gen::cycle(8);
  for (const Case& c : cases) {
    mp::RoundFrame f;
    f.src = 2;
    f.round = 9;
    mp::WireMsg m;
    m.dst = 5;
    m.port = 1;
    m.deliver_round = 10;
    m.origin_round = 9;
    m.msg = payload_of_bits(c.bits, c.bits);
    EXPECT_EQ(m.msg.words.spilled(), c.bits > 128) << c.bits;
    f.msgs.push_back(std::move(m));

    const auto bytes = mp::encode_round(f);
    EXPECT_EQ(bytes.size(), c.frame_bytes) << c.bits;
    EXPECT_EQ(fnv1a(bytes), c.fnv) << c.bits;

    const auto d = mp::decode_round(bytes, g, 720);
    ASSERT_TRUE(d.has_value()) << c.bits;
    ASSERT_EQ(d->msgs.size(), 1u);
    EXPECT_TRUE(same_message(d->msgs[0].msg, f.msgs[0].msg)) << c.bits;
    EXPECT_EQ(mp::encode_round(*d), bytes) << c.bits;
  }
}

}  // namespace
}  // namespace dmatch
