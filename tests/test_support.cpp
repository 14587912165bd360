#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "support/assert.hpp"
#include "support/rng.hpp"
#include "support/sat_count.hpp"
#include "support/table.hpp"
#include "support/wire.hpp"

namespace dmatch {
namespace {

// ---------------------------------------------------------------- asserts

TEST(Assert, ExpectsThrowsOnViolation) {
  EXPECT_THROW(DMATCH_EXPECTS(1 == 2), ContractViolation);
  EXPECT_NO_THROW(DMATCH_EXPECTS(1 == 1));
  EXPECT_THROW(DMATCH_ENSURES(false), ContractViolation);
  EXPECT_THROW(DMATCH_ASSERT(false), ContractViolation);
}

TEST(Assert, MessageNamesExpressionAndLocation) {
  try {
    DMATCH_EXPECTS(2 + 2 == 5);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos);
    EXPECT_NE(what.find("test_support.cpp"), std::string::npos);
  }
}

// -------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b()) ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Rng, ForkStreamsAreDecorrelated) {
  Rng root(7);
  Rng a = root.fork(0);
  Rng b = root.fork(1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b()) ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Rng, ForkIsDeterministic) {
  Rng root1(7);
  Rng root2(7);
  Rng a = root1.fork(5);
  Rng b = root2.fork(5);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.uniform(bound), bound);
  }
}

TEST(Rng, UniformRejectsZeroBound) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform(0), ContractViolation);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng rng(13);
  int buckets[10] = {};
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    ++buckets[static_cast<int>(rng.uniform01() * 10)];
  }
  for (int b : buckets) {
    EXPECT_NEAR(b, draws / 10, draws / 100);
  }
}

TEST(Rng, MaxOfUniformsMatchesTheoreticalMean) {
  // E[max of m uniforms] = m / (m + 1).
  Rng rng(17);
  for (double m : {1.0, 4.0, 64.0}) {
    double sum = 0;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i) sum += sample_max_of_uniforms(rng, m);
    EXPECT_NEAR(sum / draws, m / (m + 1.0), 0.01) << "m = " << m;
  }
}

TEST(Rng, MaxOfHugeCountsApproachesOne) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_GT(sample_max_of_uniforms(rng, 1e30), 0.999);
  }
}

// -------------------------------------------------------------- sat_count

TEST(SatCount, BasicArithmetic) {
  SatCount a(3);
  SatCount b(4);
  EXPECT_EQ((a + b), SatCount(7));
  EXPECT_TRUE(SatCount{}.is_zero());
  EXPECT_FALSE(a.is_zero());
  EXPECT_LT(a, b);
}

TEST(SatCount, SaturatesInsteadOfWrapping) {
  SatCount big = SatCount::saturated();
  EXPECT_TRUE(big.is_saturated());
  SatCount sum = big + SatCount(1);
  EXPECT_TRUE(sum.is_saturated());
  EXPECT_EQ(sum, SatCount::saturated());
}

TEST(SatCount, AccumulationBeyond64Bits) {
  SatCount c(~std::uint64_t{0});
  c += SatCount(~std::uint64_t{0});
  EXPECT_FALSE(c.is_saturated());
  EXPECT_EQ(c.clamped_u64(), ~std::uint64_t{0});
  EXPECT_GT(c.as_double(), 3e19);
}

TEST(SatCount, WireRoundTrip) {
  SatCount values[] = {SatCount{}, SatCount(1), SatCount(12345),
                       SatCount(~std::uint64_t{0}) + SatCount(99),
                       SatCount::saturated()};
  for (const SatCount& v : values) {
    EXPECT_EQ(SatCount::from_words(v.hi(), v.lo()), v);
  }
}

TEST(SatCount, AsDoubleMonotone) {
  EXPECT_LT(SatCount(5).as_double(), SatCount(6).as_double());
  EXPECT_GT(SatCount::saturated().as_double(), 1e38);
}

// ------------------------------------------------------------------- wire

TEST(Wire, SingleFieldRoundTrip) {
  for (unsigned width = 1; width <= 64; ++width) {
    BitWriter w;
    const std::uint64_t value =
        width == 64 ? 0xdeadbeefcafebabeULL
                    : 0xdeadbeefcafebabeULL & ((std::uint64_t{1} << width) - 1);
    w.write(value, width);
    EXPECT_EQ(w.bit_count(), width);
    BitReader r(w.words(), w.bit_count());
    EXPECT_EQ(r.read(width), value) << "width " << width;
  }
}

TEST(Wire, MixedFieldsRoundTrip) {
  Rng rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::pair<std::uint64_t, unsigned>> fields;
    BitWriter w;
    const int count = 1 + static_cast<int>(rng.uniform(20));
    for (int i = 0; i < count; ++i) {
      const unsigned width = 1 + static_cast<unsigned>(rng.uniform(64));
      std::uint64_t value = rng();
      if (width < 64) value &= (std::uint64_t{1} << width) - 1;
      fields.emplace_back(value, width);
      w.write(value, width);
    }
    BitReader r(w.words(), w.bit_count());
    for (const auto& [value, width] : fields) {
      ASSERT_EQ(r.read(width), value);
    }
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(Wire, BitCountIsExact) {
  BitWriter w;
  w.write_bool(true);
  w.write(5, 3);
  w.write(1, 64);
  EXPECT_EQ(w.bit_count(), 68u);
}

TEST(Wire, WriterRejectsOverwideValues) {
  BitWriter w;
  EXPECT_THROW(w.write(4, 2), ContractViolation);   // 4 needs 3 bits
  EXPECT_THROW(w.write(1, 0), ContractViolation);   // zero width
  EXPECT_THROW(w.write(1, 65), ContractViolation);  // too wide
}

TEST(Wire, ReaderRejectsOverread) {
  BitWriter w;
  w.write(3, 2);
  BitReader r(w.words(), w.bit_count());
  EXPECT_EQ(r.read(2), 3u);
  EXPECT_THROW(r.read(1), ContractViolation);
}

TEST(Wire, BitWidthFor) {
  EXPECT_EQ(bit_width_for(0), 1u);
  EXPECT_EQ(bit_width_for(1), 1u);
  EXPECT_EQ(bit_width_for(2), 2u);
  EXPECT_EQ(bit_width_for(255), 8u);
  EXPECT_EQ(bit_width_for(256), 9u);
  EXPECT_EQ(bit_width_for(~std::uint64_t{0}), 64u);
}

/// Write exactly `bits` bits as fields of random widths; returns them.
std::vector<std::pair<std::uint64_t, unsigned>> write_random_fields(
    BitWriter& w, std::uint32_t bits, Rng& rng) {
  std::vector<std::pair<std::uint64_t, unsigned>> fields;
  for (std::uint32_t left = bits; left > 0;) {
    unsigned width = 1 + static_cast<unsigned>(rng.uniform(64));
    if (width > left) width = left;
    std::uint64_t value = rng();
    if (width < 64) value &= (std::uint64_t{1} << width) - 1;
    fields.emplace_back(value, width);
    w.write(value, width);
    left -= width;
  }
  return fields;
}

TEST(Wire, RoundTripsAcrossTheInlineLimit) {
  // Two words (128 bits) live inline; 720 bits is the CONGEST cap at
  // n = 2e4 with factor 48.
  Rng rng(41);
  for (const std::uint32_t bits :
       {0u, 1u, 63u, 64u, 65u, 127u, 128u, 129u, 720u}) {
    BitWriter w;
    const auto fields = write_random_fields(w, bits, rng);
    EXPECT_EQ(w.bit_count(), bits);
    EXPECT_EQ(w.words().size(), (bits + 63) / 64) << bits;
    EXPECT_EQ(w.words().spilled(), bits > 128) << bits;
    BitReader r(w.words(), w.bit_count());
    for (const auto& [value, width] : fields) {
      ASSERT_EQ(r.read(width), value) << bits;
    }
    EXPECT_EQ(r.remaining(), 0u);

    // The sealed words read back the same through a plain pointer.
    const WordStore words = std::move(w).take_words();
    BitReader r2(words.data(), bits);
    for (const auto& [value, width] : fields) {
      ASSERT_EQ(r2.read(width), value) << bits;
    }
  }
}

WordStore store_of(std::uint32_t count, std::uint64_t seed) {
  WordStore s;
  for (std::uint32_t i = 0; i < count; ++i) s.push_back(seed * 1000 + i);
  return s;
}

std::vector<std::uint64_t> contents(const WordStore& s) {
  return {s.begin(), s.end()};
}

TEST(WordStore, InlineUpToTwoWordsThenSpills) {
  WordStore s;
  EXPECT_EQ(s.size(), 0u);
  EXPECT_FALSE(s.spilled());
  s.push_back(1);
  s.push_back(2);
  EXPECT_FALSE(s.spilled());
  s.push_back(3);
  EXPECT_TRUE(s.spilled());
  EXPECT_EQ(contents(s), (std::vector<std::uint64_t>{1, 2, 3}));
  s[1] = 7;
  EXPECT_EQ(s[1], 7u);

  s.assign(5, 9);
  EXPECT_EQ(contents(s), std::vector<std::uint64_t>(5, 9));
  s.assign(1, 4);  // shrinking keeps the heap block
  EXPECT_TRUE(s.spilled());
  EXPECT_EQ(contents(s), std::vector<std::uint64_t>{4});
  WordStore t;
  t.assign(2, 6);
  EXPECT_FALSE(t.spilled());
  EXPECT_EQ(contents(t), (std::vector<std::uint64_t>{6, 6}));
}

TEST(WordStore, CopyAndMoveInlineAndSpilled) {
  for (const std::uint32_t count : {0u, 1u, 2u, 3u, 12u}) {
    const WordStore original = store_of(count, count + 1);
    const auto want = contents(original);

    WordStore copy(original);
    EXPECT_EQ(contents(copy), want) << count;
    if (count > 0) {
      copy[0] ^= 1;  // a copy owns its words
      EXPECT_EQ(contents(original), want) << count;
    }

    // Copy- and move-assign into an inline and into a spilled target.
    for (const std::uint32_t target : {1u, 9u}) {
      WordStore assigned = store_of(target, 77);
      assigned = original;
      EXPECT_EQ(contents(assigned), want) << count << " <- " << target;

      WordStore source(original);
      WordStore moved_into = store_of(target, 78);
      moved_into = std::move(source);
      EXPECT_EQ(contents(moved_into), want) << count << " <- " << target;
      // The moved-from state is specified: empty, inline and reusable.
      EXPECT_EQ(source.size(), 0u);
      EXPECT_FALSE(source.spilled());
      source.push_back(5);
      EXPECT_EQ(contents(source), std::vector<std::uint64_t>{5});
    }

    WordStore source(original);
    WordStore constructed(std::move(source));
    EXPECT_EQ(contents(constructed), want) << count;
    EXPECT_EQ(source.size(), 0u);
    EXPECT_FALSE(source.spilled());

    // Self-assignment, by copy and by move, keeps the value.
    WordStore self(original);
    WordStore& alias = self;
    self = alias;
    EXPECT_EQ(contents(self), want) << count;
    self = std::move(alias);
    EXPECT_EQ(contents(self), want) << count;
  }
}

TEST(WordStore, EqualityComparesContentsNotRepresentation) {
  EXPECT_TRUE(WordStore() == WordStore());
  EXPECT_TRUE(store_of(2, 3) == store_of(2, 3));
  EXPECT_TRUE(store_of(5, 3) == store_of(5, 3));
  EXPECT_FALSE(store_of(2, 3) == store_of(3, 3));
  EXPECT_FALSE(store_of(5, 3) == store_of(5, 4));
  WordStore spilled = store_of(5, 3);
  spilled.assign(1, 42);
  WordStore inline_one;
  inline_one.push_back(42);
  EXPECT_TRUE(spilled.spilled());
  EXPECT_FALSE(inline_one.spilled());
  EXPECT_TRUE(spilled == inline_one);
}

// ------------------------------------------------------------------ table

TEST(Table, RendersMarkdown) {
  Table t({"name", "value"});
  t.row().cell("rounds").cell(std::int64_t{42});
  t.row().cell("ratio").cell(0.95, 2);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("| rounds"), std::string::npos);
  EXPECT_NE(out.find("0.95"), std::string::npos);
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(Table, RejectsOverfilledRow) {
  Table t({"only"});
  t.row().cell("x");
  EXPECT_THROW(t.cell("y"), ContractViolation);
}

}  // namespace
}  // namespace dmatch
