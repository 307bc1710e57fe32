// Differential tests for util::WatermarkSet against a std::set<uint64_t>
// reference: every count() and insert() result must match, whatever the
// arrival pattern.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <vector>

#include "util/watermark_set.hpp"

namespace coop::util {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

/// Feeds @p values to both sets, probing count() before and after each
/// insert (and at a few neighbours), and checks every answer agrees.
void differential(const std::vector<std::uint64_t>& values) {
  WatermarkSet got;
  std::set<std::uint64_t> want;
  auto probe = [&](std::uint64_t v) {
    ASSERT_EQ(got.count(v), want.count(v)) << "count(" << v << ")";
  };
  for (const std::uint64_t v : values) {
    probe(v);
    if (v > 0) probe(v - 1);
    if (v < kMax) probe(v + 1);
    ASSERT_EQ(got.insert(v), want.insert(v).second) << "insert(" << v << ")";
    probe(v);
  }
  for (const std::uint64_t v : want) probe(v);
  // The watermark is exactly the first value >= 1 missing from the set.
  std::uint64_t first_gap = 1;
  while (first_gap < kMax && want.count(first_gap) != 0) ++first_gap;
  EXPECT_EQ(got.watermark(), first_gap);
  // Everything else sits in the sparse part, one entry per value (the
  // watermark itself only when it is pinned at the top of the range).
  std::size_t above = 0;
  for (const std::uint64_t v : want)
    if (v >= got.watermark()) ++above;
  EXPECT_EQ(got.sparse_size(), above);
}

TEST(WatermarkSet, EmptySetHoldsNothing) {
  WatermarkSet s;
  EXPECT_EQ(s.count(0), 0u);
  EXPECT_EQ(s.count(1), 0u);
  EXPECT_EQ(s.count(kMax), 0u);
  EXPECT_EQ(s.watermark(), 1u);
  EXPECT_EQ(s.sparse_size(), 0u);
}

TEST(WatermarkSet, InOrderRunNeverTouchesTheSparsePart) {
  WatermarkSet s;
  for (std::uint64_t v = 1; v <= 10000; ++v) {
    ASSERT_TRUE(s.insert(v));
    ASSERT_EQ(s.sparse_size(), 0u);
  }
  EXPECT_EQ(s.watermark(), 10001u);
  EXPECT_FALSE(s.insert(5000));
  EXPECT_EQ(s.count(10000), 1u);
  EXPECT_EQ(s.count(10001), 0u);
}

TEST(WatermarkSet, ClosingAGapAbsorbsTheRunAboveIt) {
  WatermarkSet s;
  for (std::uint64_t v : {2u, 3u, 4u, 7u}) ASSERT_TRUE(s.insert(v));
  EXPECT_EQ(s.watermark(), 1u);
  EXPECT_EQ(s.sparse_size(), 4u);
  ASSERT_TRUE(s.insert(1));
  EXPECT_EQ(s.watermark(), 5u);
  EXPECT_EQ(s.sparse_size(), 1u);  // 7 still waits for 5 and 6
  EXPECT_EQ(s.count(6), 0u);
}

TEST(WatermarkSet, ZeroIsAnOrdinaryMember) {
  differential({0, 0, 1, 0, 2});
  WatermarkSet s;
  EXPECT_TRUE(s.insert(0));
  EXPECT_FALSE(s.insert(0));
  EXPECT_EQ(s.count(0), 1u);
  EXPECT_EQ(s.watermark(), 1u);  // 0 does not start the run
}

TEST(WatermarkSet, TopOfTheRangeNeverWraps) {
  differential({kMax, kMax - 1, kMax, 1, 2, kMax - 2});
  WatermarkSet s;
  EXPECT_TRUE(s.insert(kMax));
  EXPECT_FALSE(s.insert(kMax));
  EXPECT_EQ(s.count(kMax), 1u);
  EXPECT_EQ(s.count(0), 0u);
}

TEST(WatermarkSet, MatchesStdSetOnSeededSequences) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    std::mt19937_64 rng(seed);
    std::vector<std::uint64_t> values;
    // Mostly in order, with duplicates, values that overtake a short gap
    // (the gap fills later) and holes that never fill.
    std::uint64_t next = seed % 3;  // some runs start at 0 or 2
    for (int i = 0; i < 3000; ++i) {
      switch (rng() % 8) {
        case 0:  // duplicate of something recent
          values.push_back(next > 8 ? next - 1 - rng() % 8 : next);
          break;
        case 1:  // overtakes a short gap
          values.push_back(next + 1 + rng() % 6);
          break;
        case 2:  // a permanent hole
          ++next;
          break;
        default:
          values.push_back(next++);
      }
    }
    // Huge gaps and seq 0 mixed in.
    for (int i = 0; i < 50; ++i) {
      values.insert(values.begin() + static_cast<long>(rng() % values.size()),
                    rng() % 4 == 0 ? 0 : next + (rng() >> (rng() % 60)));
    }
    values.push_back(kMax);
    values.push_back(kMax - 1);
    differential(values);
    // Fully shuffled: arrival order carries no information.
    std::shuffle(values.begin(), values.end(), rng);
    differential(values);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace coop::util
