// Unit tests for serialization and statistics utilities.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "util/codec.hpp"
#include "util/fnv.hpp"
#include "util/stats.hpp"

namespace coop::util {
namespace {

TEST(Codec, RoundTripsPrimitives) {
  Writer w;
  w.put<std::uint32_t>(42)
      .put<std::int64_t>(-7)
      .put<double>(3.25)
      .put<std::uint8_t>(255)
      .put<bool>(true);
  const std::string buf = w.take();
  Reader r(buf);
  EXPECT_EQ(r.get<std::uint32_t>(), 42u);
  EXPECT_EQ(r.get<std::int64_t>(), -7);
  EXPECT_DOUBLE_EQ(r.get<double>(), 3.25);
  EXPECT_EQ(r.get<std::uint8_t>(), 255);
  EXPECT_TRUE(r.get<bool>());
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, RoundTripsStringsIncludingEmptyAndBinary) {
  Writer w;
  w.put_string("hello").put_string("").put_string(std::string("\0\x01", 2));
  const std::string buf = w.take();
  Reader r(buf);
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_string(), std::string("\0\x01", 2));
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, RoundTripsVectors) {
  Writer w;
  w.put_vector<std::uint64_t>({1, 2, 3});
  w.put_vector<double>({});
  const std::string buf = w.take();
  Reader r(buf);
  EXPECT_EQ(r.get_vector<std::uint64_t>(),
            (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_TRUE(r.get_vector<double>().empty());
  EXPECT_FALSE(r.failed());
}

TEST(Codec, RoundTripsBytes) {
  Writer w;
  w.put_bytes({0x00, 0xff, 0x10});
  const std::string buf = w.take();
  Reader r(buf);
  EXPECT_EQ(r.get_bytes(), (std::vector<std::uint8_t>{0x00, 0xff, 0x10}));
}

TEST(Codec, UnderrunSetsStickyFailureFlag) {
  Writer w;
  w.put<std::uint16_t>(1);
  const std::string buf = w.take();
  Reader r(buf);
  EXPECT_EQ(r.get<std::uint64_t>(), 0u);  // needs 8 bytes, only 2 available
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.get<std::uint8_t>(), 0u);  // still failed even though in range
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Codec, TruncatedStringFails) {
  Writer w;
  w.put<std::uint32_t>(100);  // claims a 100-byte string follows
  const std::string buf = w.take();
  Reader r(buf);
  EXPECT_EQ(r.get_string(), "");
  EXPECT_TRUE(r.failed());
}

TEST(Codec, MaliciousVectorLengthFailsInsteadOfAllocating) {
  Writer w;
  w.put<std::uint32_t>(0xffffffff);
  const std::string buf = w.take();
  Reader r(buf);
  EXPECT_TRUE(r.get_vector<std::uint64_t>().empty());
  EXPECT_TRUE(r.failed());
}

TEST(Codec, SkipVectorLandsWhereGetVectorDoes) {
  Writer w;
  w.put_vector<std::uint64_t>({7, 8, 9});
  w.put_string("after");
  const std::string buf = w.take();
  Reader got(buf);
  got.skip_vector<std::uint64_t>();
  EXPECT_EQ(got.get_string_view(), "after");
  EXPECT_TRUE(got.exhausted());
  // A length the remaining bytes cannot hold fails both the same way.
  for (const std::uint32_t len : {4u, 0xffffffffu}) {
    Writer bad;
    bad.put<std::uint32_t>(len).put<std::uint64_t>(1).put<std::uint64_t>(2);
    const std::string frame = bad.take();
    Reader skip(frame);
    Reader read(frame);
    skip.skip_vector<std::uint64_t>();
    EXPECT_TRUE(read.get_vector<std::uint64_t>().empty());
    EXPECT_TRUE(skip.failed()) << len;
    EXPECT_TRUE(read.failed()) << len;
  }
}

TEST(Codec, TruncatedStringViewFails) {
  Writer w;
  w.put<std::uint32_t>(100);
  const std::string buf = w.take();
  Reader r(buf);
  EXPECT_TRUE(r.get_string_view().empty());
  EXPECT_TRUE(r.failed());
}

// fnv1a32 values are stored on the medium (WAL records, checkpoint
// seals): pin the published FNV-1a test vectors so the format cannot
// drift silently.
TEST(Fnv1a32, MatchesTheStandardVectors) {
  EXPECT_EQ(fnv1a32(""), 0x811c9dc5u);
  EXPECT_EQ(fnv1a32("a"), 0xe40c292cu);
  EXPECT_EQ(fnv1a32("foobar"), 0xbf9cf968u);
  static_assert(fnv1a32("a") == 0xe40c292cu);
}

TEST(Stats, SummaryBasicMoments) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_NEAR(s.stddev(), 1.5811, 1e-3);
}

TEST(Stats, SummaryEmptyIsSafe) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.jitter(), 0.0);
}

TEST(Stats, SummaryPercentiles) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.p50(), 50.0, 1.0);
  EXPECT_NEAR(s.p95(), 95.0, 1.0);
  EXPECT_NEAR(s.p99(), 99.0, 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
}

TEST(Stats, SummaryPercentileAfterLateAdd) {
  Summary s;
  s.add(10);
  EXPECT_DOUBLE_EQ(s.p50(), 10.0);
  s.add(1);  // invalidates the sorted cache
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
}

TEST(Stats, SummaryJitterMeasuresSuccessiveDifferences) {
  Summary s;
  for (double x : {10.0, 12.0, 10.0, 12.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.jitter(), 2.0);
  Summary flat;
  for (int i = 0; i < 5; ++i) flat.add(7.0);
  EXPECT_DOUBLE_EQ(flat.jitter(), 0.0);
}

TEST(Stats, CounterIncrementsAndResets) {
  Counter c;
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, HistogramQuantiles) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 2.0);
  EXPECT_NEAR(h.quantile(0.95), 95.0, 2.0);
}

TEST(Stats, HistogramClampsOutOfRange) {
  Histogram h(0.0, 10.0, 10);
  h.add(-5.0);
  h.add(50.0);
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.buckets().front(), 1u);
  EXPECT_EQ(h.buckets().back(), 1u);
}

TEST(Stats, HistogramClampsExtremeSamplesWithoutUB) {
  // Samples far outside [lo, hi) — including infinities — used to be cast
  // to int64 before clamping, which is undefined behaviour.  They must
  // land in the edge buckets.
  Histogram h(0.0, 10.0, 10);
  h.add(1e300);
  h.add(-1e300);
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.buckets().front(), 2u);
  EXPECT_EQ(h.buckets().back(), 2u);
}

TEST(Stats, HistogramCountsNaNSeparately) {
  Histogram h(0.0, 10.0, 10);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(5.0);
  EXPECT_EQ(h.total(), 1u);  // NaN is not bucketed
  EXPECT_EQ(h.nan_count(), 1u);
  std::uint64_t bucketed = 0;
  for (std::uint64_t b : h.buckets()) bucketed += b;
  EXPECT_EQ(bucketed, 1u);
}

TEST(Stats, HistogramNormalizesDegenerateRange) {
  // hi <= lo and zero buckets must not divide by zero or crash.
  Histogram h(5.0, 5.0, 0);
  h.add(5.0);
  h.add(4.0);
  h.add(6.0);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.buckets().size(), 1u);
  EXPECT_EQ(h.buckets().front(), 3u);
  EXPECT_GT(h.hi(), h.lo());
}

TEST(Stats, GaugeMovesBothWays) {
  Gauge g;
  g.set(10.0);
  g.add(-3.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  g.max_of(5.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  g.max_of(12.0);
  EXPECT_DOUBLE_EQ(g.value(), 12.0);
}

TEST(Codec, TakeEmptiesTheWriter) {
  Writer w;
  w.put<std::uint32_t>(7).put_string("x");
  EXPECT_GT(w.size(), 0u);
  const std::string wire = w.take();
  EXPECT_FALSE(wire.empty());
  // The storage moved out: a stale Writer can no longer silently
  // re-serialize its old bytes.
  EXPECT_EQ(w.size(), 0u);
}

}  // namespace
}  // namespace coop::util
