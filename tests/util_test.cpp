// Unit tests for serialization, statistics and the flat index.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "net/message.hpp"
#include "sim/rng.hpp"
#include "util/codec.hpp"
#include "util/flat_index.hpp"
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
  w.write(std::vector<std::uint64_t>{1, 2, 3});
  w.write(std::vector<double>{});
  const std::string buf = w.take();
  Reader r(buf);
  std::vector<std::uint64_t> ints;
  std::vector<double> none{1.0};
  r.read(ints);
  r.read(none);
  EXPECT_EQ(ints, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_TRUE(none.empty());
  EXPECT_FALSE(r.failed());
}

TEST(Codec, RoundTripsBytes) {
  // A byte vector is a length-prefixed blob: u32 length, then the bytes.
  const coop::util::Buf buf =
      coop::util::encode(std::vector<std::uint8_t>{0x00, 0xff, 0x10});
  EXPECT_EQ(buf.view(), std::string_view("\x03\0\0\0\x00\xff\x10", 7));
  std::vector<std::uint8_t> got;
  ASSERT_TRUE(coop::util::decode(buf, got));
  EXPECT_EQ(got, (std::vector<std::uint8_t>{0x00, 0xff, 0x10}));
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
  std::vector<std::uint64_t> v;
  EXPECT_FALSE(coop::util::decode(buf, v));
  EXPECT_EQ(v.capacity(), 0u);
}

TEST(Codec, SkipVectorLandsWhereGetVectorDoes) {
  // An ArrayView steps over a vector's bytes without copying them.
  Writer w;
  w.write(std::vector<std::uint64_t>{7, 8, 9});
  w.put_string("after");
  const std::string buf = w.take();
  Reader got(buf);
  coop::util::ArrayView<std::uint64_t> view;
  got.read(view);
  EXPECT_EQ(view.to_vector(), (std::vector<std::uint64_t>{7, 8, 9}));
  EXPECT_EQ(got.get_string_view(), "after");
  EXPECT_TRUE(got.exhausted());
  // A length the remaining bytes cannot hold fails both the same way.
  for (const std::uint32_t len : {4u, 0xffffffffu}) {
    Writer bad;
    bad.put<std::uint32_t>(len).put<std::uint64_t>(1).put<std::uint64_t>(2);
    const std::string frame = bad.take();
    Reader skip(frame);
    Reader read(frame);
    skip.read(view);
    std::vector<std::uint64_t> vec;
    read.read(vec);
    EXPECT_TRUE(vec.empty());
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

TEST(Stats, HistogramSumAndMeanMatchASummaryOfIntegerSamples) {
  // Library stats read sum(), mean() and max_seen() where they used to
  // read a Summary; for integer µs samples the values are the same,
  // including samples the buckets clamp.  NaN stays out of the sum.
  Histogram h(0.0, 1e7, 64);
  Summary s;
  EXPECT_EQ(h.mean(), 0.0);
  std::mt19937_64 rng(5);
  for (int i = 0; i < 5000; ++i) {
    const auto x = static_cast<double>(rng() % 40'000'000);  // up to 40 s
    h.add(x);
    s.add(x);
  }
  h.add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.total(), s.count());
  EXPECT_EQ(h.sum(), s.sum());
  EXPECT_EQ(h.mean(), s.mean());
  EXPECT_EQ(h.max_seen(), s.max());
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

// --- FlatIndex -------------------------------------------------------------

template <class Key>
constexpr int kKeyBits = static_cast<int>(sizeof(Key)) * 8;

/// Keys whose hashes agree in their top 16 bits and differ only in the
/// lowest ones, so they share a home slot in every table of up to 2^16
/// slots.
template <class Key>
std::vector<Key> colliding_keys(Key hash_high, int count) {
  // The inverse of the hash multiplier modulo 2^bits, by Newton's method.
  const Key k = FlatIndex<Key>::hash(1);
  Key inverse = k;
  for (int i = 0; i < 6; ++i) inverse *= Key{2} - k * inverse;
  std::vector<Key> keys;
  for (int j = 0; j < count; ++j)
    keys.push_back(static_cast<Key>(
        ((hash_high << (kKeyBits<Key> - 16)) + static_cast<Key>(j)) *
        inverse));
  return keys;
}

/// Random inserts, reassigns and erases over a pool of colliding, extreme
/// and random keys, checked step by step against a std::map.
template <class Key>
void expect_matches_map_model(Key hash_high, std::vector<Key> extremes) {
  std::vector<Key> pool = colliding_keys<Key>(hash_high, 40);
  for (Key key : pool)
    ASSERT_EQ(FlatIndex<Key>::hash(key) >> (kKeyBits<Key> - 16), hash_high);
  pool.insert(pool.end(), extremes.begin(), extremes.end());
  sim::Rng rng(5);
  for (int i = 0; i < 300; ++i) pool.push_back(static_cast<Key>(rng.next()));

  FlatIndex<Key> table;
  std::map<Key, std::uint32_t> model;
  std::size_t largest = 0;
  for (int step = 0; step < 20000; ++step) {
    const Key key = pool[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(pool.size()) - 1))];
    // Fill up for the first half, drain for the second.
    const bool add = rng.uniform() < (step < 10000 ? 0.7 : 0.3);
    auto it = model.find(key);
    if (it == model.end()) {
      if (add) {
        const auto index = static_cast<std::uint32_t>(step);
        table.insert(key, index);
        model[key] = index;
      }
    } else if (add) {
      table.reassign(key, it->second + 1);
      ++it->second;
    } else {
      table.erase(key);
      model.erase(it);
    }
    ASSERT_EQ(table.size(), model.size()) << "step " << step;
    ASSERT_LE(table.size() * 2, table.capacity()) << "step " << step;
    largest = std::max(largest, table.capacity());
    if (step % 97 == 0 || step > 19900) {
      for (Key probe : pool) {
        auto m = model.find(probe);
        ASSERT_EQ(table.find(probe),
                  m == model.end() ? FlatIndex<Key>::kNone : m->second)
            << "step " << step << " key " << probe;
      }
    }
  }
  EXPECT_GE(largest, 256u);
  EXPECT_LT(table.capacity(), largest);  // it shrank as it drained
}

TEST(FlatIndex, MatchesAMapUnderChurnWithCollidingIds) {
  expect_matches_map_model<std::uint32_t>(
      0x5a5a, {0u, 1u, 0x80000000u, 0xfffffffeu, 0xffffffffu});
}

TEST(FlatIndex, MatchesAMapUnderChurnWith64BitKeys) {
  expect_matches_map_model<std::uint64_t>(
      0xa5a5, {0ull, 1ull, 0xffffffffull, 0x100000000ull, 1ull << 63,
               ~0ull - 1, ~0ull});
}

TEST(FlatIndex, DenseAddressesKeepProbeRunsShort) {
  // Experiments allocate node ids densely from 0 with a handful of ports.
  // A key's home slot is the top log2(capacity) bits of its hash; replay
  // linear probing from there to measure each key's probe run.
  FlatIndex<std::uint64_t> table;
  std::vector<std::uint64_t> keys;
  for (std::uint32_t node = 0; node < 200; ++node) {
    for (std::uint16_t port = 1; port <= 50; ++port) {
      keys.push_back(net::address_key({node, port}));
      table.insert(keys.back(), static_cast<std::uint32_t>(keys.size() - 1));
    }
  }
  const std::size_t capacity = table.capacity();
  const int shift = 64 - std::countr_zero(capacity);
  std::vector<bool> taken(capacity);
  std::size_t longest = 0;
  std::size_t total = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(table.find(keys[i]), i);
    std::size_t slot = FlatIndex<std::uint64_t>::hash(keys[i]) >> shift;
    std::size_t run = 1;
    for (; taken[slot]; ++run) slot = (slot + 1) & (capacity - 1);
    taken[slot] = true;
    total += run;
    longest = std::max(longest, run);
  }
  // Fibonacci hashing maps this grid of keys to distinct home slots;
  // random hashing at this load (0.31) would average about 1.2 probes.
  EXPECT_LE(longest, 4u);
  EXPECT_LE(static_cast<double>(total) / keys.size(), 1.1);
}

}  // namespace
}  // namespace coop::util
