// Unit and property tests for Lamport clocks, vector clocks and causality.
#include <gtest/gtest.h>

#include "sim/rng.hpp"
#include "time/logical_clocks.hpp"
#include "util/codec.hpp"

namespace coop::logical {
namespace {

TEST(LamportClock, TickIncrements) {
  LamportClock c;
  EXPECT_EQ(c.tick(), 1u);
  EXPECT_EQ(c.tick(), 2u);
  EXPECT_EQ(c.time(), 2u);
}

TEST(LamportClock, MergeJumpsPastReceived) {
  LamportClock c;
  c.tick();
  EXPECT_EQ(c.merge(10), 11u);
  EXPECT_EQ(c.merge(3), 12u);  // stale timestamps still advance locally
}

TEST(VectorClock, FreshClocksAreEqual) {
  VectorClock a(3), b(3);
  EXPECT_EQ(a.compare(b), Causality::kEqual);
  EXPECT_TRUE(a == b);
}

TEST(VectorClock, TickCreatesHappenedBefore) {
  VectorClock a(3), b(3);
  b.tick(1);
  EXPECT_EQ(a.compare(b), Causality::kBefore);
  EXPECT_EQ(b.compare(a), Causality::kAfter);
  EXPECT_TRUE(b.dominates(a));
  EXPECT_FALSE(a.dominates(b));
}

TEST(VectorClock, IndependentTicksAreConcurrent) {
  VectorClock a(3), b(3);
  a.tick(0);
  b.tick(1);
  EXPECT_EQ(a.compare(b), Causality::kConcurrent);
  EXPECT_TRUE(a.concurrent_with(b));
  EXPECT_FALSE(a.dominates(b));
  EXPECT_FALSE(b.dominates(a));
}

TEST(VectorClock, MergeTakesPointwiseMax) {
  VectorClock a(3), b(3);
  a.tick(0);
  a.tick(0);
  b.tick(1);
  a.merge(b);
  EXPECT_EQ(a.at(0), 2u);
  EXPECT_EQ(a.at(1), 1u);
  EXPECT_TRUE(a.dominates(b));
}

TEST(VectorClock, DifferentWidthsCompareCorrectly) {
  VectorClock a(2), b(4);
  a.tick(0);
  b.tick(0);
  EXPECT_EQ(a.compare(b), Causality::kEqual);
  b.tick(3);
  EXPECT_EQ(a.compare(b), Causality::kBefore);
}

TEST(VectorClock, DeliverableFromRequiresExactlyNextFromSender) {
  VectorClock local(3);
  // First message from sender 1: msg = [0,1,0].
  VectorClock msg(3);
  msg.tick(1);
  EXPECT_TRUE(local.deliverable_from(msg, 1));
  // Second message without first being reflected locally: not deliverable.
  VectorClock msg2(3);
  msg2.tick(1);
  msg2.tick(1);
  EXPECT_FALSE(local.deliverable_from(msg2, 1));
  // After merging msg, msg2 becomes deliverable.
  local.merge(msg);
  EXPECT_TRUE(local.deliverable_from(msg2, 1));
}

TEST(VectorClock, DeliverableFromBlocksMissingCausalDependency) {
  // Sender 1's message depends on an event from site 2 the receiver has
  // not seen: must be held back.
  VectorClock local(3);
  VectorClock msg(3);
  msg.tick(2);  // dependency on site 2
  msg.tick(1);  // the send itself
  EXPECT_FALSE(local.deliverable_from(msg, 1));
  VectorClock dep(3);
  dep.tick(2);
  local.merge(dep);
  EXPECT_TRUE(local.deliverable_from(msg, 1));
}

TEST(VectorClock, EncodeDecodeRoundTrip) {
  VectorClock a(4);
  a.tick(0);
  a.tick(2);
  a.tick(2);
  const util::Buf buf = util::encode(a.values());
  util::ArrayView<std::uint64_t> wire;
  ASSERT_TRUE(util::decode(buf, wire));
  const VectorClock b(wire);
  EXPECT_TRUE(a == b);
}

TEST(VectorClock, ToStringIsReadable) {
  VectorClock a(3);
  a.tick(0);
  a.tick(2);
  EXPECT_EQ(a.to_string(), "[1,0,1]");
}

TEST(VectorClock, TotalSumsComponents) {
  VectorClock a(3);
  a.tick(0);
  a.tick(1);
  a.tick(1);
  EXPECT_EQ(a.total(), 3u);
}

// Property: compare() is antisymmetric and consistent with dominates().
TEST(VectorClockProperty, CompareAntisymmetricOnRandomClocks) {
  sim::Rng rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    VectorClock a(4), b(4);
    for (int i = 0; i < 6; ++i) {
      a.set(static_cast<std::size_t>(rng.uniform_int(0, 3)),
            static_cast<std::uint64_t>(rng.uniform_int(0, 3)));
      b.set(static_cast<std::size_t>(rng.uniform_int(0, 3)),
            static_cast<std::uint64_t>(rng.uniform_int(0, 3)));
    }
    const Causality ab = a.compare(b);
    const Causality ba = b.compare(a);
    switch (ab) {
      case Causality::kEqual:
        EXPECT_EQ(ba, Causality::kEqual);
        break;
      case Causality::kBefore:
        EXPECT_EQ(ba, Causality::kAfter);
        break;
      case Causality::kAfter:
        EXPECT_EQ(ba, Causality::kBefore);
        break;
      case Causality::kConcurrent:
        EXPECT_EQ(ba, Causality::kConcurrent);
        break;
    }
  }
}

// Property: merge produces a clock dominating both inputs (least upper
// bound behaviour is what reintegration relies on).
TEST(VectorClockProperty, MergeDominatesBothInputs) {
  sim::Rng rng(123);
  for (int trial = 0; trial < 500; ++trial) {
    VectorClock a(5), b(5);
    for (std::size_t i = 0; i < 5; ++i) {
      a.set(i, static_cast<std::uint64_t>(rng.uniform_int(0, 4)));
      b.set(i, static_cast<std::uint64_t>(rng.uniform_int(0, 4)));
    }
    VectorClock m = a;
    m.merge(b);
    EXPECT_TRUE(m.dominates(a));
    EXPECT_TRUE(m.dominates(b));
  }
}

}  // namespace
}  // namespace coop::logical
