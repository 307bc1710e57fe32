// Tests for transaction groups (tailorable access rules) and floor control
// policies.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ccontrol/floor.hpp"
#include "ccontrol/store.hpp"
#include "ccontrol/txgroup.hpp"
#include "sim/simulator.hpp"

namespace coop::ccontrol {
namespace {

constexpr ClientId kAlice = 1;
constexpr ClientId kBob = 2;
constexpr ClientId kCarol = 3;

// ------------------------------------------------------ transaction groups

TEST(TxGroup, NonMembersAreRejected) {
  ObjectStore store;
  TransactionGroup g(store);
  EXPECT_FALSE(g.write(kAlice, "k", "v"));
  g.join(kAlice);
  EXPECT_TRUE(g.write(kAlice, "k", "v"));
  g.leave(kAlice);
  EXPECT_FALSE(g.write(kAlice, "k", "v2"));
}

TEST(TxGroup, SerialRuleDeniesOverlappingWrite) {
  ObjectStore store;
  TransactionGroup g(store);
  g.set_rule(TransactionGroup::serial_rule());
  g.join(kAlice);
  g.join(kBob);
  g.begin_activity(kAlice, "sec1", /*writing=*/true);
  EXPECT_TRUE(g.write(kAlice, "sec1", "a"));
  EXPECT_FALSE(g.write(kBob, "sec1", "b"));  // denied: active writer
  EXPECT_EQ(g.stats().denied, 1u);
  EXPECT_EQ(store.read("sec1"), "a");
  // Alice finishes; Bob may now write.
  g.end_activity(kAlice);
  EXPECT_TRUE(g.write(kBob, "sec1", "b"));
}

TEST(TxGroup, SerialRuleDeniesWriteOverActiveReaders) {
  ObjectStore store;
  TransactionGroup g(store);
  g.set_rule(TransactionGroup::serial_rule());
  g.join(kAlice);
  g.join(kBob);
  g.begin_activity(kAlice, "sec1", /*writing=*/false);
  EXPECT_FALSE(g.write(kBob, "sec1", "b"));
  EXPECT_TRUE(g.read(kBob, "sec1").has_value() == false);  // key absent
}

TEST(TxGroup, CooperativeRuleAllowsOverlapWithNotification) {
  ObjectStore store;
  TransactionGroup g(store);
  g.set_rule(TransactionGroup::cooperative_rule());
  std::vector<std::pair<ClientId, ClientId>> notices;  // (notified, actor)
  g.on_notify([&](ClientId notified, const OpContext& ctx) {
    notices.emplace_back(notified, ctx.member);
  });
  g.join(kAlice);
  g.join(kBob);
  g.begin_activity(kAlice, "sec1", /*writing=*/true);
  EXPECT_TRUE(g.write(kBob, "sec1", "b"));  // allowed despite overlap
  ASSERT_EQ(notices.size(), 1u);
  EXPECT_EQ(notices[0], (std::pair<ClientId, ClientId>{kAlice, kBob}));
  EXPECT_EQ(g.stats().notifications, 1u);
  EXPECT_EQ(g.stats().denied, 0u);
}

TEST(TxGroup, TailoringSwapsPolicyAtRuntime) {
  ObjectStore store;
  TransactionGroup g(store);
  g.join(kAlice);
  g.join(kBob);
  g.begin_activity(kAlice, "sec1", /*writing=*/true);
  g.set_rule(TransactionGroup::serial_rule());
  EXPECT_FALSE(g.write(kBob, "sec1", "x"));
  g.set_rule(TransactionGroup::cooperative_rule());
  EXPECT_TRUE(g.write(kBob, "sec1", "x"));  // same situation, new policy
}

TEST(TxGroup, OwnerRuleRestrictsWrites) {
  ObjectStore store;
  TransactionGroup g(store);
  g.set_rule(TransactionGroup::owner_rule({{"intro", kAlice}}));
  g.join(kAlice);
  g.join(kBob);
  EXPECT_TRUE(g.write(kAlice, "intro", "by alice"));
  EXPECT_FALSE(g.write(kBob, "intro", "by bob"));
  EXPECT_TRUE(g.write(kBob, "body", "unowned section"));
  EXPECT_EQ(store.read("intro"), "by alice");
}

TEST(TxGroup, LeaveEndsActivity) {
  ObjectStore store;
  TransactionGroup g(store);
  g.set_rule(TransactionGroup::serial_rule());
  g.join(kAlice);
  g.join(kBob);
  g.begin_activity(kAlice, "sec1", /*writing=*/true);
  EXPECT_FALSE(g.write(kBob, "sec1", "x"));
  g.leave(kAlice);  // implicit end_activity
  EXPECT_TRUE(g.write(kBob, "sec1", "x"));
}

// -------------------------------------------------------------- floor

TEST(Floor, FirstRequesterGetsFloorImmediately) {
  sim::Simulator sim;
  FloorControl fc(sim, {.policy = FloorPolicy::kExplicitRelease});
  bool got = false;
  fc.request(kAlice, [&](bool g) { got = g; });
  EXPECT_TRUE(got);
  EXPECT_EQ(fc.holder(), kAlice);
}

TEST(Floor, ExplicitReleasePassesFifo) {
  sim::Simulator sim;
  FloorControl fc(sim, {.policy = FloorPolicy::kExplicitRelease});
  std::vector<ClientId> order;
  fc.request(kAlice, [&](bool) { order.push_back(kAlice); });
  fc.request(kBob, [&](bool) { order.push_back(kBob); });
  fc.request(kCarol, [&](bool) { order.push_back(kCarol); });
  EXPECT_EQ(order, (std::vector<ClientId>{kAlice}));
  EXPECT_EQ(fc.queue_length(), 2u);
  fc.release(kAlice);
  EXPECT_EQ(fc.holder(), kBob);
  fc.release(kBob);
  EXPECT_EQ(order, (std::vector<ClientId>{kAlice, kBob, kCarol}));
}

TEST(Floor, ReleaseByNonHolderRetractsQueuedRequest) {
  sim::Simulator sim;
  FloorControl fc(sim, {.policy = FloorPolicy::kExplicitRelease});
  fc.request(kAlice, nullptr);
  fc.request(kBob, nullptr);
  fc.release(kBob);  // Bob changes his mind
  EXPECT_EQ(fc.queue_length(), 0u);
  fc.release(kAlice);
  EXPECT_FALSE(fc.holder().has_value());
}

TEST(Floor, PreemptiveTransfersImmediately) {
  sim::Simulator sim;
  FloorControl fc(sim, {.policy = FloorPolicy::kPreemptive});
  std::vector<std::pair<std::optional<ClientId>, std::optional<ClientId>>>
      changes;
  fc.on_floor_change([&](auto prev, auto next) {
    changes.emplace_back(prev, next);
  });
  fc.request(kAlice, nullptr);
  fc.request(kBob, nullptr);
  EXPECT_EQ(fc.holder(), kBob);
  EXPECT_EQ(fc.stats().preemptions, 1u);
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_EQ(changes[1].first, kAlice);
  EXPECT_EQ(changes[1].second, kBob);
}

TEST(Floor, RoundRobinRotatesOnTimer) {
  sim::Simulator sim;
  FloorControl fc(sim, {.policy = FloorPolicy::kRoundRobin,
                        .rotation_period = sim::sec(5)});
  fc.request(kAlice, nullptr);
  fc.request(kBob, nullptr);
  fc.request(kCarol, nullptr);
  EXPECT_EQ(fc.holder(), kAlice);
  sim.run_until(sim::sec(6));
  EXPECT_EQ(fc.holder(), kBob);
  sim.run_until(sim::sec(11));
  EXPECT_EQ(fc.holder(), kCarol);
}

TEST(Floor, RoundRobinHolderKeepsFloorWhenQueueEmpty) {
  sim::Simulator sim;
  FloorControl fc(sim, {.policy = FloorPolicy::kRoundRobin,
                        .rotation_period = sim::sec(5)});
  fc.request(kAlice, nullptr);
  sim.run_until(sim::sec(30));
  EXPECT_EQ(fc.holder(), kAlice);
}

TEST(Floor, NegotiationGrantPassesFloor) {
  sim::Simulator sim;
  FloorControl fc(sim, {.policy = FloorPolicy::kNegotiation,
                        .negotiation_timeout = sim::sec(3)});
  std::vector<std::pair<ClientId, ClientId>> asks;
  fc.on_negotiate([&](ClientId holder, ClientId asker) {
    asks.emplace_back(holder, asker);
  });
  fc.request(kAlice, nullptr);
  bool bob_got = false;
  fc.request(kBob, [&](bool g) { bob_got = g; });
  ASSERT_EQ(asks.size(), 1u);
  EXPECT_EQ(asks[0], (std::pair<ClientId, ClientId>{kAlice, kBob}));
  fc.respond(kAlice, true);
  EXPECT_TRUE(bob_got);
  EXPECT_EQ(fc.holder(), kBob);
}

TEST(Floor, NegotiationRefusalDeniesRequest) {
  sim::Simulator sim;
  FloorControl fc(sim, {.policy = FloorPolicy::kNegotiation});
  fc.request(kAlice, nullptr);
  bool called = false, granted = true;
  fc.request(kBob, [&](bool g) {
    called = true;
    granted = g;
  });
  fc.respond(kAlice, false);
  EXPECT_TRUE(called);
  EXPECT_FALSE(granted);
  EXPECT_EQ(fc.holder(), kAlice);
  EXPECT_EQ(fc.stats().refusals, 1u);
  // The refused request is gone; the timeout must not fire later.
  sim.run();
  EXPECT_EQ(fc.holder(), kAlice);
}

TEST(Floor, NegotiationSilenceIsConsent) {
  sim::Simulator sim;
  FloorControl fc(sim, {.policy = FloorPolicy::kNegotiation,
                        .negotiation_timeout = sim::sec(3)});
  fc.request(kAlice, nullptr);
  bool bob_got = false;
  fc.request(kBob, [&](bool g) { bob_got = g; });
  sim.run_until(sim::sec(2));
  EXPECT_FALSE(bob_got);
  sim.run_until(sim::sec(4));  // holder stayed silent
  EXPECT_TRUE(bob_got);
  EXPECT_EQ(fc.holder(), kBob);
  EXPECT_EQ(fc.stats().auto_grants, 1u);
}

TEST(Floor, ReRequestWhileQueuedIsIdempotent) {
  sim::Simulator sim;
  FloorControl fc(sim, {.policy = FloorPolicy::kExplicitRelease});
  fc.request(kAlice, nullptr);
  int grants = 0;
  fc.request(kBob, [&](bool) { ++grants; });
  fc.request(kBob, [&](bool) { ++grants; });  // impatient re-request
  fc.request(kBob, nullptr);
  EXPECT_EQ(fc.queue_length(), 1u);
  fc.release(kAlice);
  EXPECT_EQ(fc.holder(), kBob);
  EXPECT_EQ(grants, 1);
  // No stale queue entry remains to wedge the floor later.
  fc.release(kBob);
  EXPECT_FALSE(fc.holder().has_value());
}

TEST(Floor, ReRequestByHolderIsIdempotent) {
  sim::Simulator sim;
  FloorControl fc(sim, {.policy = FloorPolicy::kExplicitRelease});
  fc.request(kAlice, nullptr);
  bool again = false;
  fc.request(kAlice, [&](bool g) { again = g; });
  EXPECT_TRUE(again);
  EXPECT_EQ(fc.stats().grants, 1u);  // no double grant
}

TEST(Floor, PolicyTailoringMidSession) {
  sim::Simulator sim;
  FloorControl fc(sim, {.policy = FloorPolicy::kExplicitRelease});
  fc.request(kAlice, nullptr);
  bool bob = false;
  fc.request(kBob, [&](bool g) { bob = g; });
  EXPECT_FALSE(bob);  // explicit release: Bob queues
  // The session tailors to preemptive: the NEXT request preempts, but
  // Bob's queued request keeps waiting for a release.
  fc.set_policy(FloorPolicy::kPreemptive);
  EXPECT_EQ(fc.policy(), FloorPolicy::kPreemptive);
  fc.request(kCarol, nullptr);
  EXPECT_EQ(fc.holder(), kCarol);
  EXPECT_FALSE(bob);
  fc.release(kCarol);
  EXPECT_TRUE(bob);  // queue drains on release as usual
}

TEST(Floor, LeavingNegotiationDisarmsConsentTimers) {
  sim::Simulator sim;
  FloorControl fc(sim, {.policy = FloorPolicy::kNegotiation,
                        .negotiation_timeout = sim::sec(3)});
  fc.request(kAlice, nullptr);
  bool bob = false;
  fc.request(kBob, [&](bool g) { bob = g; });
  fc.set_policy(FloorPolicy::kExplicitRelease);
  sim.run_until(sim::sec(10));  // the old silence-is-consent must NOT fire
  EXPECT_FALSE(bob);
  EXPECT_EQ(fc.stats().auto_grants, 0u);
  fc.release(kAlice);
  EXPECT_TRUE(bob);
}

TEST(Floor, SwitchingToRoundRobinStartsRotation) {
  sim::Simulator sim;
  FloorControl fc(sim, {.policy = FloorPolicy::kExplicitRelease,
                        .rotation_period = sim::sec(5)});
  fc.request(kAlice, nullptr);
  fc.request(kBob, nullptr);
  fc.set_policy(FloorPolicy::kRoundRobin);
  sim.run_until(sim::sec(6));
  EXPECT_EQ(fc.holder(), kBob);  // rotation kicked in
}

TEST(Floor, WaitTimesAreRecorded) {
  sim::Simulator sim;
  FloorControl fc(sim, {.policy = FloorPolicy::kExplicitRelease});
  fc.request(kAlice, nullptr);
  fc.request(kBob, nullptr);
  sim.run_until(sim::sec(7));
  fc.release(kAlice);
  EXPECT_DOUBLE_EQ(fc.stats().wait_time.max_seen(),
                   static_cast<double>(sim::sec(7)));
}

}  // namespace
}  // namespace coop::ccontrol
