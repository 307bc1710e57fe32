// Tests for disconnected operation: hoarding, cache reads, the operation
// log, bulk reintegration and conflict policies.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mobile/host.hpp"
#include "mobile/share_server.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace coop::mobile {
namespace {

constexpr net::Address kServer{100, 1};

class MobileTest : public ::testing::Test {
 protected:
  MobileTest() : sim(21), net(sim), server(net, kServer) {
    server.store().write("report", "draft v1");
    server.store().write("notes", "todo");
    server.store().write("budget", "1000");
  }

  sim::Simulator sim;
  net::Network net;
  ShareServer server;
};

TEST_F(MobileTest, ConnectedReadGoesToServerAndFillsCache) {
  MobileHost host(net, {1, 1}, kServer);
  std::optional<std::string> got;
  host.read("report", [&](bool ok, auto v) {
    EXPECT_TRUE(ok);
    got = v;
  });
  sim.run();
  EXPECT_EQ(got, "draft v1");
  EXPECT_EQ(host.cache_size(), 1u);
  EXPECT_EQ(host.stats().remote_reads, 1u);
}

TEST_F(MobileTest, ConnectedWriteReachesServer) {
  MobileHost host(net, {1, 1}, kServer);
  bool ok = false;
  host.write("report", "draft v2", [&](bool r) { ok = r; });
  sim.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(server.store().read("report"), "draft v2");
}

TEST_F(MobileTest, HoardFetchesProfileKeys) {
  MobileHost host(net, {1, 1}, kServer);
  std::size_t fetched = 0;
  host.hoard({"report", "notes", "missing"}, [&](std::size_t n) {
    fetched = n;
  });
  sim.run();
  EXPECT_EQ(fetched, 3u);  // absence is cached too
  EXPECT_EQ(host.cache_size(), 3u);
}

TEST_F(MobileTest, DisconnectedReadsServeFromCache) {
  MobileHost host(net, {1, 1}, kServer);
  host.hoard({"report", "missing"}, nullptr);
  sim.run();
  host.set_connectivity(net::Connectivity::kDisconnected);
  std::optional<std::string> got;
  bool hit = false;
  host.read("report", [&](bool ok, auto v) {
    hit = ok;
    got = v;
  });
  EXPECT_TRUE(hit);
  EXPECT_EQ(got, "draft v1");
  // Cached absence answers correctly without the network.
  host.read("missing", [&](bool ok, auto v) {
    EXPECT_TRUE(ok);
    EXPECT_FALSE(v.has_value());
  });
  // Unhoarded key: a genuine miss.
  host.read("budget", [&](bool ok, auto) { EXPECT_FALSE(ok); });
  EXPECT_EQ(host.stats().cache_misses, 1u);
  EXPECT_EQ(host.stats().cache_hits, 2u);
}

TEST_F(MobileTest, DisconnectedWritesLogAndReadYourWrites) {
  MobileHost host(net, {1, 1}, kServer);
  host.hoard({"report"}, nullptr);
  sim.run();
  host.set_connectivity(net::Connectivity::kDisconnected);
  host.write("report", "offline edit", [](bool ok) { EXPECT_TRUE(ok); });
  EXPECT_EQ(host.log_size(), 1u);
  host.read("report", [](bool ok, auto v) {
    EXPECT_TRUE(ok);
    EXPECT_EQ(v, "offline edit");
  });
  // The server is untouched while offline.
  EXPECT_EQ(server.store().read("report"), "draft v1");
}

TEST_F(MobileTest, RepeatedOfflineWritesCoalesceInLog) {
  MobileHost host(net, {1, 1}, kServer);
  host.hoard({"report"}, nullptr);
  sim.run();
  host.set_connectivity(net::Connectivity::kDisconnected);
  for (int i = 0; i < 10; ++i)
    host.write("report", "edit " + std::to_string(i), [](bool) {});
  EXPECT_EQ(host.log_size(), 1u);  // one entry, latest value
}

TEST_F(MobileTest, ReintegrationAppliesCleanLog) {
  MobileHost host(net, {1, 1}, kServer);
  host.hoard({"report", "notes"}, nullptr);
  sim.run();
  host.set_connectivity(net::Connectivity::kDisconnected);
  host.write("report", "offline report", [](bool) {});
  host.write("notes", "offline notes", [](bool) {});
  sim.run();
  host.set_connectivity(net::Connectivity::kFull);
  std::size_t applied = 0;
  std::vector<Conflict> conflicts;
  host.reintegrate([&](std::size_t a, const std::vector<Conflict>& c) {
    applied = a;
    conflicts = c;
  });
  sim.run();
  EXPECT_EQ(applied, 2u);
  EXPECT_TRUE(conflicts.empty());
  EXPECT_EQ(server.store().read("report"), "offline report");
  EXPECT_EQ(server.store().read("notes"), "offline notes");
  EXPECT_EQ(host.log_size(), 0u);
}

TEST_F(MobileTest, ConflictDetectedWhenServerChangedMeanwhile) {
  MobileHost host(net, {1, 1}, kServer);
  host.hoard({"report"}, nullptr);
  sim.run();
  host.set_connectivity(net::Connectivity::kDisconnected);
  host.write("report", "mobile version", [](bool) {});
  // A fixed-network colleague updates the same document meanwhile.
  server.store().write("report", "office version");
  host.set_connectivity(net::Connectivity::kFull);
  std::vector<Conflict> conflicts;
  host.reintegrate([&](std::size_t, const std::vector<Conflict>& c) {
    conflicts = c;
  });
  sim.run();
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(conflicts[0].local_value, "mobile version");
  EXPECT_EQ(conflicts[0].server_value, "office version");
  // Server-wins (default): the office version stands.
  EXPECT_EQ(server.store().read("report"), "office version");
  EXPECT_EQ(server.bulk_conflicts(), 1u);
}

TEST_F(MobileTest, ClientWinsPolicyForcesLocalValue) {
  MobileHost host(net, {1, 1}, kServer, ConflictPolicy::kClientWins);
  host.hoard({"report"}, nullptr);
  sim.run();
  host.set_connectivity(net::Connectivity::kDisconnected);
  host.write("report", "mobile version", [](bool) {});
  server.store().write("report", "office version");
  host.set_connectivity(net::Connectivity::kFull);
  host.reintegrate([](std::size_t, const auto&) {});
  sim.run();
  EXPECT_EQ(server.store().read("report"), "mobile version");
}

TEST_F(MobileTest, ManualPolicySurfacesConflict) {
  MobileHost host(net, {1, 1}, kServer, ConflictPolicy::kManual);
  std::vector<Conflict> surfaced;
  host.on_conflict([&](const Conflict& c) { surfaced.push_back(c); });
  host.hoard({"report"}, nullptr);
  sim.run();
  host.set_connectivity(net::Connectivity::kDisconnected);
  host.write("report", "mobile version", [](bool) {});
  server.store().write("report", "office version");
  host.set_connectivity(net::Connectivity::kFull);
  host.reintegrate([](std::size_t, const auto&) {});
  sim.run();
  ASSERT_EQ(surfaced.size(), 1u);
  EXPECT_EQ(surfaced[0].key, "report");
  // Manual keeps the server value until the user decides.
  EXPECT_EQ(server.store().read("report"), "office version");
}

TEST_F(MobileTest, FailedReintegrationRestoresLog) {
  MobileHost host(net, {1, 1}, kServer);
  host.hoard({"report"}, nullptr);
  sim.run();
  host.set_connectivity(net::Connectivity::kDisconnected);
  host.write("report", "edit", [](bool) {});
  // Still disconnected: the bulk RPC cannot reach the server.
  host.reintegrate([](std::size_t a, const auto&) { EXPECT_EQ(a, 0u); });
  sim.run();
  EXPECT_EQ(host.log_size(), 1u);  // preserved for the next attempt
}

TEST_F(MobileTest, MalformedBulkReplyRestoresLog) {
  // A fake server answers "bulk" first with more results than the log had
  // entries, then with a reply cut short.  Neither may be applied.
  constexpr net::Address kFake{101, 1};
  rpc::RpcServer fake(net, kFake);
  std::vector<std::string> replies{
      util::encode(std::vector<BulkResult>{{"report", false, 5, "theirs"},
                                           {"notes", false, 5, "theirs"},
                                           {"budget", false, 5, "theirs"}})
          .str()};
  replies.push_back(replies[0].substr(0, replies[0].size() - 2));
  std::size_t served = 0;
  fake.register_method("bulk", [&](const std::string&) {
    return rpc::HandlerResult::success(replies[served++]);
  });
  MobileHost host(net, {1, 1}, kFake);
  host.set_connectivity(net::Connectivity::kDisconnected);
  host.write("report", "edit", [](bool) {});
  host.set_connectivity(net::Connectivity::kFull);
  for (std::size_t i = 0; i < replies.size(); ++i) {
    std::size_t applied = 99;
    host.reintegrate([&applied](std::size_t a, const auto& conflicts) {
      applied = a;
      EXPECT_TRUE(conflicts.empty());
    });
    sim.run();
    EXPECT_EQ(applied, 0u) << "reply " << i;
    EXPECT_EQ(host.log_size(), 1u) << "reply " << i;
  }
  EXPECT_EQ(served, replies.size());
  EXPECT_EQ(host.stats().conflicts, 0u);
}

TEST_F(MobileTest, PartialConnectivityStillReachesServer) {
  net.set_radio_model({.latency = sim::msec(150), .jitter = sim::msec(20),
                       .bandwidth_bps = 19'200, .loss = 0.0});
  MobileHost host(net, {1, 1}, kServer);
  host.set_connectivity(net::Connectivity::kPartial);
  std::optional<std::string> got;
  host.read("report", [&](bool ok, auto v) {
    EXPECT_TRUE(ok);
    got = v;
  });
  sim.run();
  EXPECT_EQ(got, "draft v1");
  EXPECT_GT(sim.now(), sim::msec(250));  // radio latency was paid
}

TEST_F(MobileTest, EmptyLogReintegratesTrivially) {
  MobileHost host(net, {1, 1}, kServer);
  bool called = false;
  host.reintegrate([&](std::size_t a, const auto& c) {
    called = true;
    EXPECT_EQ(a, 0u);
    EXPECT_TRUE(c.empty());
  });
  EXPECT_TRUE(called);
}

}  // namespace
}  // namespace coop::mobile
