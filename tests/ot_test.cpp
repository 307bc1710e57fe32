// Tests for the operational-transformation engine: transform correctness
// (TP1), Jupiter link behaviour, and randomized multi-client convergence.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "ccontrol/ot.hpp"
#include "sim/rng.hpp"

namespace coop::ccontrol {
namespace {

TEST(TextOp, ApplyInsert) {
  std::string doc = "hello";
  TextOp::insert(5, " world", 1).apply(doc);
  EXPECT_EQ(doc, "hello world");
  TextOp::insert(0, ">", 1).apply(doc);
  EXPECT_EQ(doc, ">hello world");
  TextOp::insert(999, "!", 1).apply(doc);  // clamps to end
  EXPECT_EQ(doc, ">hello world!");
}

TEST(TextOp, ApplyDelete) {
  std::string doc = "abc";
  TextOp::erase(1, 1).apply(doc);
  EXPECT_EQ(doc, "ac");
  TextOp::erase(99, 1).apply(doc);  // out of range: no-op
  EXPECT_EQ(doc, "ac");
}

TEST(TextOp, ApplyNoop) {
  std::string doc = "abc";
  TextOp::noop().apply(doc);
  EXPECT_EQ(doc, "abc");
}

// TP1: apply(apply(S, a), transform(b, a)) == apply(apply(S, b),
// transform(a, b)) for all single-char-delete / string-insert pairs.
TEST(Transform, Tp1HoldsExhaustivelyOnSmallDocs) {
  const std::string base = "abcdef";
  std::vector<TextOp> ops;
  for (std::size_t p = 0; p <= base.size(); ++p) {
    ops.push_back(TextOp::insert(p, "X", 1));
    ops.push_back(TextOp::insert(p, "YZ", 2));
  }
  for (std::size_t p = 0; p < base.size(); ++p) {
    ops.push_back(TextOp::erase(p, 1));
    ops.push_back(TextOp::erase(p, 2));
  }
  int checked = 0;
  for (const TextOp& a : ops) {
    for (const TextOp& b : ops) {
      if (a.site == b.site) continue;  // concurrent ops from one site
      std::string s1 = base;
      a.apply(s1);
      transform(b, a).apply(s1);
      std::string s2 = base;
      b.apply(s2);
      transform(a, b).apply(s2);
      EXPECT_EQ(s1, s2) << "a={" << static_cast<int>(a.kind) << "," << a.pos
                        << ",'" << a.text << "'} b={"
                        << static_cast<int>(b.kind) << "," << b.pos << ",'"
                        << b.text << "'}";
      ++checked;
    }
  }
  EXPECT_GT(checked, 300);
}

TEST(Transform, ConcurrentInsertsAtSamePositionUseSiteTieBreak) {
  const std::string base = "__";
  const TextOp a = TextOp::insert(1, "A", 1);
  const TextOp b = TextOp::insert(1, "B", 2);
  std::string s1 = base;
  a.apply(s1);
  transform(b, a).apply(s1);
  std::string s2 = base;
  b.apply(s2);
  transform(a, b).apply(s2);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1, "_AB_");  // lower site id lands first
}

TEST(Transform, DeleteSameCharacterConvergesToSingleRemoval) {
  const std::string base = "xyz";
  const TextOp a = TextOp::erase(1, 1);
  const TextOp b = TextOp::erase(1, 2);
  std::string s1 = base;
  a.apply(s1);
  transform(b, a).apply(s1);
  EXPECT_EQ(s1, "xz");
  EXPECT_TRUE(transform(b, a).is_noop());
}

TEST(OtLinkTest, AcknowledgementPrunesOutgoing) {
  OtLink a;
  a.generate(TextOp::insert(0, "x", 1));
  a.generate(TextOp::insert(1, "y", 1));
  EXPECT_EQ(a.in_flight(), 2u);
  // Peer message acknowledging our first op.
  OtLink::Message msg;
  msg.op = TextOp::insert(0, "z", 2);
  msg.sender_generated = 0;
  msg.sender_received = 1;  // peer saw our first op
  a.receive(msg);
  EXPECT_EQ(a.in_flight(), 1u);
}

// Two clients through a server, with explicit message queues that we can
// drain in adversarial orders.
struct Net2 {
  OtClient a{1}, b{2};
  OtServer server;
  std::deque<OtLink::Message> to_server_a, to_server_b;  // client -> server
  std::deque<OtLink::Message> to_a, to_b;                // server -> client
  std::vector<OtServer::Outgoing> out;                   // reused fan-out

  Net2(const std::string& initial)
      : a(1, initial), b(2, initial), server(initial) {
    server.add_client(1);
    server.add_client(2);
  }

  void pump_one_server_msg(SiteId from) {
    auto& q = from == 1 ? to_server_a : to_server_b;
    if (q.empty()) return;
    server.receive(from, q.front(), out);
    q.pop_front();
    for (auto& o : out) (o.to == 1 ? to_a : to_b).push_back(o.message);
  }
  void pump_one_client_msg(SiteId to) {
    auto& q = to == 1 ? to_a : to_b;
    if (q.empty()) return;
    (to == 1 ? a : b).receive(q.front());
    q.pop_front();
  }
  bool drained() const {
    return to_server_a.empty() && to_server_b.empty() && to_a.empty() &&
           to_b.empty();
  }
  void drain_all() {
    while (!drained()) {
      pump_one_server_msg(1);
      pump_one_server_msg(2);
      pump_one_client_msg(1);
      pump_one_client_msg(2);
    }
  }
};

TEST(Jupiter, ConcurrentInsertsConverge) {
  Net2 net("shared");
  net.to_server_a.push_back(net.a.local_insert(0, "A"));
  net.to_server_b.push_back(net.b.local_insert(6, "B"));
  net.drain_all();
  EXPECT_EQ(net.a.doc(), net.b.doc());
  EXPECT_EQ(net.a.doc(), net.server.doc());
  EXPECT_EQ(net.a.doc(), "AsharedB");
}

TEST(Jupiter, InsertVsDeleteConverge) {
  Net2 net("abc");
  net.to_server_a.push_back(net.a.local_insert(1, "X"));   // aXbc
  net.to_server_b.push_back(net.b.local_delete(2));        // ab
  net.drain_all();
  EXPECT_EQ(net.a.doc(), net.b.doc());
  EXPECT_EQ(net.a.doc(), net.server.doc());
  EXPECT_EQ(net.a.doc(), "aXb");
}

TEST(Jupiter, LocalEditsApplyImmediately) {
  Net2 net("doc");
  const auto msg = net.a.local_insert(3, "!");
  EXPECT_EQ(net.a.doc(), "doc!");  // zero response time
  (void)msg;
}

TEST(Jupiter, RapidFireFromBothSidesConverges) {
  Net2 net("0123456789");
  for (int i = 0; i < 5; ++i) {
    net.to_server_a.push_back(net.a.local_insert(
        static_cast<std::size_t>(i), "a"));
    net.to_server_b.push_back(net.b.local_delete(0));
  }
  net.drain_all();
  EXPECT_EQ(net.a.doc(), net.b.doc());
  EXPECT_EQ(net.a.doc(), net.server.doc());
}

TEST(Jupiter, RemovedClientStopsReceivingOthersContinue) {
  OtServer server("base");
  server.add_client(1);
  server.add_client(2);
  server.add_client(3);
  EXPECT_EQ(server.client_count(), 3u);
  OtClient c1(1, "base");
  std::vector<OtServer::Outgoing> out;
  server.receive(1, c1.local_insert(0, "X"), out);
  EXPECT_EQ(out.size(), 2u);  // fan-out to 2 and 3
  server.remove_client(3);
  server.receive(1, c1.local_insert(1, "Y"), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].to, 2u);
  // Messages from an unknown client are ignored.
  OtClient ghost(9, "base");
  server.receive(9, ghost.local_insert(0, "Z"), out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(server.doc(), "XYbase");
}

// Property: N clients, random concurrent edits, random interleaving of
// message pumping — after draining, all replicas agree.
class OtConvergence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OtConvergence, RandomEditsConvergeAcrossThreeClients) {
  sim::Rng rng(GetParam());
  const std::string initial = "The quick brown fox";
  OtServer server(initial);
  std::vector<OtClient> clients;
  for (SiteId s = 1; s <= 3; ++s) {
    clients.emplace_back(s, initial);
    server.add_client(s);
  }
  std::vector<std::deque<OtLink::Message>> to_server(3), to_client(3);
  std::vector<OtServer::Outgoing> out;

  auto random_edit = [&](std::size_t c) {
    OtClient& cl = clients[c];
    if (!cl.doc().empty() && rng.bernoulli(0.4)) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(cl.doc().size()) - 1));
      to_server[c].push_back(cl.local_delete(pos));
    } else {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(cl.doc().size())));
      const char ch = static_cast<char>('a' + rng.uniform_int(0, 25));
      to_server[c].push_back(cl.local_insert(pos, std::string(1, ch)));
    }
  };

  // Interleave edits and partial message pumping adversarially.
  for (int round = 0; round < 120; ++round) {
    const int action = static_cast<int>(rng.uniform_int(0, 2));
    const auto c = static_cast<std::size_t>(rng.uniform_int(0, 2));
    if (action == 0) {
      random_edit(c);
    } else if (action == 1 && !to_server[c].empty()) {
      server.receive(static_cast<SiteId>(c + 1), to_server[c].front(),
                     out);
      to_server[c].pop_front();
      for (auto& o : out) to_client[o.to - 1].push_back(o.message);
    } else if (!to_client[c].empty()) {
      clients[c].receive(to_client[c].front());
      to_client[c].pop_front();
    }
  }
  // Drain everything (server first, then clients, repeatedly).
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t c = 0; c < 3; ++c) {
      while (!to_server[c].empty()) {
        server.receive(static_cast<SiteId>(c + 1), to_server[c].front(),
                       out);
        to_server[c].pop_front();
        for (auto& o : out) to_client[o.to - 1].push_back(o.message);
        progress = true;
      }
      while (!to_client[c].empty()) {
        clients[c].receive(to_client[c].front());
        to_client[c].pop_front();
        progress = true;
      }
    }
  }
  for (const OtClient& c : clients) {
    EXPECT_EQ(c.doc(), server.doc()) << "site " << c.site() << " diverged";
    // Note: in_flight() may be nonzero here — Jupiter acknowledgements
    // piggyback on server->client traffic, so a client whose final ops
    // drew no later server message legitimately still holds them.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OtConvergence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u,
                                           9u, 10u, 11u, 12u));

}  // namespace
}  // namespace coop::ccontrol
