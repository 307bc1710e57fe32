// Tests for the flat tables that resolve addresses on the datagram path:
// the network's endpoint and route tables and a FIFO channel's peer table.
//
// A std::map reference model of the network's datagram semantics must
// agree with Network on every delivery, drop, link state and lookahead
// over random topology and fault sequences; and tables that grow inside
// a callback (the inject hook, an endpoint, a FIFO receive callback) must
// leave the frame or message in progress exactly as a run whose tables
// were grown beforehand would.  The sanitizer build turns a dangling
// reference into the table into a hard failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "net/fifo_channel.hpp"
#include "net/network.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace coop::net {
namespace {

/// One delivery: which endpoint object got which frame, when.
struct Delivery {
  int tag = 0;
  Address dst;
  std::uint64_t id = 0;
  sim::TimePoint at = 0;
  bool operator==(const Delivery&) const = default;
};

class Tagged : public Endpoint {
 public:
  Tagged(int tag, sim::Simulator& sim, std::vector<Delivery>& log)
      : tag_(tag), sim_(sim), log_(log) {}
  void on_message(const Message& msg) override {
    log_.push_back({tag_, msg.dst, msg.id, sim_.now()});
  }

 private:
  int tag_;
  sim::Simulator& sim_;
  std::vector<Delivery>& log_;
};

/// The network's unicast semantics over std::map tables: crash, partition
/// and connectivity checks, per-link loss, serialization and propagation,
/// the arrival re-check and endpoint demux, drawing from the simulator's
/// random stream in the same order.  No checksums, fault injection,
/// disturbances or multicast.
class MapModel {
 public:
  explicit MapModel(sim::Simulator& sim) : sim_(sim) {}

  void attach(const Address& a, Endpoint& ep) { endpoints_[a] = &ep; }
  void detach(const Address& a) { endpoints_.erase(a); }
  void set_link(NodeId from, NodeId to, const LinkModel& m) {
    links_[{from, to}] = m;
  }
  void crash(NodeId n) { crashed_.insert(n); }
  void recover(NodeId n) { crashed_.erase(n); }
  void restart(NodeId n) {
    crashed_.erase(n);
    for (auto& [pair, state] : states_)
      if (pair.first == n) state.busy_until = 0;
  }
  void partition(const std::set<NodeId>& a, const std::set<NodeId>& b) {
    partitioned_ = true;
    side_a_ = a;
    side_b_ = b;
  }
  void heal_partition() { partitioned_ = false; }
  void set_connectivity(NodeId n, Connectivity c) { connectivity_[n] = c; }

  [[nodiscard]] const LinkState* link_state(NodeId from, NodeId to) const {
    auto it = states_.find({from, to});
    return it == states_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] sim::Duration lookahead() const {
    sim::Duration la = LinkModel::lan().min_latency();
    for (const auto& [pair, m] : links_) la = std::min(la, m.min_latency());
    if (!connectivity_.empty())
      la = std::min(la, LinkModel::radio().min_latency());
    return la;
  }

  std::uint64_t send(Message msg) {
    msg.id = next_id_++;
    msg.sent_at = sim_.now();
    msg.wire_size = msg.payload.size() + Message::kHeaderBytes;
    ++stats.sent;
    const NodeId from = msg.src.node;
    const NodeId to = msg.dst.node;
    std::optional<LinkModel> link;
    if (!crashed_.count(from) && !crashed_.count(to) && !blocks(from, to))
      link = effective_link(from, to);
    if (!link) {
      ++stats.dropped_partition;
      return msg.id;
    }
    LinkState& state = states_[{from, to}];
    if (link->loss > 0 && sim_.rng().bernoulli(link->loss)) {
      ++stats.dropped_loss;
      ++state.dropped;
      return msg.id;
    }
    const sim::TimePoint start = std::max(sim_.now(), state.busy_until);
    state.busy_until = start + link->serialize_time(msg.wire_size);
    ++state.sent;
    state.bytes += msg.wire_size;
    const sim::TimePoint arrival =
        state.busy_until + link->propagation(sim_.rng());
    sim_.schedule_at(arrival, [this, msg] { deliver(msg); });
    return msg.id;
  }

  NetworkStats stats;

 private:
  [[nodiscard]] Connectivity level(NodeId n) const {
    auto it = connectivity_.find(n);
    return it == connectivity_.end() ? Connectivity::kFull : it->second;
  }

  [[nodiscard]] std::optional<LinkModel> effective_link(NodeId from,
                                                        NodeId to) const {
    const Connectivity cf = level(from);
    const Connectivity ct = level(to);
    if (cf == Connectivity::kDisconnected || ct == Connectivity::kDisconnected)
      return std::nullopt;
    if (cf == Connectivity::kPartial || ct == Connectivity::kPartial)
      return LinkModel::radio();
    auto it = links_.find({from, to});
    return it == links_.end() ? LinkModel::lan() : it->second;
  }

  [[nodiscard]] bool blocks(NodeId a, NodeId b) const {
    if (!partitioned_) return false;
    const bool a_in_a = side_a_.count(a) != 0;
    const bool b_in_a = side_a_.count(b) != 0;
    if (side_b_.empty()) return a_in_a != b_in_a;
    const bool a_in_b = side_b_.count(a) != 0;
    const bool b_in_b = side_b_.count(b) != 0;
    return (a_in_a && b_in_b) || (a_in_b && b_in_a);
  }

  void deliver(const Message& msg) {
    if (crashed_.count(msg.dst.node) ||
        level(msg.dst.node) == Connectivity::kDisconnected ||
        blocks(msg.src.node, msg.dst.node)) {
      ++stats.dropped_partition;
      return;
    }
    auto it = endpoints_.find(msg.dst);
    if (it == endpoints_.end()) {
      ++stats.dropped_no_endpoint;
      return;
    }
    ++stats.delivered;
    it->second->on_message(msg);
  }

  sim::Simulator& sim_;
  std::map<Address, Endpoint*> endpoints_;
  std::map<std::pair<NodeId, NodeId>, LinkModel> links_;
  std::map<std::pair<NodeId, NodeId>, LinkState> states_;
  std::set<NodeId> crashed_;
  std::map<NodeId, Connectivity> connectivity_;
  bool partitioned_ = false;
  std::set<NodeId> side_a_;
  std::set<NodeId> side_b_;
  std::uint64_t next_id_ = 1;
};

constexpr NodeId kNodes = 6;
constexpr PortId kPorts = 2;

/// Everything one run of a script produced.
struct Outcome {
  std::vector<Delivery> log;
  std::vector<sim::Duration> lookaheads;  ///< after every step
  NetworkStats stats;
  /// link_state() of every ordered pair at the end; sent == ~0 for null.
  std::vector<LinkState> states;
};

/// Plays a random script of topology, fault and traffic steps, one every
/// few hundred microseconds, against @p net (a Network or a MapModel).
/// The script draws from its own stream, so both targets see the same one.
template <class Net>
Outcome play(std::uint64_t seed, sim::Simulator& sim, Net& net) {
  Outcome out;
  // Two endpoint objects per address, so a re-attach that replaces the
  // first with the second shows up in the log.
  std::deque<Tagged> endpoints;
  for (int i = 0; i < 2 * static_cast<int>(kNodes * kPorts); ++i)
    endpoints.emplace_back(i, sim, out.log);
  for (NodeId node = 0; node < kNodes; ++node)
    for (PortId port = 1; port <= kPorts; ++port)
      net.attach({node, port}, endpoints[(node * kPorts + port - 1u) * 2]);
  sim::Rng script(seed);
  auto pick_node = [&] {
    return static_cast<NodeId>(script.uniform_int(0, kNodes - 1));
  };
  auto pick_addr = [&](int& slot) {
    const NodeId node = pick_node();
    const auto port = static_cast<PortId>(script.uniform_int(1, kPorts));
    slot = static_cast<int>(node * kPorts + (port - 1u)) * 2;
    return Address{node, port};
  };
  sim::TimePoint at = 0;
  for (int step = 0; step < 300; ++step) {
    at += script.uniform_int(0, 600);
    const double roll = script.uniform();
    std::function<void()> action;
    int slot = 0;
    if (roll < 0.45) {
      const Address src = pick_addr(slot);
      const Address dst = pick_addr(slot);
      const auto bytes = static_cast<std::size_t>(script.uniform_int(0, 400));
      action = [&net, src, dst, bytes] {
        net.send({.src = src, .dst = dst, .payload = std::string(bytes, 'x')});
      };
    } else if (roll < 0.55) {
      const Address a = pick_addr(slot);
      Tagged& ep = endpoints[static_cast<std::size_t>(
          slot + script.uniform_int(0, 1))];
      action = [&net, a, &ep] { net.attach(a, ep); };
    } else if (roll < 0.60) {
      const Address a = pick_addr(slot);
      action = [&net, a] { net.detach(a); };
    } else if (roll < 0.72) {
      const NodeId from = pick_node();
      const NodeId to = pick_node();
      const LinkModel m{
          .latency = script.uniform_int(50, 3000),
          .jitter = script.uniform() < 0.5 ? 0 : script.uniform_int(0, 800),
          .bandwidth_bps = script.uniform() < 0.3 ? 0.0 : 1e6,
          .loss = script.uniform() < 0.7 ? 0.0 : 0.25};
      action = [&net, from, to, m] { net.set_link(from, to, m); };
    } else if (roll < 0.76) {
      const NodeId n = pick_node();
      action = [&net, n] { net.crash(n); };
    } else if (roll < 0.80) {
      const NodeId n = pick_node();
      action = [&net, n] { net.recover(n); };
    } else if (roll < 0.84) {
      const NodeId n = pick_node();
      action = [&net, n] { net.restart(n); };
    } else if (roll < 0.87) {
      std::set<NodeId> a;
      std::set<NodeId> b;
      for (NodeId n = 0; n < kNodes; ++n) {
        const double side = script.uniform();
        if (side < 0.4) a.insert(n);
        else if (side < 0.6) b.insert(n);
      }
      action = [&net, a, b] { net.partition(a, b); };
    } else if (roll < 0.92) {
      action = [&net] { net.heal_partition(); };
    } else {
      const NodeId n = pick_node();
      const double level = script.uniform();
      const Connectivity c = level < 0.15  ? Connectivity::kDisconnected
                             : level < 0.4 ? Connectivity::kPartial
                                           : Connectivity::kFull;
      action = [&net, n, c] { net.set_connectivity(n, c); };
    }
    sim.schedule_at(at, [&out, &net, action = std::move(action)] {
      action();
      out.lookaheads.push_back(net.lookahead());
    });
  }
  sim.run();
  for (NodeId from = 0; from < kNodes; ++from) {
    for (NodeId to = 0; to < kNodes; ++to) {
      const LinkState* s = net.link_state(from, to);
      out.states.push_back(s != nullptr ? *s : LinkState{.sent = ~0ull});
    }
  }
  return out;
}

TEST(NetworkTables, MatchesMapModel) {
  NetworkStats total;
  std::uint64_t null_states = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    sim::Simulator real_sim{seed};
    Network real{real_sim};
    Outcome got = play(seed, real_sim, real);
    got.stats = real.stats();
    sim::Simulator model_sim{seed};
    MapModel model{model_sim};
    Outcome want = play(seed, model_sim, model);
    want.stats = model.stats;

    ASSERT_EQ(got.log, want.log) << "seed " << seed;
    EXPECT_EQ(got.lookaheads, want.lookaheads) << "seed " << seed;
    EXPECT_EQ(got.stats.sent, want.stats.sent) << "seed " << seed;
    EXPECT_EQ(got.stats.delivered, want.stats.delivered) << "seed " << seed;
    EXPECT_EQ(got.stats.dropped_loss, want.stats.dropped_loss)
        << "seed " << seed;
    EXPECT_EQ(got.stats.dropped_partition, want.stats.dropped_partition)
        << "seed " << seed;
    EXPECT_EQ(got.stats.dropped_no_endpoint, want.stats.dropped_no_endpoint)
        << "seed " << seed;
    ASSERT_EQ(got.states.size(), want.states.size());
    for (std::size_t i = 0; i < got.states.size(); ++i) {
      const LinkState& g = got.states[i];
      const LinkState& w = want.states[i];
      EXPECT_TRUE(g.busy_until == w.busy_until && g.sent == w.sent &&
                  g.dropped == w.dropped && g.bytes == w.bytes)
          << "seed " << seed << " pair " << i / kNodes << "->" << i % kNodes;
      if (w.sent == ~0ull) ++null_states;
    }
    total.delivered += got.stats.delivered;
    total.dropped_loss += got.stats.dropped_loss;
    total.dropped_no_endpoint += got.stats.dropped_no_endpoint;
  }
  // The scripts exercised every outcome of every lookup.
  EXPECT_GT(total.delivered, 1000u);
  EXPECT_GT(total.dropped_loss, 20u);
  EXPECT_GT(total.dropped_no_endpoint, 100u);
  EXPECT_GT(null_states, 100u);
}

// --- tables growing inside callbacks -------------------------------------

/// One frame 1 -> 2 whose inject hook attaches 100 endpoints and sets 100
/// links while the frame is in transmit; its receiving endpoint does the
/// same for 100 more while the frame is in delivery, and answers.  Then
/// node 1 sends to each new endpoint.  With @p pre_grow every endpoint
/// and link is already in place, so the callbacks change nothing.
std::vector<Delivery> grow_in_callbacks(bool pre_grow) {
  sim::Simulator sim{7};
  Network net{sim};
  std::vector<Delivery> log;
  std::deque<Tagged> endpoints;
  for (int i = 0; i < 202; ++i) endpoints.emplace_back(i, sim, log);
  const LinkModel jittery{.latency = sim::msec(2), .jitter = sim::usec(500),
                          .bandwidth_bps = 1e6, .loss = 0};
  auto grow = [&](int first) {
    for (int i = first; i < first + 100; ++i) {
      const auto node = static_cast<NodeId>(10 + i);
      net.attach({node, 1}, endpoints[static_cast<std::size_t>(i)]);
      net.set_link(1, node, jittery);
      net.set_link(node, 1, jittery);
    }
  };
  if (pre_grow) {
    grow(0);
    grow(100);
  }
  bool hooked = false;
  net.set_inject_hook([&](const Message&) {
    if (!hooked) {
      hooked = true;
      grow(0);
    }
    return InjectDecision{};
  });
  struct Server : Endpoint {
    Network* net;
    Tagged* record;
    std::function<void()> grow;
    void on_message(const Message& msg) override {
      record->on_message(msg);
      if (grow) std::exchange(grow, nullptr)();
      net->send({.src = msg.dst, .dst = msg.src, .payload = "ack"});
    }
  } server;
  server.net = &net;
  server.record = &endpoints[200];
  server.grow = [&] { grow(100); };
  net.attach({2, 1}, server);
  net.attach({1, 1}, endpoints[201]);

  net.send({.src = {1, 1}, .dst = {2, 1}, .payload = "first"});
  sim.run();
  for (int i = 0; i < 200; ++i)
    net.send({.src = {1, 1},
              .dst = {static_cast<NodeId>(10 + i), 1},
              .payload = std::string(static_cast<std::size_t>(i), 'y')});
  sim.run();
  return log;
}

TEST(NetworkTables, GrowInsideTransmitAndDeliveryLikePreGrown) {
  const std::vector<Delivery> grown = grow_in_callbacks(false);
  EXPECT_EQ(grown.size(), 202u);  // first, its ack, one per new endpoint
  EXPECT_EQ(grown, grow_in_callbacks(true));
}

/// (receiver, sender, payload, time since the traffic started).
using FifoLog =
    std::vector<std::tuple<Address, Address, std::string, sim::Duration>>;

/// Node 1 streams 20 messages to node 2 over a reordering link; node 2's
/// receive callback answers the fifth by sending to 100 peers it has not
/// talked to before, while the channel still holds that sender's state.
/// With @p pre_grow node 2 first exchanges one message with every peer.
FifoLog fan_out_from_receive(bool pre_grow) {
  sim::Simulator sim{9};
  Network net{sim};
  net.set_default_link({.latency = sim::msec(1), .jitter = 0,
                        .bandwidth_bps = 0, .loss = 0});
  net.set_link(1, 2, {.latency = sim::msec(1), .jitter = sim::usec(900),
                      .bandwidth_bps = 0, .loss = 0});
  FifoLog log;
  sim::TimePoint start = 0;
  FifoChannel a(net, {1, 1});
  FifoChannel b(net, {2, 1});
  std::deque<FifoChannel> peers;
  for (int i = 0; i < 100; ++i) {
    FifoChannel& p = peers.emplace_back(net, Address{NodeId(10 + i), 1});
    p.on_receive([&log, &sim, &start, &p](const Address& from,
                                          std::string_view payload) {
      log.emplace_back(p.self(), from, std::string(payload),
                       sim.now() - start);
    });
  }
  b.on_receive([&](const Address& from, std::string_view payload) {
    log.emplace_back(b.self(), from, std::string(payload), sim.now() - start);
    if (payload == "m5")
      for (FifoChannel& p : peers) b.send(p.self(), "fan-out");
  });
  if (pre_grow) {
    for (FifoChannel& p : peers) b.send(p.self(), "warm-up");
    sim.run();
    log.clear();
    start = sim.now();
  }
  for (int i = 0; i < 20; ++i) a.send({2, 1}, "m" + std::to_string(i));
  sim.run();
  return log;
}

TEST(NetworkTables, FifoReceiveCallbackContactsNewPeersLikePreGrown) {
  const FifoLog grown = fan_out_from_receive(false);
  EXPECT_EQ(grown.size(), 120u);
  for (int i = 0; i < 20; ++i)  // node 1's stream arrived whole and in order
    EXPECT_EQ(std::get<2>(grown[static_cast<std::size_t>(i)]),
              "m" + std::to_string(i));
  EXPECT_EQ(grown, fan_out_from_receive(true));
}

}  // namespace
}  // namespace coop::net
