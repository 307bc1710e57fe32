// meeting — the conferencing paths: fan-out, sequencing, acks,
// retransmits, heartbeats and RPC round trips.
//
// 16 rooms x 12 participants on WAN links with light loss.  Each room is
// a SessionGroup per participant (membership plus a kTotal GroupChannel
// whose first member sequences) and a room server hosting the membership
// coordinator and an RpcServer that fronts ccontrol::FloorControl.
// Participants broadcast shared-view updates; every few updates one takes
// a floor turn: an RPC floor request, a short hold, an RPC release.
//
// OT, durable and awareness are absent here.
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {
namespace {

constexpr int kRooms = 16;
constexpr int kMembers = 12;
constexpr sim::Duration kUpdatePeriod = sim::msec(500);  ///< mean, per member
constexpr int kUpdatesPerTurn = 16;  ///< a floor turn every this many actions
constexpr sim::Duration kHoldTime = sim::msec(100);
constexpr std::size_t kPendingBound = 16384;
constexpr net::PortId kCoordPort = 2;
constexpr net::PortId kRpcServerPort = 20;
constexpr net::PortId kRpcClientPort = 30;

groups::MembershipConfig membership_config() {
  groups::MembershipConfig cfg;
  // Twenty heartbeat periods: WAN loss never trips the failure detector,
  // so the only view changes are the joins.
  cfg.failure_timeout = sim::msec(2000);
  cfg.timer_jitter = 0.1;
  return cfg;
}

groups::ChannelConfig channel_config() {
  groups::ChannelConfig cfg;
  cfg.ordering = groups::Ordering::kTotal;
  // Above the WAN round trip, so retransmits repair losses, not latency.
  cfg.retransmit_timeout = sim::msec(250);
  cfg.max_retransmits = 1000;
  return cfg;
}

rpc::CallOptions call_options() {
  rpc::CallOptions opts;
  opts.timeout = sim::sec(1);
  opts.retries = 4;
  return opts;
}

class Meeting final : public Workload {
 public:
  explicit Meeting(std::uint64_t seed) : Workload(seed) {}

  void build() override {
    net::Network& net = platform().network();
    net.set_default_link(net::LinkModel::wan());
    rooms_.resize(kRooms);
    members_.resize(kRooms * kMembers);
    for (int r = 0; r < kRooms; ++r) {
      Room& room = rooms_[static_cast<std::size_t>(r)];
      room.coord = std::make_unique<groups::MembershipCoordinator>(
          net, net::Address{server_node(r), kCoordPort}, membership_config());
      room.server = std::make_unique<rpc::RpcServer>(
          net, net::Address{server_node(r), kRpcServerPort});
      room.floor = std::make_unique<ccontrol::FloorControl>(
          platform().simulator());
      room.server->register_async_method(
          "floor.request",
          [this, &room](const std::string& body,
                        std::function<void(rpc::HandlerResult)> reply) {
            on_floor_request(room, body, std::move(reply));
          });
      room.server->register_method(
          "floor.release", [this, &room](const std::string& body) {
            return on_floor_release(room, body);
          });
      std::vector<net::NodeId> roster;
      for (int m = 0; m < kMembers; ++m) roster.push_back(member_node(r, m));
      for (int m = 0; m < kMembers; ++m) {
        Member& mb = member(r, m);
        mb.room = r;
        mb.id = static_cast<ccontrol::ClientId>(m + 1);
        mb.until_turn = 1 + static_cast<int>(
            rng_.uniform_int(0, kUpdatesPerTurn - 1));
        mb.sg = std::make_unique<groupware::SessionGroup>(
            net, member_node(r, m), roster,
            net::Address{server_node(r), kCoordPort},
            static_cast<net::McastId>(r + 1), groupware::SessionPorts{},
            membership_config(), channel_config());
        mb.sg->on_deliver(
            [this, &mb](const groups::Delivery& d) { on_deliver(mb, d); });
        mb.rpc = std::make_unique<rpc::RpcClient>(
            net, net::Address{member_node(r, m), kRpcClientPort});
        mb.sg->join();
      }
    }
    for (int i = 0; i < 1000 && !all_joined(); ++i)
      platform().run_until(platform().simulator().now() + sim::msec(10));
  }

  void start() override {
    issuing_ = true;
    for (auto& mb : members_) arm(mb);
  }
  void stop() override { issuing_ = false; }

  [[nodiscard]] sim::Duration window() const override {
    return sim::msec(50);
  }
  [[nodiscard]] sim::Duration warmup() const override { return sim::sec(50); }
  [[nodiscard]] sim::Duration drain() const override { return sim::sec(10); }
  [[nodiscard]] int windows() const override { return 200; }
  [[nodiscard]] int rounds() const override { return 52; }

  void counts(Counts& c) const override {
    c.rpc_calls = rpc_calls_;
    for (const auto& mb : members_) {
      c.group_deliveries += mb.sg->channel().stats().delivered;
      c.group_retransmits += mb.sg->channel().stats().retransmits;
    }
    for (const auto& room : rooms_)
      c.rpc_retries += room.server->replays_served();
  }

  [[nodiscard]] std::uint64_t outcome_hash() const override {
    std::uint64_t h = kFnvOffset;
    for (const auto& mb : members_) {
      fnv_mix(h, mb.hash);
      fnv_mix(h, mb.delivered);
    }
    fnv_mix(h, rpc_hash_);
    return h;
  }

  [[nodiscard]] std::uint64_t view_changes() const override {
    std::uint64_t n = 0;
    for (const auto& room : rooms_) n += room.coord->view_changes();
    return n;
  }

  [[nodiscard]] std::uint64_t held_back_max() const override {
    std::uint64_t n = 0;
    for (const auto& mb : members_)
      n = std::max(n, mb.sg->channel().stats().held_back_max);
    return n;
  }

  void guard(Verdict& v) const override {
    v.require(platform_->simulator().pending() <= kPendingBound,
              "meeting: kernel pending events grew past the bound");
  }

  void check(Verdict& v) override {
    for (int r = 0; r < kRooms; ++r) {
      const Room& room = rooms_[static_cast<std::size_t>(r)];
      std::uint64_t min_delivered = room.broadcasts;
      bool same_order = true;
      for (int m = 0; m < kMembers; ++m) {
        const Member& mb = member(r, m);
        min_delivered = std::min(min_delivered, mb.delivered);
        same_order = same_order && mb.hash == member(r, 0).hash;
        v.require(mb.sg->member().view().has_value() &&
                      mb.sg->member().view()->members.size() == kMembers,
                  "meeting: a member left the room's view");
      }
      v.require(min_delivered == room.broadcasts,
                "meeting: a broadcast missed a room member");
      v.require(same_order,
                "meeting: room members delivered in different orders");
      // Warm-up broadcasts are checked too; only timed ones count as
      // failed operations.
      failed_ +=
          std::min(room.broadcasts - min_delivered, room.timed_broadcasts);
    }
    v.require(view_changes() ==
                  static_cast<std::uint64_t>(kRooms) * kMembers,
              "meeting: view changes other than the joins");
    v.require(rpc_failed_ == 0, "meeting: a floor RPC returned non-OK");
    v.require(rpc_outstanding_ == 0, "meeting: a floor RPC never completed");
    failed_ += timed_rpc_failed_;
  }

 private:
  struct Member {
    std::unique_ptr<groupware::SessionGroup> sg;
    std::unique_ptr<rpc::RpcClient> rpc;
    int room = 0;
    ccontrol::ClientId id = 0;
    int until_turn = 0;
    bool in_turn = false;
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t hash = kFnvOffset;
  };

  struct Room {
    std::unique_ptr<groups::MembershipCoordinator> coord;
    std::unique_ptr<rpc::RpcServer> server;
    std::unique_ptr<ccontrol::FloorControl> floor;
    std::uint64_t broadcasts = 0;
    std::uint64_t timed_broadcasts = 0;
  };

  static net::NodeId server_node(int r) {
    return static_cast<net::NodeId>(5000 + r);
  }
  static net::NodeId member_node(int r, int m) {
    return static_cast<net::NodeId>(1 + r * kMembers + m);
  }
  Member& member(int r, int m) {
    return members_[static_cast<std::size_t>(r * kMembers + m)];
  }
  const Member& member(int r, int m) const {
    return members_[static_cast<std::size_t>(r * kMembers + m)];
  }

  bool all_joined() const {
    for (const auto& mb : members_) {
      const auto& view = mb.sg->member().view();
      if (!view.has_value() || view->members.size() != kMembers) return false;
    }
    return true;
  }

  void arm(Member& mb) {
    const auto gap = static_cast<sim::Duration>(
        rng_.exponential(static_cast<double>(kUpdatePeriod)));
    platform().simulator().schedule_after(std::max<sim::Duration>(gap, 1),
                                          [this, &mb] { act(mb); });
  }

  void act(Member& mb) {
    if (!issuing_) return;
    Span tick(SpanKind::kTick);
    ++ops_;
    const bool timed = ops_ > timed_from_;
    if (--mb.until_turn <= 0 && !mb.in_turn) {
      mb.until_turn = kUpdatesPerTurn;
      take_floor(mb, timed);
    } else {
      Room& room = rooms_[static_cast<std::size_t>(mb.room)];
      ++room.broadcasts;
      if (timed) ++room.timed_broadcasts;
      // A shared-view update: the participant's telepointer.
      std::string update = "v" + std::to_string(mb.id) + ":" +
                           std::to_string(++mb.sent) + ":" +
                           std::to_string(rng_.uniform_int(0, 1023)) + "," +
                           std::to_string(rng_.uniform_int(0, 767));
      Span s(SpanKind::kBroadcast);
      (void)mb.sg->broadcast(std::move(update));
    }
    arm(mb);
  }

  /// One floor turn: request, hold, release — two RPCs, one operation.
  void take_floor(Member& mb, bool timed) {
    mb.in_turn = true;
    call(mb, "floor.request", timed, [this, &mb, timed] {
      platform().simulator().schedule_after(kHoldTime, [this, &mb, timed] {
        Span tick(SpanKind::kTick);
        call(mb, "floor.release", timed, [&mb] { mb.in_turn = false; });
      });
    });
  }

  template <typename Then>
  void call(Member& mb, const char* method, bool timed, Then then) {
    ++rpc_calls_;
    ++rpc_outstanding_;
    const net::Address server{server_node(mb.room), kRpcServerPort};
    Span s(SpanKind::kRpcCall);
    mb.rpc->call(
        server, method, std::to_string(mb.id),
        [this, timed, then](const rpc::RpcResult& res) {
          Span cb(SpanKind::kOnRpcReply);
          --rpc_outstanding_;
          g_vs.add(VKind::kRpcRtt, res.rtt);
          fnv_mix(rpc_hash_, static_cast<std::uint64_t>(res.status));
          fnv_mix(rpc_hash_, static_cast<std::uint64_t>(res.rtt));
          if (!res.ok()) {
            ++rpc_failed_;
            if (timed) ++timed_rpc_failed_;
            return;
          }
          then();
        },
        call_options());
  }

  void on_floor_request(Room& room, const std::string& body,
                        std::function<void(rpc::HandlerResult)> reply) {
    Span h(SpanKind::kOnRpcHandler);
    const auto who = static_cast<ccontrol::ClientId>(std::stoul(body));
    const sim::TimePoint asked = platform().simulator().now();
    Span f(SpanKind::kFloor);
    room.floor->request(who, [this, asked, reply = std::move(reply)](
                                 bool granted) {
      g_vs.add(VKind::kFloorWait, platform().simulator().now() - asked);
      reply(granted ? rpc::HandlerResult::success("granted")
                    : rpc::HandlerResult::error("refused"));
    });
  }

  rpc::HandlerResult on_floor_release(Room& room, const std::string& body) {
    Span h(SpanKind::kOnRpcHandler);
    const auto who = static_cast<ccontrol::ClientId>(std::stoul(body));
    Span f(SpanKind::kFloor);
    room.floor->release(who);
    return rpc::HandlerResult::success("");
  }

  void on_deliver(Member& mb, const groups::Delivery& d) {
    Span cb(SpanKind::kOnGroup);
    ++mb.delivered;
    fnv_mix(mb.hash, d.sender);
    fnv_mix(mb.hash, d.seq);
    fnv_mix(mb.hash, d.total_seq);
    fnv_mix(mb.hash, d.payload);
    g_vs.add(VKind::kGroupsDeliver, platform().simulator().now() - d.sent_at);
  }

  std::vector<Room> rooms_;
  std::vector<Member> members_;
  std::uint64_t rpc_calls_ = 0;
  std::uint64_t rpc_outstanding_ = 0;
  std::uint64_t rpc_failed_ = 0;
  std::uint64_t timed_rpc_failed_ = 0;
  std::uint64_t rpc_hash_ = kFnvOffset;
};

}  // namespace

std::unique_ptr<Workload> make_meeting(std::uint64_t seed) {
  return std::make_unique<Meeting>(seed);
}

}  // namespace perfbench
