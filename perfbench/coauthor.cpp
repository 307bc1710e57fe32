// coauthor — the GROVE co-authoring path end to end.
//
// 8 documents x 8 authors.  Each author runs an EditorClient connected
// over FifoChannel to its document's EditorServer; half the authors sit
// on the server's LAN, half across a regional WAN.  Every edit is also
// written through a DurableStore at the server site (group commit,
// auto-checkpoint) and published to the document's authors through an
// AwarenessEngine, after a spatial move of the author's cursor.
//
// This is the one workload where OT, FIFO unicast and the WAL dominate;
// groups and rpc are absent, so a group-layer change must read flat here.
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {
namespace {

constexpr int kDocs = 8;
constexpr int kAuthors = 8;
constexpr std::size_t kTokenLen = 6;
/// Authors insert while their replica is shorter than this and erase
/// otherwise, so inserts and erases balance and the document, the OT
/// in-flight queues and the WAL stay bounded.
constexpr std::size_t kTargetLen = 384;
/// Bounded-state guard on every replica's length.
constexpr std::size_t kMaxDocLen = 2 * kTargetLen;
constexpr std::size_t kSectionLen = 64;
constexpr sim::Duration kEditPeriod = sim::msec(200);  ///< mean, per author
constexpr std::size_t kCheckpointBytes = 32 * 1024;
/// One group-commit batch is a handful of ~110-byte records; the guard
/// allows far more than that but would catch a WAL that never truncates.
constexpr std::size_t kBatchBound = 4 * 1024;
constexpr std::size_t kPendingBound = 4096;
constexpr net::PortId kEditorPort = 5;
/// Ring of per-insert reach counters (insert id modulo the ring).  An
/// insert has long settled before its slot is reused: the ring covers
/// minutes of virtual time at this edit rate.
constexpr std::size_t kReachSlots = std::size_t{1} << 16;

net::LinkModel regional_wan() {
  return {.latency = sim::msec(18), .jitter = sim::msec(4),
          .bandwidth_bps = 2e6, .loss = 0.002};
}

constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz012345";

std::string make_token(std::uint32_t id) {
  std::string s(kTokenLen, 'a');
  for (std::size_t i = 0; i < kTokenLen; ++i, id >>= 5)
    s[kTokenLen - 1 - i] = kAlphabet[id & 31];
  return s;
}

bool parse_token(const std::string& s, std::uint32_t& id) {
  if (s.size() != kTokenLen) return false;
  id = 0;
  for (const char c : s) {
    std::uint32_t d = 0;
    if (c >= 'a' && c <= 'z') d = static_cast<std::uint32_t>(c - 'a');
    else if (c >= '0' && c <= '5') d = static_cast<std::uint32_t>(c - '0' + 26);
    else return false;
    id = (id << 5) | d;
  }
  return true;
}

class Coauthor final : public Workload {
 public:
  explicit Coauthor(std::uint64_t seed) : Workload(seed) {}

  void build() override {
    net::Network& net = platform().network();
    net.set_default_link(net::LinkModel::lan());
    docs_.resize(kDocs);
    authors_.resize(kDocs * kAuthors);
    for (int d = 0; d < kDocs; ++d) {
      Doc& doc = docs_[static_cast<std::size_t>(d)];
      doc.index = d;
      const net::Address srv{server_node(d), kEditorPort};
      doc.server = std::make_unique<groupware::EditorServer>(net, srv);
      durable::DurableConfig cfg;
      cfg.name = "doc" + std::to_string(d);
      cfg.checkpoint_log_bytes = kCheckpointBytes;
      doc.store = std::make_unique<durable::DurableStore>(
          platform().simulator(), platform().obs(), doc.media, cfg);
      auto& m = platform().metrics();
      doc.wal_bytes = &m.counter("durable." + cfg.name + ".synced_bytes");
      doc.wal_syncs = &m.counter("durable." + cfg.name + ".syncs");
      doc.checkpoints = &m.counter("durable." + cfg.name + ".checkpoints");
      awareness::EngineConfig ecfg;
      ecfg.digest_period = sim::msec(500);
      ecfg.interest_decay = sim::sec(20);
      doc.engine = std::make_unique<awareness::AwarenessEngine>(
          platform().simulator(), doc.space, ecfg, &platform().obs());
    }
    for (int d = 0; d < kDocs; ++d) {
      for (int a = 0; a < kAuthors; ++a) {
        Author& au = author(d, a);
        au.doc = d;
        au.site = static_cast<ccontrol::SiteId>(a + 1);
        const net::NodeId node = author_node(d, a);
        if (a >= kAuthors / 2)
          net.set_symmetric_link(node, server_node(d), regional_wan());
        au.client = std::make_unique<groupware::EditorClient>(
            net, net::Address{node, kEditorPort},
            net::Address{server_node(d), kEditorPort}, au.site);
        au.client->on_remote_change(
            [this, &au](const ccontrol::TextOp& op, sim::Duration notif) {
              on_remote(au, op, notif);
            });
        au.client->connect();
        Doc& doc = docs_[static_cast<std::size_t>(d)];
        doc.space.place(au.site, {0.0, 0.0});
        doc.space.set_focus(au.site, 12.0);
        doc.space.set_nimbus(au.site, 12.0);
        doc.engine->subscribe(
            au.site, [this, site = au.site](const awareness::ActivityEvent& e,
                                            double w, bool via_digest) {
              on_aware(site, e, w, via_digest);
            });
      }
    }
    for (int i = 0; i < 1000 && !all_connected(); ++i)
      platform().run_until(platform().simulator().now() + sim::msec(10));
  }

  void start() override {
    issuing_ = true;
    for (auto& au : authors_) arm(au);
  }
  void stop() override { issuing_ = false; }

  [[nodiscard]] sim::Duration window() const override {
    return sim::msec(50);
  }
  [[nodiscard]] sim::Duration warmup() const override { return sim::sec(45); }
  [[nodiscard]] sim::Duration drain() const override { return sim::sec(10); }
  [[nodiscard]] int windows() const override { return 200; }
  [[nodiscard]] int rounds() const override { return 78; }

  void counts(Counts& c) const override {
    c.aware_deliveries = aware_deliveries_;
    for (const auto& d : docs_) {
      c.aware_digested += d.engine->stats().digested;
      c.aware_suppressed += d.engine->stats().suppressed;
      c.wal_bytes += d.wal_bytes->value();
      c.wal_syncs += d.wal_syncs->value();
      c.checkpoints += d.checkpoints->value();
    }
  }

  [[nodiscard]] std::uint64_t outcome_hash() const override {
    std::uint64_t h = kFnvOffset;
    for (const auto& au : authors_) fnv_mix(h, au.hash);
    for (const auto& d : docs_) {
      fnv_mix(h, d.server->doc());
      fnv_mix(h, d.acks);
    }
    fnv_mix(h, aware_hash_);
    return h;
  }

  void guard(Verdict& v) const override {
    for (const auto& d : docs_) {
      v.require(d.server->doc().size() <= kMaxDocLen,
                "coauthor: server document grew past the bound");
      v.require(d.store->max_log_bytes() <= kCheckpointBytes + kBatchBound,
                "coauthor: WAL exceeded checkpoint threshold + one batch");
      v.require(d.engine->interest_table_size() <= kAuthors * 64,
                "coauthor: awareness interest map grew past the bound");
    }
    for (const auto& au : authors_)
      v.require(au.client->doc().size() <= kMaxDocLen,
                "coauthor: replica document grew past the bound");
    v.require(platform_->simulator().pending() <= kPendingBound,
              "coauthor: kernel pending events grew past the bound");
  }

  void check(Verdict& v) override {
    for (std::size_t s = 0; s < kReachSlots; ++s) settle_slot(s);
    v.require(unreached_ == 0, "coauthor: an insert missed a replica");
    for (auto& d : docs_) {
      bool converged = true;
      for (int a = 0; a < kAuthors; ++a)
        converged = converged &&
                    author(d.index, a).client->doc() == d.server->doc();
      v.require(converged, "coauthor: a replica differs from its server");
      v.require(d.acks == d.puts, "coauthor: a durable put was never acked");
      // Every timed op of a diverged document failed; otherwise the
      // unreached inserts and the unacked puts did.
      const std::uint64_t doc_failed =
          converged ? d.timed_unreached + (d.puts - d.acks) : d.timed_ops;
      failed_ += std::min(doc_failed, d.timed_ops);
      // Recovery from the medium alone must reproduce the live store.
      obs::Obs scratch;
      durable::DurableConfig cfg;
      cfg.name = "recheck";
      cfg.checkpoint_log_bytes = kCheckpointBytes;
      durable::DurableStore fresh(platform().simulator(), scratch, d.media,
                                  cfg);
      v.require(fresh.store() == d.store->store(),
                "coauthor: store recovered from media differs from live");
    }
  }

 private:
  struct Author {
    std::unique_ptr<groupware::EditorClient> client;
    int doc = 0;
    ccontrol::SiteId site = 0;
    std::uint64_t hash = kFnvOffset;
  };

  struct Doc {
    int index = 0;
    std::unique_ptr<groupware::EditorServer> server;
    durable::StableMedia media;
    std::unique_ptr<durable::DurableStore> store;
    awareness::SpatialModel space;
    std::unique_ptr<awareness::AwarenessEngine> engine;
    util::Counter* wal_bytes = nullptr;
    util::Counter* wal_syncs = nullptr;
    util::Counter* checkpoints = nullptr;
    std::uint64_t puts = 0;
    std::uint64_t acks = 0;
    std::uint64_t timed_ops = 0;
    std::uint64_t timed_unreached = 0;  ///< timed inserts that missed one
  };

  struct Reach {
    std::uint32_t id = 0;
    std::uint8_t doc = 0;
    std::uint8_t count = 0;
    bool live = false;
    bool timed = false;
  };

  static net::NodeId server_node(int d) {
    return static_cast<net::NodeId>(1000 + d);
  }
  static net::NodeId author_node(int d, int a) {
    return static_cast<net::NodeId>(1 + d * kAuthors + a);
  }
  Author& author(int d, int a) {
    return authors_[static_cast<std::size_t>(d * kAuthors + a)];
  }

  bool all_connected() const {
    for (const auto& au : authors_)
      if (!au.client->connected()) return false;
    return true;
  }

  void arm(Author& au) {
    const auto gap = static_cast<sim::Duration>(
        rng_.exponential(static_cast<double>(kEditPeriod)));
    platform().simulator().schedule_after(std::max<sim::Duration>(gap, 1),
                                          [this, &au] { act(au); });
  }

  void act(Author& au) {
    if (!issuing_) return;
    Span tick(SpanKind::kTick);
    const sim::TimePoint now = platform().simulator().now();
    Doc& doc = docs_[static_cast<std::size_t>(au.doc)];
    ++ops_;
    if (ops_ > timed_from_) ++doc.timed_ops;
    groupware::EditorClient& cl = *au.client;
    const std::size_t len = cl.doc().size();
    const bool insert = len < kTargetLen || len < kTokenLen;
    std::size_t pos = 0;
    if (insert) {
      pos = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(len)));
      const std::uint32_t id = next_insert_++;
      const std::size_t slot = id & (kReachSlots - 1);
      settle_slot(slot);
      reach_[slot] = {id, static_cast<std::uint8_t>(au.doc), 0, true,
                      ops_ > timed_from_};
      Span s(SpanKind::kEdit);
      cl.insert(pos, make_token(id));
    } else {
      pos = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(len - kTokenLen)));
      Span s(SpanKind::kEdit);
      cl.erase(pos, kTokenLen);
    }
    {
      Span s(SpanKind::kMove);
      doc.space.place(au.site, {static_cast<double>(pos) / 8.0, 0.0});
    }
    const std::size_t section = pos / kSectionLen;
    std::string key = "s" + std::to_string(section);
    {
      const std::string& text = cl.doc();
      std::string value = text.substr(std::min(section * kSectionLen,
                                               text.size()),
                                      kSectionLen);
      ++doc.puts;
      Span s(SpanKind::kPut);
      doc.store->put(key, std::move(value), [this, &doc, now] {
        Span cb(SpanKind::kOnDurable);
        ++doc.acks;
        g_vs.add(VKind::kDurableAck, platform().simulator().now() - now);
      });
    }
    {
      Span s(SpanKind::kPublish);
      doc.engine->publish({au.site, std::move(key),
                           insert ? "insert" : "erase", now});
    }
    arm(au);
  }

  void on_remote(Author& au, const ccontrol::TextOp& op, sim::Duration notif) {
    Span cb(SpanKind::kOnRemote);
    fnv_mix(au.hash, static_cast<std::uint64_t>(op.kind));
    fnv_mix(au.hash, op.pos);
    fnv_mix(au.hash, op.site);
    g_vs.add(VKind::kGroupwareNotify, notif);
    std::uint32_t id = 0;
    if (op.kind == ccontrol::TextOp::Kind::kInsert &&
        parse_token(op.text, id)) {
      Reach& r = reach_[id & (kReachSlots - 1)];
      if (r.live && r.id == id) ++r.count;
    }
  }

  void on_aware(ccontrol::SiteId observer, const awareness::ActivityEvent& e,
                double w, bool via_digest) {
    Span cb(SpanKind::kOnAware);
    const sim::TimePoint now = platform().simulator().now();
    ++aware_deliveries_;
    fnv_mix(aware_hash_, observer);
    fnv_mix(aware_hash_, static_cast<std::uint64_t>(now));
    fnv_mix(aware_hash_, e.actor);
    fnv_mix(aware_hash_, e.object);
    fnv_mix(aware_hash_, double_bits(w));
    fnv_mix(aware_hash_, via_digest ? 1 : 0);
    g_vs.add(VKind::kAwarenessNotify, now - e.at);
  }

  /// Retires a reach slot: a timed insert that did not reach every other
  /// replica of its document is a failed operation.
  void settle_slot(std::size_t slot) {
    Reach& r = reach_[slot];
    if (!r.live) return;
    if (r.count != kAuthors - 1) {
      ++unreached_;
      if (r.timed) ++docs_[r.doc].timed_unreached;
    }
    r.live = false;
  }

  std::vector<Doc> docs_;
  std::vector<Author> authors_;
  std::vector<Reach> reach_ = std::vector<Reach>(kReachSlots);
  std::uint32_t next_insert_ = 0;
  std::uint64_t unreached_ = 0;
  std::uint64_t aware_deliveries_ = 0;
  std::uint64_t aware_hash_ = kFnvOffset;
};

}  // namespace

std::unique_ptr<Workload> make_coauthor(std::uint64_t seed) {
  return std::make_unique<Coauthor>(seed);
}

}  // namespace perfbench
