#include "durable/anti_entropy.hpp"

#include <map>
#include <utility>
#include <vector>

#include "util/codec.hpp"

namespace coop::durable {

namespace {

std::string metric_key(const std::string& name, const char* leaf) {
  return "durable." + name + "." + leaf;
}

}  // namespace

std::string AntiEntropy::encode_summary(const DurableStore& store) {
  const auto& mem = store.store();
  const auto keys = mem.keys();
  std::vector<AeSummaryEntry> summary;
  summary.reserve(keys.size() + mem.tombstones().size());
  for (const auto& k : keys) summary.push_back({k, mem.version(k)});
  for (const auto& [k, t] : mem.tombstones()) summary.push_back({k, t.version});
  return util::encode(summary).str();
}

std::string AntiEntropy::make_reply(const DurableStore& store,
                                    const std::string& summary) {
  std::vector<AeSummaryEntry> entries;
  if (!util::decode(summary, entries)) return {};  // malformed: send nothing
  // A key both live and tombstoned is listed twice; the later entry wins.
  std::map<std::string_view, std::uint64_t> known;
  for (const AeSummaryEntry& e : entries) known[e.key] = e.version;

  auto known_version = [&known](std::string_view k) -> std::uint64_t {
    auto it = known.find(k);
    return it == known.end() ? 0 : it->second;
  };

  const auto& mem = store.store();
  const auto keys = mem.keys();
  std::vector<AeEntry> out;
  for (const auto& k : keys) {
    const std::uint64_t v = mem.version(k);
    if (v > known_version(k)) {
      out.push_back({WalRecord::kPut, k, *mem.read(k), v, 0});
    }
  }
  for (const auto& [k, t] : mem.tombstones()) {
    if (t.version > known_version(k)) {
      out.push_back({WalRecord::kErase, k, "", t.version, t.stamp});
    }
  }
  return util::encode(out).str();
}

std::uint64_t AntiEntropy::apply_reply(DurableStore& store,
                                       const std::string& reply) {
  std::vector<AeEntry> entries;
  if (!util::decode(reply, entries)) return 0;
  std::uint64_t adopted = 0;
  for (AeEntry& e : entries) {
    const std::string key(e.key);
    if (e.type == WalRecord::kPut
            ? store.apply_remote_put(key, std::move(e.value), e.version,
                                     e.stamp)
            : store.apply_remote_erase(key, e.version, e.stamp)) {
      ++adopted;
    }
  }
  return adopted;
}

void AntiEntropy::serve(rpc::RpcServer& server, DurableStore& store) {
  server.register_method("ae.pull", [&store](const std::string& request) {
    return rpc::HandlerResult::success(make_reply(store, request));
  });
}

AntiEntropy::AntiEntropy(net::Network& net, net::Address self,
                         net::Address peer, DurableStore& store, AeConfig cfg)
    : sim_(net.simulator()),
      obs_(net.obs()),
      store_(store),
      cfg_(std::move(cfg)),
      peer_(peer),
      client_(net, self) {
  auto& m = obs_.metrics;
  rounds_metric_ = &m.counter(metric_key(cfg_.name, "ae_rounds"));
  pulled_metric_ = &m.counter(metric_key(cfg_.name, "ae_keys_pulled"));
  if (cfg_.period > 0) arm_timer();
}

AntiEntropy::~AntiEntropy() { stop(); }

void AntiEntropy::stop() {
  stopped_ = true;
  if (timer_ != sim::kInvalidEvent) {
    sim_.cancel(timer_);
    timer_ = sim::kInvalidEvent;
  }
}

void AntiEntropy::arm_timer() {
  if (timer_ != sim::kInvalidEvent || stopped_) return;
  timer_ = sim_.schedule_after(cfg_.period, [this] {
    timer_ = sim::kInvalidEvent;
    pull_now();
    arm_timer();
  });
}

void AntiEntropy::pull_now() {
  if (in_flight_ || stopped_) return;
  in_flight_ = true;
  ++rounds_;
  rounds_metric_->inc();
  client_.call(
      peer_, "ae.pull", encode_summary(store_),
      [this](const rpc::RpcResult& result) { on_reply(result); }, cfg_.call);
}

void AntiEntropy::on_reply(const rpc::RpcResult& result) {
  in_flight_ = false;
  // A timeout/rejection just means this round learned nothing; the next
  // periodic pull tries again.  Catch-up is idempotent by construction.
  if (!result.ok()) return;
  const std::uint64_t adopted = apply_reply(store_, result.reply);
  keys_pulled_ += adopted;
  if (adopted > 0) {
    pulled_metric_->inc(adopted);
    obs_.tracer.event(sim_.now(), obs::Category::kDurable, "ae_pull",
                      {{"adopted", static_cast<double>(adopted)}});
  }
}

}  // namespace coop::durable
