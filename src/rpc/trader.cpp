#include "rpc/trader.hpp"

#include <utility>

namespace coop::rpc {

Trader::Trader(net::Network& net, net::Address self) : server_(net, self) {
  server_.register_method("export", [this](const std::string& b) {
    return handle_export(b);
  });
  server_.register_method("withdraw", [this](const std::string& b) {
    return handle_withdraw(b);
  });
  server_.register_method("import", [this](const std::string& b) {
    return handle_import(b);
  });
}

HandlerResult Trader::handle_export(const std::string& body) {
  Offer o;
  if (!util::decode(body, o)) return HandlerResult::error("bad offer encoding");
  const std::uint64_t id = next_offer_id_++;
  offer_index_[id] = offers_.size();
  offers_.push_back(std::move(o));
  return HandlerResult::success(util::encode(id).str());
}

HandlerResult Trader::handle_withdraw(const std::string& body) {
  std::uint64_t id = 0;
  if (!util::decode(body, id))
    return HandlerResult::error("bad withdraw encoding");
  auto it = offer_index_.find(id);
  if (it == offer_index_.end()) return HandlerResult::error("no such offer");
  const std::size_t slot = it->second;
  offer_index_.erase(it);
  // Swap-remove; patch the index entry of the offer that moved.
  if (slot != offers_.size() - 1) {
    offers_[slot] = std::move(offers_.back());
    for (auto& [oid, s] : offer_index_) {
      if (s == offers_.size() - 1) {
        s = slot;
        break;
      }
    }
  }
  offers_.pop_back();
  return HandlerResult::success("");
}

HandlerResult Trader::handle_import(const std::string& body) {
  ImportQuery q;
  if (!util::decode(body, q)) return HandlerResult::error("bad import encoding");
  std::vector<Offer> matches;
  for (const auto& o : offers_) {
    if (o.service_type == q.service_type && o.matches(q.constraints))
      matches.push_back(o);
  }
  return HandlerResult::success(util::encode(matches).str());
}

void TraderClient::export_offer(const Offer& offer,
                                std::function<void(std::uint64_t)> done) {
  rpc_.call(trader_, "export", util::encode(offer).str(),
            [done = std::move(done)](const RpcResult& res) {
              std::uint64_t id = 0;
              done(res.ok() && util::decode(res.reply, id) ? id : 0);
            });
}

void TraderClient::withdraw(std::uint64_t offer_id,
                            std::function<void(bool)> done) {
  rpc_.call(trader_, "withdraw", util::encode(offer_id).str(),
            [done = std::move(done)](const RpcResult& res) {
              done(res.ok());
            });
}

void TraderClient::import(
    const std::string& service_type,
    const std::map<std::string, std::string>& constraints,
    std::function<void(std::vector<Offer>)> done) {
  rpc_.call(trader_, "import",
            util::encode(ImportQuery{service_type, constraints}).str(),
            [done = std::move(done)](const RpcResult& res) {
              std::vector<Offer> offers;
              if (res.ok() && !util::decode(res.reply, offers)) offers.clear();
              done(std::move(offers));
            });
}

}  // namespace coop::rpc
