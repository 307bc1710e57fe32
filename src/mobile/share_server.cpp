#include "mobile/share_server.hpp"

#include <utility>
#include <vector>

namespace coop::mobile {

ShareServer::ShareServer(net::Network& net, net::Address self)
    : server_(net, self) {
  server_.register_method("read", [this](const std::string& b) {
    return handle_read(b);
  });
  server_.register_method("write", [this](const std::string& b) {
    return handle_write(b);
  });
  server_.register_method("hoard", [this](const std::string& b) {
    return handle_hoard(b);
  });
  server_.register_method("bulk", [this](const std::string& b) {
    return handle_bulk(b);
  });
}

KeyState ShareServer::state(const std::string& key) const {
  const auto value = store_.read(key);
  return {value.has_value(), value.value_or(""), store_.version(key)};
}

rpc::HandlerResult ShareServer::handle_read(const std::string& body) {
  std::string key;
  if (!util::decode(body, key)) return rpc::HandlerResult::error("bad read");
  return rpc::HandlerResult::success(util::encode(state(key)).str());
}

rpc::HandlerResult ShareServer::handle_write(const std::string& body) {
  WriteReq req;
  if (!util::decode(body, req)) return rpc::HandlerResult::error("bad write");
  store_.write(req.key, std::move(req.value));
  return rpc::HandlerResult::success(
      util::encode(store_.version(req.key)).str());
}

rpc::HandlerResult ShareServer::handle_hoard(const std::string& body) {
  std::vector<std::string> keys;
  if (!util::decode(body, keys)) return rpc::HandlerResult::error("bad hoard");
  std::vector<HoardEntry> reply;
  reply.reserve(keys.size());
  for (const std::string& key : keys) reply.push_back({key, state(key)});
  return rpc::HandlerResult::success(util::encode(reply).str());
}

rpc::HandlerResult ShareServer::handle_bulk(const std::string& body) {
  // Decoded whole before anything is applied: a malformed log changes
  // nothing.
  std::vector<BulkWrite> log;
  if (!util::decode(body, log)) return rpc::HandlerResult::error("bad bulk");
  std::vector<BulkResult> reply;
  reply.reserve(log.size());
  for (BulkWrite& e : log) {
    const std::uint64_t current = store_.version(e.key);
    if (current == e.base_version) {
      store_.write(e.key, std::move(e.value));
      reply.push_back({e.key, true, store_.version(e.key), ""});
    } else {
      ++bulk_conflicts_;
      reply.push_back(
          {e.key, false, current, store_.read(e.key).value_or("")});
    }
  }
  return rpc::HandlerResult::success(util::encode(reply).str());
}

}  // namespace coop::mobile
