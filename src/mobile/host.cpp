#include "mobile/host.hpp"

#include <utility>

namespace coop::mobile {

MobileHost::MobileHost(net::Network& net, net::Address self,
                       net::Address server, ConflictPolicy policy)
    : net_(net),
      self_(self),
      server_(server),
      policy_(policy),
      rpc_(net, self) {}

void MobileHost::set_connectivity(net::Connectivity level) {
  level_ = level;
  net_.set_connectivity(self_.node, level);
}

void MobileHost::hoard(const std::vector<std::string>& keys,
                       std::function<void(std::size_t)> done) {
  rpc_.call(server_, "hoard", util::encode(keys).str(),
            [this, done = std::move(done)](const rpc::RpcResult& res) {
              std::vector<HoardEntry> entries;
              if (!res.ok() || !util::decode(res.reply, entries)) {
                if (done) done(0);
                return;
              }
              for (HoardEntry& e : entries)
                cache_[std::move(e.key)] = std::move(e.state);
              stats_.hoarded += entries.size();
              if (done) done(entries.size());
            },
            call_opts_);
}

void MobileHost::read(const std::string& key, ReadFn done) {
  if (level_ == net::Connectivity::kDisconnected) {
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      ++stats_.cache_misses;
      done(false, std::nullopt);
      return;
    }
    ++stats_.cache_hits;
    if (!it->second.present) {
      done(true, std::nullopt);  // cached absence
    } else {
      done(true, it->second.value);
    }
    return;
  }
  ++stats_.remote_reads;
  rpc_.call(server_, "read", util::encode(key).str(),
            [this, key, done = std::move(done)](const rpc::RpcResult& res) {
              if (!res.ok()) {
                // Network trouble mid-transition: degrade to the cache.
                auto it = cache_.find(key);
                if (it != cache_.end()) {
                  ++stats_.cache_hits;
                  done(true, it->second.present
                                 ? std::optional<std::string>(it->second.value)
                                 : std::nullopt);
                } else {
                  done(false, std::nullopt);
                }
                return;
              }
              KeyState s;
              if (!util::decode(res.reply, s)) {
                done(false, std::nullopt);
                return;
              }
              cache_[key] = s;
              done(true, s.present
                             ? std::optional<std::string>(std::move(s.value))
                             : std::nullopt);
            },
            call_opts_);
}

void MobileHost::write(const std::string& key, std::string value,
                       WriteFn done) {
  if (level_ == net::Connectivity::kDisconnected) {
    ++stats_.logged_writes;
    const std::uint64_t base =
        cache_.count(key) != 0 ? cache_[key].version : 0;
    // Coalesce repeated writes to the same key: the log keeps the first
    // base version (what we last saw from the server) with the latest
    // value.
    for (BulkWrite& e : log_) {
      if (e.key == key) {
        e.value = std::move(value);
        cache_[key] = {true, e.value, e.base_version};
        done(true);
        return;
      }
    }
    log_.push_back({key, value, base});
    cache_[key] = {true, std::move(value), base};
    done(true);
    return;
  }
  ++stats_.remote_writes;
  const std::string body = util::encode(WriteReq{key, value}).str();
  rpc_.call(server_, "write", body,
            [this, key, value = std::move(value),
             done = std::move(done)](const rpc::RpcResult& res) mutable {
              if (!res.ok()) {
                done(false);
                return;
              }
              std::uint64_t version = 0;
              if (util::decode(res.reply, version))
                cache_[key] = {true, std::move(value), version};
              done(true);
            },
            call_opts_);
}

void MobileHost::force_write(const std::string& key,
                             const std::string& value) {
  rpc_.call(server_, "write", util::encode(WriteReq{key, value}).str(),
            [](const rpc::RpcResult&) {}, call_opts_);
}

void MobileHost::reintegrate(
    std::function<void(std::size_t, const std::vector<Conflict>&)> done) {
  if (log_.empty()) {
    done(0, {});
    return;
  }
  const std::string body = util::encode(log_).str();
  // Keep local copies for conflict resolution while the RPC is in flight.
  std::vector<BulkWrite> entries = std::move(log_);
  log_.clear();
  rpc_.call(
      server_, "bulk", body,
      [this, entries = std::move(entries),
       done = std::move(done)](const rpc::RpcResult& res) {
        std::vector<Conflict> conflicts;
        std::vector<BulkResult> results;
        // One result per logged entry, or none of the reply is used.
        if (!res.ok() || !util::decode(res.reply, results) ||
            results.size() != entries.size()) {
          // Reintegration failed wholesale (e.g. dropped back to
          // disconnected): restore the log for a later attempt.
          log_.insert(log_.end(), entries.begin(), entries.end());
          done(0, conflicts);
          return;
        }
        std::size_t applied = 0;
        for (std::size_t i = 0; i < results.size(); ++i) {
          BulkResult& r = results[i];
          if (r.applied) {
            ++applied;
            ++stats_.reintegrated;
            if (auto it = cache_.find(r.key); it != cache_.end())
              it->second.version = r.version;
            continue;
          }
          ++stats_.conflicts;
          Conflict c{r.key, entries[i].value, std::move(r.server_value)};
          switch (policy_) {
            case ConflictPolicy::kServerWins:
              cache_[r.key] = {true, c.server_value, r.version};
              break;
            case ConflictPolicy::kClientWins:
              force_write(r.key, c.local_value);
              break;
            case ConflictPolicy::kManual:
              cache_[r.key] = {true, c.server_value, r.version};
              if (on_conflict_) on_conflict_(c);
              break;
          }
          conflicts.push_back(std::move(c));
        }
        done(applied, conflicts);
      },
      call_opts_);
}

}  // namespace coop::mobile
