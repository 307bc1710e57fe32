#include "durable/wal.hpp"

#include <algorithm>
#include <utility>

namespace coop::durable {

namespace {

std::string metric_key(const std::string& name, const char* leaf) {
  return "durable." + name + "." + leaf;
}

}  // namespace

Wal::Wal(sim::Simulator& sim, obs::Obs& obs, StableMedia& media,
         WalConfig cfg, std::uint64_t first_lsn)
    : sim_(sim),
      media_(media),
      cfg_(std::move(cfg)),
      next_lsn_(first_lsn),
      obs_(obs) {
  auto& m = obs_.metrics;
  appends_ = &m.counter(metric_key(cfg_.name, "appends"));
  syncs_ = &m.counter(metric_key(cfg_.name, "syncs"));
  synced_bytes_ = &m.counter(metric_key(cfg_.name, "synced_bytes"));
}

Wal::~Wal() {
  if (sync_timer_ != sim::kInvalidEvent) sim_.cancel(sync_timer_);
}

std::uint64_t Wal::append(WalRecord rec, DurableFn on_durable) {
  rec.lsn = next_lsn_++;
  seal_frame(pending_, rec);
  appends_->inc();
  if (on_durable) waiters_.push_back({rec.lsn, std::move(on_durable)});
  if (cfg_.sync_interval <= 0) {
    sync();
  } else {
    arm_sync_timer();
  }
  return rec.lsn;
}

void Wal::arm_sync_timer() {
  if (sync_timer_ != sim::kInvalidEvent || crashed_) return;
  sync_timer_ = sim_.schedule_after(cfg_.sync_interval, [this] {
    sync_timer_ = sim::kInvalidEvent;
    sync();
  });
}

void Wal::sync() {
  if (crashed_ || pending_.empty()) return;
  media_.log.insert(media_.log.end(), pending_.begin(), pending_.end());
  synced_bytes_->inc(pending_.size());
  syncs_->inc();
  obs_.tracer.event(sim_.now(), obs::Category::kDurable, "sync",
                    {{"bytes", static_cast<double>(pending_.size())},
                     {"log_bytes", static_cast<double>(media_.log.size())},
                     {"acks", static_cast<double>(waiters_.size())}});
  pending_.clear();
  // Swap out first: an ack callback may append, and so sync, again.  The
  // two buffers take turns through the spare, so both keep their capacity.
  std::vector<Waiter> fire = std::move(spare_waiters_);
  fire.swap(waiters_);
  for (Waiter& w : fire) w.fn();
  fire.clear();
  spare_waiters_ = std::move(fire);
  if (after_sync_) after_sync_();
}

void Wal::crash(std::size_t torn_bytes) {
  crashed_ = true;
  if (sync_timer_ != sim::kInvalidEvent) {
    sim_.cancel(sync_timer_);
    sync_timer_ = sim::kInvalidEvent;
  }
  const std::size_t torn = std::min(torn_bytes, pending_.size());
  if (torn > 0) {
    media_.log.insert(media_.log.end(), pending_.begin(),
                      pending_.begin() + static_cast<std::ptrdiff_t>(torn));
    ++media_.torn_writes;
    obs_.tracer.event(sim_.now(), obs::Category::kDurable, "torn_tail",
                      {{"bytes", static_cast<double>(torn)}});
  }
  pending_.clear();
  waiters_.clear();  // un-acked by construction: dropped unfired
}

void Wal::truncate_log() { media_.log.clear(); }

}  // namespace coop::durable
