#include "durable/wal.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "util/codec.hpp"
#include "util/fnv.hpp"

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
      synced_lsn_(first_lsn > 0 ? first_lsn - 1 : 0),
      obs_(obs) {
  auto& m = obs_.metrics;
  appends_ = &m.counter(metric_key(cfg_.name, "appends"));
  syncs_ = &m.counter(metric_key(cfg_.name, "syncs"));
  synced_bytes_ = &m.counter(metric_key(cfg_.name, "synced_bytes"));
}

Wal::~Wal() {
  if (sync_timer_ != sim::kInvalidEvent) sim_.cancel(sync_timer_);
}

void Wal::encode_frame(std::vector<std::uint8_t>& out, const WalRecord& rec) {
  util::Writer w;
  w.put(static_cast<std::uint8_t>(rec.type))
      .put(rec.lsn)
      .put(rec.version)
      .put(rec.stamp)
      .put_string(rec.key)
      .put_string(rec.value);
  // Header {u32 length, u32 checksum of the body}, then the body, both
  // appended straight from the pooled encoding.
  const util::Buf body = w.take_buf();
  const std::array<std::uint32_t, 2> head{
      static_cast<std::uint32_t>(body.size()), util::fnv1a32(body)};
  const auto* head_bytes = reinterpret_cast<const std::uint8_t*>(head.data());
  out.insert(out.end(), head_bytes, head_bytes + sizeof(head));
  out.insert(out.end(), body.data(), body.data() + body.size());
}

bool Wal::Scanner::next(WalRecord& out) {
  if (done_) return false;
  const std::size_t remaining = log_.size() - pos_;
  if (remaining == 0) {
    done_ = true;
    return false;
  }
  if (remaining < 8) {  // not even a frame header: torn tail
    torn_ = true;
    done_ = true;
    return false;
  }
  const auto* base = reinterpret_cast<const char*>(log_.data());
  util::Reader hdr(std::string_view(base + pos_, 8));
  const auto len = hdr.get<std::uint32_t>();
  const auto sum = hdr.get<std::uint32_t>();
  if (len > remaining - 8) {  // body overruns the medium: torn tail
    torn_ = true;
    done_ = true;
    return false;
  }
  const std::string_view body(base + pos_ + 8, len);
  if (util::fnv1a32(body) != sum) {  // corrupt frame: never parsed
    torn_ = true;
    done_ = true;
    return false;
  }
  util::Reader r(body);
  WalRecord rec;
  rec.type = static_cast<WalRecord::Type>(r.get<std::uint8_t>());
  rec.lsn = r.get<std::uint64_t>();
  rec.version = r.get<std::uint64_t>();
  rec.stamp = r.get<std::uint64_t>();
  rec.key = r.get_string();
  rec.value = r.get_string();
  if (r.failed() || !r.exhausted() ||
      (rec.type != WalRecord::kPut && rec.type != WalRecord::kErase)) {
    torn_ = true;  // checksummed but malformed: treat as corruption
    done_ = true;
    return false;
  }
  pos_ += 8 + len;
  ++records_;
  out = std::move(rec);
  return true;
}

std::uint64_t Wal::append(WalRecord rec, DurableFn on_durable) {
  rec.lsn = next_lsn_++;
  encode_frame(pending_, rec);
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
  synced_lsn_ = next_lsn_ - 1;
  // Swap out first: an ack callback may append (and so wait) again.
  std::vector<Waiter> fire;
  fire.swap(waiters_);
  for (Waiter& w : fire) w.fn();
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
