#include "durable/store.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

#include "util/codec.hpp"
#include "util/fnv.hpp"

namespace coop::durable {

namespace {

std::string metric_key(const std::string& name, const char* leaf) {
  return "durable." + name + "." + leaf;
}

}  // namespace

DurableStore::DurableStore(sim::Simulator& sim, obs::Obs& obs,
                           StableMedia& media, DurableConfig cfg)
    : sim_(sim),
      obs_(obs),
      media_(media),
      cfg_(std::move(cfg)),
      wal_(sim, obs, media, WalConfig{cfg_.name, cfg_.sync_interval},
           recover(media, mem_, recovery_)) {
  auto& m = obs_.metrics;
  replays_ = &m.counter(metric_key(cfg_.name, "replays"));
  replayed_records_ = &m.counter(metric_key(cfg_.name, "replayed_records"));
  truncated_tail_ = &m.counter(metric_key(cfg_.name, "truncated_tail"));
  truncated_bytes_ = &m.counter(metric_key(cfg_.name, "truncated_bytes"));
  checkpoints_ = &m.counter(metric_key(cfg_.name, "checkpoints"));
  tombstones_gc_ = &m.counter(metric_key(cfg_.name, "tombstones_gc"));
  ts_recovery_ = obs_.series.series("durable.recovery_us");
  wal_.set_after_sync([this] { after_sync(); });

  replays_->inc();
  replayed_records_->inc(recovery_.replayed_records);
  if (recovery_.truncated_bytes > 0) {
    truncated_tail_->inc();
    truncated_bytes_->inc(recovery_.truncated_bytes);
  }
  // Modeled recovery latency: proportional to the bytes the replayer had
  // to read.  A post-checkpoint restart scans O(state + short log); a
  // restart after a long un-checkpointed run scans the whole history —
  // the series makes that difference a visible trajectory.
  const double recovery_us =
      kReplayUsPerByte * static_cast<double>(recovery_.scanned_bytes);
  if (ts_recovery_ != obs::Timeseries::kInvalidSeries) {
    obs_.series.observe(ts_recovery_, sim_.now(), recovery_us);
  }
  obs_.tracer.event(
      sim_.now(), obs::Category::kDurable, "recover",
      {{"records", static_cast<double>(recovery_.replayed_records)},
       {"torn_bytes", static_cast<double>(recovery_.truncated_bytes)},
       {"base_lsn", static_cast<double>(recovery_.base_lsn)},
       {"ckpt", recovery_.checkpoint_loaded ? 1.0 : 0.0}});
}

std::uint64_t DurableStore::recover(StableMedia& media,
                                    ccontrol::ObjectStore& mem,
                                    RecoveryStats& out) {
  std::uint64_t max_lsn = 0;

  // 1. Restore the last sealed snapshot, if it verifies.  A failed
  //    checksum falls back to log-only replay: the model writes snapshots
  //    atomically, so this path only arises from external tampering (and
  //    the scanner-hardening tests).
  if (!media.checkpoint.empty()) {
    bool ok = false;
    const auto* base = reinterpret_cast<const char*>(media.checkpoint.data());
    const std::size_t n = media.checkpoint.size();
    if (n >= 8) {
      util::Reader hdr(std::string_view(base, 8));
      const auto len = hdr.get<std::uint32_t>();
      const auto sum = hdr.get<std::uint32_t>();
      if (len == n - 8) {
        const std::string_view body(base + 8, len);
        if (util::fnv1a32(body) == sum) {
          util::Reader r(body);
          const auto base_lsn = r.get<std::uint64_t>();
          ccontrol::ObjectStore loaded;
          const auto n_items = r.get<std::uint32_t>();
          for (std::uint32_t i = 0; i < n_items && !r.failed(); ++i) {
            std::string key = r.get_string();
            std::string value = r.get_string();
            const auto version = r.get<std::uint64_t>();
            loaded.apply_put(key, std::move(value), version);
          }
          const auto n_tombs = r.get<std::uint32_t>();
          for (std::uint32_t i = 0; i < n_tombs && !r.failed(); ++i) {
            std::string key = r.get_string();
            const auto version = r.get<std::uint64_t>();
            const auto stamp = r.get<std::uint64_t>();
            loaded.apply_erase(key, version, stamp);
          }
          if (!r.failed() && r.exhausted()) {
            mem = std::move(loaded);
            out.checkpoint_loaded = true;
            out.base_lsn = base_lsn;
            if (base_lsn > 0) max_lsn = base_lsn - 1;
            ok = true;
          }
        }
      }
    }
    if (!ok) out.checkpoint_corrupt = true;
  }
  out.scanned_bytes = media.checkpoint.size() + media.log.size();

  // 2. Replay the intact log prefix with absolute versions (idempotent:
  //    a double restart reaches the same state).  Records the checkpoint
  //    already covers are skipped; the torn/corrupt tail is discarded by
  //    the scanner without ever being parsed.
  Wal::Scanner scan(media.log);
  WalRecord rec;
  while (scan.next(rec)) {
    if (rec.lsn < out.base_lsn) {
      ++out.skipped_records;
      continue;
    }
    if (rec.type == WalRecord::kPut) {
      mem.apply_put(rec.key, std::move(rec.value), rec.version);
    } else {
      mem.apply_erase(rec.key, rec.version, rec.stamp);
    }
    ++out.replayed_records;
    if (rec.lsn > max_lsn) max_lsn = rec.lsn;
  }
  if (scan.truncated()) {
    out.truncated_bytes = scan.truncated_bytes();
    // Repair: cut the torn suffix off the medium, so post-recovery
    // appends land after the intact prefix.  Without this, the garbage
    // would sit in front of every future (synced, acked!) record and the
    // next replay would discard them all.
    media.log.resize(media.log.size() - out.truncated_bytes);
  }

  return std::max<std::uint64_t>(max_lsn + 1, 1);
}

void DurableStore::put(const std::string& key, std::string value,
                       DurableFn on_durable) {
  mem_.write(key, value);
  WalRecord rec;
  rec.type = WalRecord::kPut;
  rec.version = mem_.version(key);
  rec.stamp = static_cast<std::uint64_t>(sim_.now());
  rec.key = key;
  rec.value = std::move(value);
  wal_.append(std::move(rec), std::move(on_durable));
}

void DurableStore::erase(const std::string& key, DurableFn on_durable) {
  mem_.erase(key, static_cast<std::uint64_t>(sim_.now()));
  // Whether this call deleted a live value or the key was already
  // tombstoned, the ack must gate on the tombstone being durable — a
  // re-issued delete whose first record died unsynced gets a fresh record
  // (same version: apply_erase keeps the max, so replay is idempotent).
  auto it = mem_.tombstones().find(key);
  if (it == mem_.tombstones().end()) {
    if (on_durable) on_durable();  // never existed: trivially durable
    return;
  }
  WalRecord rec;
  rec.type = WalRecord::kErase;
  rec.version = it->second.version;
  rec.stamp = it->second.stamp;
  rec.key = key;
  wal_.append(std::move(rec), std::move(on_durable));
}

bool DurableStore::apply_remote_put(const std::string& key, std::string value,
                                    std::uint64_t version,
                                    std::uint64_t stamp) {
  if (version <= mem_.version(key)) return false;  // LWW: ties keep local
  mem_.apply_put(key, value, version);
  WalRecord rec;
  rec.type = WalRecord::kPut;
  rec.version = version;
  rec.stamp = stamp;
  rec.key = key;
  rec.value = std::move(value);
  wal_.append(std::move(rec));
  return true;
}

bool DurableStore::apply_remote_erase(const std::string& key,
                                      std::uint64_t version,
                                      std::uint64_t stamp) {
  if (version <= mem_.version(key)) return false;  // LWW: ties keep local
  mem_.apply_erase(key, version, stamp);
  WalRecord rec;
  rec.type = WalRecord::kErase;
  rec.version = version;
  rec.stamp = stamp;
  rec.key = key;
  wal_.append(std::move(rec));
  return true;
}

void DurableStore::checkpoint() {
  if (checkpointing_) return;
  checkpointing_ = true;
  wal_.sync();  // the snapshot must cover every acked record

  const sim::TimePoint now = sim_.now();
  const std::uint64_t min_stamp =
      now >= cfg_.tombstone_ttl
          ? static_cast<std::uint64_t>(now - cfg_.tombstone_ttl)
          : 0;
  const std::size_t gc = mem_.gc_tombstones(min_stamp, kTombstoneCap);
  tombstones_gc_->inc(gc);

  const std::size_t log_before = wal_.log_bytes();
  util::Writer w;
  w.put(wal_.next_lsn());  // base_lsn: replay resumes here
  const auto keys = mem_.keys();
  w.put(static_cast<std::uint32_t>(keys.size()));
  for (const auto& k : keys) {
    w.put_string(k).put_string(*mem_.read(k)).put(mem_.version(k));
  }
  w.put(static_cast<std::uint32_t>(mem_.tombstones().size()));
  for (const auto& [k, t] : mem_.tombstones()) {
    w.put_string(k).put(t.version).put(t.stamp);
  }
  const std::string body = w.take();
  util::Writer hdr;
  hdr.put(static_cast<std::uint32_t>(body.size()))
      .put(util::fnv1a32(body));
  const std::string head = hdr.take();
  media_.checkpoint.assign(head.begin(), head.end());
  media_.checkpoint.insert(media_.checkpoint.end(), body.begin(), body.end());
  ++media_.checkpoints;
  wal_.truncate_log();

  checkpoints_->inc();
  obs_.tracer.event(
      sim_.now(), obs::Category::kDurable, "checkpoint",
      {{"bytes", static_cast<double>(media_.checkpoint.size())},
       {"log_truncated", static_cast<double>(log_before)},
       {"tombstones_gc", static_cast<double>(gc)}});
  checkpointing_ = false;
}

void DurableStore::after_sync() {
  max_log_bytes_ = std::max(max_log_bytes_, wal_.log_bytes());
  if (cfg_.checkpoint_log_bytes > 0 && !checkpointing_ &&
      wal_.log_bytes() >= cfg_.checkpoint_log_bytes) {
    checkpoint();
  }
}

}  // namespace coop::durable
