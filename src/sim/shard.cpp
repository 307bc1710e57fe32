#include "sim/shard.hpp"

#include <algorithm>

namespace coop::sim {

ShardedEngine::ShardedEngine(const ShardedConfig& cfg) : cfg_(cfg) {
  if (cfg_.shards == 0) cfg_.shards = 1;
  if (cfg_.threads == 0) cfg_.threads = 1;
  if (cfg_.lookahead < 0) cfg_.lookahead = 0;
  // Per-shard rng streams forked off the master seed, in shard order —
  // deterministic and independent of shard count changes elsewhere.
  Rng master(cfg_.seed);
  shards_.reserve(cfg_.shards);
  for (std::uint32_t s = 0; s < cfg_.shards; ++s) {
    shards_.push_back(
        std::make_unique<Shard>(master.next() ^ 0xa5a5a5a55a5a5a5aULL));
    shards_.back()->sim.shard_ = s;
  }
  phase_counts_.assign(cfg_.shards, 0);
}

ShardedEngine::~ShardedEngine() {
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lk(pool_mu_);
      pool_stop_ = true;
    }
    pool_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }
}

TimePoint ShardedEngine::now() const noexcept {
  TimePoint t = 0;
  for (const auto& s : shards_) t = std::max(t, s->sim.now());
  return t;
}

std::size_t ShardedEngine::pending() const noexcept {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->sim.pending() + s->outbox.size();
  return n;
}

std::uint64_t ShardedEngine::events_processed() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->sim.events_processed();
  return n;
}

std::uint64_t ShardedEngine::lookahead_violations() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->violations;
  return n;
}

void ShardedEngine::set_step_hook(StepHookFn fn, void* ctx) noexcept {
  for (auto& s : shards_) s->sim.set_step_hook(fn, ctx);
}

void ShardedEngine::set_step_timer(StepTimerFn fn, void* ctx) noexcept {
  for (auto& s : shards_) s->sim.set_step_timer(fn, ctx);
}

void ShardedEngine::send(const ShardMsg& m) {
  assert(m.src_shard < shards_.size() && m.dst_shard < shards_.size());
  Shard& src = *shards_[m.src_shard];
  if (m.dst_shard == m.src_shard) {
    // Same shard: an ordinary event, exactly as the serial kernel would
    // schedule a delivery (clamped to the shard's clock).
    ShardedEngine* eng = this;
    const ShardMsg msg = m;
    src.sim.schedule_at(m.at, [eng, msg] {
      if (eng->msg_fn_ != nullptr) eng->msg_fn_(eng->msg_ctx_, msg);
    });
    return;
  }
  // Counted on the source shard: send() runs on that shard's worker.
  if (m.at < saturating_after(src.sim.now(), cfg_.lookahead))
    ++src.violations;
  src.outbox.push_back(m);
}

void ShardedEngine::flush_outboxes() {
  scratch_.clear();
  for (auto& s : shards_) {
    if (s->outbox.empty()) continue;
    scratch_.insert(scratch_.end(), s->outbox.begin(), s->outbox.end());
    s->outbox.clear();
  }
  if (scratch_.empty()) return;
  cross_msgs_ += scratch_.size();
  // (arrival, src, seq) is unique per message, so this is a strict total
  // order: insertion sequence — and with it every FIFO tiebreak in the
  // destination queue — is independent of shard/thread geometry.
  std::sort(scratch_.begin(), scratch_.end(),
            [](const ShardMsg& a, const ShardMsg& b) {
              if (a.dst_shard != b.dst_shard) return a.dst_shard < b.dst_shard;
              if (a.at != b.at) return a.at < b.at;
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
  ShardedEngine* eng = this;
  for (const ShardMsg& m : scratch_) {
    shards_[m.dst_shard]->sim.schedule_at(m.at, [eng, m] {
      if (eng->msg_fn_ != nullptr) eng->msg_fn_(eng->msg_ctx_, m);
    });
  }
}

void ShardedEngine::run_shard(std::uint32_t s, Phase phase, TimePoint bound) {
  Simulator& sim = shards_[s]->sim;
  if (phase == Phase::kBelow) {
    // The window [t0, bound) is half-open; bound >= 1 since L > 0.
    phase_counts_[s] = sim.drain(bound - 1, Simulator::kNoEventLimit);
  } else {
    // bound is the global minimum queued timestamp, so nothing — live or
    // cancelled — sits below it, and every event this fires is at bound.
    assert(sim.next_time() >= bound && "event below the barrier timestamp");
    phase_counts_[s] = sim.drain(bound, Simulator::kNoEventLimit);
  }
}

std::size_t ShardedEngine::run_phase(Phase phase, TimePoint bound) {
  const auto n = static_cast<std::uint32_t>(shards_.size());
  const std::uint32_t nw = std::min(cfg_.threads, n);
  if (nw <= 1) {
    for (std::uint32_t s = 0; s < n; ++s) run_shard(s, phase, bound);
  } else {
    start_workers();
    {
      std::lock_guard<std::mutex> lk(pool_mu_);
      pool_phase_ = phase;
      pool_bound_ = bound;
      pool_remaining_ = nw - 1;
      ++pool_gen_;
    }
    pool_cv_.notify_all();
    // The coordinator works worker slot 0's share itself.
    for (std::uint32_t s = 0; s < n; s += nw) run_shard(s, phase, bound);
    std::unique_lock<std::mutex> lk(pool_mu_);
    pool_cv_.wait(lk, [this] { return pool_remaining_ == 0; });
  }
  std::size_t total = 0;
  for (std::uint32_t s = 0; s < n; ++s) total += phase_counts_[s];
  return total;
}

void ShardedEngine::start_workers() {
  const auto n = static_cast<std::uint32_t>(shards_.size());
  const std::uint32_t nw = std::min(cfg_.threads, n);
  if (nw <= 1 || !workers_.empty()) return;
  workers_.reserve(nw - 1);
  for (std::uint32_t w = 1; w < nw; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

void ShardedEngine::worker_loop(std::uint32_t worker) {
  const auto n = static_cast<std::uint32_t>(shards_.size());
  const std::uint32_t nw = std::min(cfg_.threads, n);
  std::uint64_t seen_gen = 0;
  for (;;) {
    Phase phase;
    TimePoint bound;
    {
      std::unique_lock<std::mutex> lk(pool_mu_);
      pool_cv_.wait(lk, [this, seen_gen] {
        return pool_stop_ || pool_gen_ != seen_gen;
      });
      if (pool_stop_) return;
      seen_gen = pool_gen_;
      phase = pool_phase_;
      bound = pool_bound_;
    }
    for (std::uint32_t s = worker; s < n; s += nw)
      run_shard(s, phase, bound);
    {
      std::lock_guard<std::mutex> lk(pool_mu_);
      --pool_remaining_;
    }
    pool_cv_.notify_all();
  }
}

std::size_t ShardedEngine::run_epochs(TimePoint last,
                                      std::size_t max_events) {
  std::size_t total = 0;
  for (;;) {
    flush_outboxes();  // also admits driver sends parked pre-run
    TimePoint t0 = kTimeMax;
    for (auto& s : shards_) t0 = std::min(t0, s->sim.next_time());
    if (t0 > last || t0 == kTimeMax) break;
    std::size_t n;
    TimePoint horizon;
    if (cfg_.lookahead > 0) {
      // Window [t0, t0 + L), clipped so nothing past `last` fires —
      // stopping mid-epoch must leave the queues exactly as a straight
      // run would.
      horizon = saturating_after(t0, cfg_.lookahead);
      if (horizon > last) horizon = saturating_after(last, 1);
      n = run_phase(Phase::kBelow, horizon);
    } else {
      horizon = t0;
      n = run_phase(Phase::kAt, t0);
    }
    total += n;
    ++epochs_;
    if (epoch_fn_ != nullptr) epoch_fn_(epoch_ctx_, t0, horizon, n);
    if (total >= max_events) break;  // epoch-granular runaway guard
  }
  return total;
}

std::size_t ShardedEngine::run_until(TimePoint t) {
  const std::size_t n = run_epochs(t, Simulator::kNoEventLimit);
  for (auto& s : shards_) s->sim.advance_to(t);
  return n;
}

std::size_t ShardedEngine::run(std::size_t max_events) {
  return run_epochs(kTimeMax, max_events);
}

}  // namespace coop::sim
