#include "awareness/engine.hpp"

#include <algorithm>
#include <utility>

namespace coop::awareness {

namespace {

// Distinguishes multiple engines sharing one registry (e.g. one per
// site).  Construction order is deterministic under the simulator, so
// ids are stable across runs.
std::uint64_t next_engine_id() {
  static std::uint64_t id = 0;
  return id++;
}

// Heap order for the interest-expiry min-heap.
constexpr auto later = [](const auto& a, const auto& b) {
  return a.at > b.at;
};

// First record of an id-sorted interest list whose id is >= @p id.
template <typename List>
auto seek(List& list, ClientId id) {
  return std::lower_bound(
      list.begin(), list.end(), id,
      [](const auto& t, ClientId key) { return t.id < key; });
}

// Temporal interest raises the floor: someone editing "my" section is
// relevant however far away they sit in the space.
double combine(double spatial, double temporal) {
  return std::clamp(spatial + temporal * (1.0 - spatial), 0.0, 1.0);
}

}  // namespace

AwarenessEngine::AwarenessEngine(sim::Simulator& sim, SpatialModel& space,
                                 EngineConfig config, obs::Obs* obs)
    : sim_(sim),
      space_(space),
      config_(config),
      digest_timer_(sim, config.digest_period, [this] { flush_digests(); }) {
  if (obs == nullptr) obs = obs::default_obs();
  if (obs == nullptr) {
    owned_obs_ = std::make_unique<obs::Obs>();
    obs = owned_obs_.get();
  }
  obs_ = obs;
  metric_prefix_ = "awareness." + std::to_string(next_engine_id()) + ".";
  auto& m = obs_->metrics;
  m.expose(metric_prefix_ + "published",
           [this] { return static_cast<double>(stats_.published); });
  m.expose(metric_prefix_ + "immediate",
           [this] { return static_cast<double>(stats_.immediate); });
  m.expose(metric_prefix_ + "digested",
           [this] { return static_cast<double>(stats_.digested); });
  m.expose(metric_prefix_ + "coalesced",
           [this] { return static_cast<double>(stats_.coalesced); });
  m.expose(metric_prefix_ + "suppressed",
           [this] { return static_cast<double>(stats_.suppressed); });
  m.expose(metric_prefix_ + "digests_dropped",
           [this] { return static_cast<double>(stats_.digests_dropped); });
  m.expose(metric_prefix_ + "interest_evicted",
           [this] { return static_cast<double>(stats_.interest_evicted); });
  m.expose(metric_prefix_ + "interest_table_size",
           [this] { return static_cast<double>(interest_entries_); });
  m.expose(metric_prefix_ + "candidate_set_size",
           [this] { return static_cast<double>(last_candidate_set_); });
  m.expose(metric_prefix_ + "observers",
           [this] { return static_cast<double>(observers_.size()); });
  // Publish cost = observers examined per publish; the e12 sweep reads
  // its quantiles to show sub-linear growth.  Owned so the distribution
  // survives engine teardown in bench artifacts.
  publish_cost_ = &m.histogram(metric_prefix_ + "publish_cost", 0.0, 4096.0,
                               64);
  prof_publish_ = obs_->profiler.site("awareness.publish",
                                      obs::Category::kAwareness);
  prof_flush_ = obs_->profiler.site("awareness.flush",
                                    obs::Category::kAwareness);
  digest_timer_.start();
}

AwarenessEngine::~AwarenessEngine() {
  digest_timer_.stop();
  obs_->metrics.retire_polled(metric_prefix_);
}

void AwarenessEngine::subscribe(ClientId observer, DeliverFn fn) {
  if (dispatch_depth_ > 0) {
    // Applied after the running dispatch; an observer unsubscribed earlier
    // in this same dispatch stays squelched until then.
    deferred_.emplace_back(observer, std::optional<DeliverFn>(std::move(fn)));
    return;
  }
  add_observer(observer, std::move(fn));
}

void AwarenessEngine::unsubscribe(ClientId observer) {
  if (dispatch_depth_ > 0) {
    deferred_.emplace_back(observer, std::nullopt);
    if (dead_.insert(observer).second) dead_order_.push_back(observer);
    return;
  }
  drop_observer(observer);
}

AwarenessEngine::Observer* AwarenessEngine::find_observer(ClientId id) {
  const std::uint32_t at = observer_index_.find(id);
  return at == ObserverIndex::kNone ? nullptr : &observers_[at];
}

void AwarenessEngine::add_observer(ClientId observer, DeliverFn fn) {
  Observer* state = find_observer(observer);
  if (state == nullptr) {
    observer_index_.insert(observer,
                           static_cast<std::uint32_t>(observers_.size()));
    state = &observers_.emplace_back(Observer{.id = observer});
    // Ids usually arrive ascending, making this an append.
    observer_ids_.insert(std::upper_bound(observer_ids_.begin(),
                                          observer_ids_.end(), observer),
                         observer);
  }
  state->deliver = std::move(fn);
}

void AwarenessEngine::drop_observer(ClientId observer) {
  const std::uint32_t at = observer_index_.find(observer);
  if (at == ObserverIndex::kNone) return;
  Observer& state = observers_[at];
  stats_.digests_dropped += state.digest_count;
  free_digests(state.digest_head);
  if (state.queued) {
    // Absent when a flush skipped the (then dead) observer.
    auto q = std::find(digest_queue_.begin(), digest_queue_.end(), observer);
    if (q != digest_queue_.end()) digest_queue_.erase(q);
  }
  if (at + 1 != observers_.size()) {
    state = std::move(observers_.back());
    observer_index_.reassign(state.id, at);
  }
  observers_.pop_back();
  observer_index_.erase(observer);
  observer_ids_.erase(std::lower_bound(observer_ids_.begin(),
                                       observer_ids_.end(), observer));
}

void AwarenessEngine::apply_deferred() {
  for (auto& [observer, fn] : deferred_) {
    if (fn.has_value())
      add_observer(observer, std::move(*fn));
    else
      drop_observer(observer);
  }
  deferred_.clear();
  dead_.clear();
  dead_order_.clear();
}

double AwarenessEngine::decay(sim::TimePoint touched) const {
  const auto age = static_cast<double>(sim_.now() - touched);
  const auto tau = static_cast<double>(config_.interest_decay);
  if (tau <= 0) return 0.0;
  return std::exp(-age / tau);
}

double AwarenessEngine::interest(const InterestList& list,
                                 ClientId observer) const {
  auto it = seek(list, observer);
  return it != list.end() && it->id == observer ? decay(it->at) : 0.0;
}

double AwarenessEngine::weight(ClientId observer, ClientId actor,
                               const std::string& object) const {
  auto it = interest_.find(object);
  const double temporal =
      it != interest_.end() ? interest(it->second, observer) : 0.0;
  return combine(space_.awareness(observer, actor), temporal);
}

AwarenessEngine::InterestList& AwarenessEngine::touch(
    ClientId who, const std::string& object) {
  const sim::TimePoint now = sim_.now();
  auto entry = interest_.find(object);
  if (entry == interest_.end()) {
    if (spare_interest_.empty()) {
      // Room for four touchers: a node GC recycles seldom grows again.
      entry = interest_.try_emplace(object).first;
      entry->second.reserve(4);
    } else {
      // Re-key a node GC emptied; its list keeps its capacity.
      InterestTable::node_type node = std::move(spare_interest_.back());
      spare_interest_.pop_back();
      node.key() = object;
      entry = interest_.insert(std::move(node)).position;
    }
  }
  InterestList& list = entry->second;
  auto it = seek(list, who);
  if (it != list.end() && it->id == who) {
    it->at = now;  // the entry's expiry record catches up when popped
    return list;
  }
  list.insert(it, Touch{who, now});
  ++interest_entries_;
  expiry_.push_back(Expiry{now, &*entry, who});
  std::push_heap(expiry_.begin(), expiry_.end(), later);
  return list;
}

void AwarenessEngine::mark_interest(ClientId observer,
                                    const std::string& object) {
  touch(observer, object);
}

bool AwarenessEngine::handle(ClientId id, Observer& state,
                             const ActivityEvent& event, double w) {
  if (w <= 0.0) return false;
  if (w >= config_.full_threshold) {
    ++stats_.immediate;
    stats_.notification_time.add(static_cast<double>(sim_.now() - event.at));
    if (state.deliver) state.deliver(event, w, /*via_digest=*/false);
  } else {
    for (std::uint32_t d = state.digest_head; d != kNoDigest;
         d = digests_[d].next) {
      Digest& entry = digests_[d];
      if (entry.event.object != event.object) continue;
      ++stats_.coalesced;
      // Latest event wins *with its own weight*: delivering a newer event
      // stamped with an older event's higher weight misled observers
      // about what just happened (the old coalescing kept max(weight)).
      entry.event = event;
      entry.weight = w;
      return true;
    }
    const std::uint32_t d = alloc_digest(event, w);
    digests_[d].next = state.digest_head;
    state.digest_head = d;
    ++state.digest_count;
    if (!state.queued) {
      state.queued = true;
      digest_queue_.push_back(id);
    }
  }
  return true;
}

std::uint32_t AwarenessEngine::alloc_digest(const ActivityEvent& event,
                                            double w) {
  if (free_digest_ == kNoDigest) {
    digests_.push_back(Digest{event, w});
    return static_cast<std::uint32_t>(digests_.size() - 1);
  }
  const std::uint32_t d = free_digest_;
  Digest& entry = digests_[d];
  free_digest_ = entry.next;
  entry.event = event;
  entry.weight = w;
  return d;
}

void AwarenessEngine::free_digests(std::uint32_t head) {
  while (head != kNoDigest) {
    const std::uint32_t next = digests_[head].next;
    digests_[head].next = free_digest_;
    free_digest_ = head;
    head = next;
  }
}

void AwarenessEngine::publish(const ActivityEvent& event) {
  obs::ProfScope prof(obs_->profiler, prof_publish_);
  ++stats_.published;
  // The action itself refreshes the actor's interest in the object.
  const InterestList* interested = &touch(event.actor, event.object);

  const std::uint64_t immediate_before = stats_.immediate;
  std::size_t handled = 0;
  std::size_t visited = 0;
  ++dispatch_depth_;
  if (config_.use_index) {
    // Candidate set: grid neighbours inside the actor's nimbus ∪ ids with
    // live interest in the object.  Everyone else provably weighs 0.
    // Scratch vectors are moved out so a reentrant publish from a
    // delivery callback grabs fresh (empty) ones instead of clobbering
    // this walk.
    std::vector<Candidate> candidates = std::move(candidate_scratch_);
    candidates.clear();
    space_.spatial_candidates(event.actor, candidates);
    {
      // Merge the object's interest ids (sorted) into the grid's.  An id
      // the grid did not return lies outside the actor's nimbus, so its
      // spatial weight is exactly 0.
      std::vector<Candidate> merged = std::move(merge_scratch_);
      merged.clear();
      std::size_t i = 0;
      for (const Touch& t : *interested) {
        while (i < candidates.size() && candidates[i].id < t.id)
          merged.push_back(candidates[i++]);
        if (i < candidates.size() && candidates[i].id == t.id)
          merged.push_back(candidates[i++]);
        else
          merged.push_back({t.id, 0.0});
      }
      merged.insert(merged.end(),
                    candidates.begin() + static_cast<std::ptrdiff_t>(i),
                    candidates.end());
      candidates.swap(merged);
      merge_scratch_ = std::move(merged);
    }
    // Look every candidate's observer up once before the walk, so the
    // cache misses on the table and the records overlap instead of
    // running one at a time.
    for (const Candidate& c : candidates) {
      const std::uint32_t at = observer_index_.find(c.id);
      if (at != ObserverIndex::kNone) __builtin_prefetch(&observers_[at]);
    }
    auto subscribed = [this](ClientId id) {
      return observer_index_.find(id) != ObserverIndex::kNone;
    };
    // Observers already dead when this walk starts (unsubscribed by an
    // enclosing dispatch) were never eligible.
    const std::size_t dead_at_entry = dead_order_.size();
    // Eligible observers unsubscribed during the walk with ids above its
    // cursor: the ascending walk skips them with no stat.
    std::size_t died_ahead = 0;
    const std::uint64_t gc_epoch = gc_epoch_;
    for (const auto [observer, spatial] : candidates) {
      if (observer == event.actor || dead_.count(observer) != 0) continue;
      Observer* state = find_observer(observer);
      if (state == nullptr) continue;
      ++visited;
      // Callbacks may refresh or add entries in the list (read here, at
      // visit time, as weight() would); only a GC run from inside a
      // callback can free it.
      if (gc_epoch_ != gc_epoch) {
        auto iit = interest_.find(event.object);
        interested = iit != interest_.end() ? &iit->second : nullptr;
      }
      const double temporal =
          interested != nullptr ? interest(*interested, observer) : 0.0;
      const std::size_t deaths = dead_order_.size();
      if (handle(observer, *state, event, combine(spatial, temporal)))
        ++handled;
      for (std::size_t k = deaths; k < dead_order_.size(); ++k) {
        const ClientId d = dead_order_[k];
        if (d > observer && d != event.actor && subscribed(d)) ++died_ahead;
      }
    }
    // Non-candidates weigh 0 by construction; count them suppressed
    // without visiting so stats match the brute-force walk exactly.
    // Observers unsubscribed mid-walk split by where the cursor stood
    // when they died, mirroring the brute-force scan over the same
    // ascending-id order.  One at or below it keeps the stat the walk
    // already gave it: its visit's, or for a non-candidate, suppressed
    // (the scan had passed it).  One above it is skipped with no stat.
    std::size_t eligible = observers_.size();
    if (subscribed(event.actor)) --eligible;
    for (std::size_t k = 0; k < dead_at_entry; ++k) {
      const ClientId d = dead_order_[k];
      if (d != event.actor && subscribed(d)) --eligible;
    }
    stats_.suppressed += eligible - handled - died_ahead;
    candidate_scratch_ = std::move(candidates);
  } else {
    // The observer set cannot change during a dispatch, so the id vector
    // is stable under this walk.
    for (ClientId observer : observer_ids_) {
      if (observer == event.actor || dead_.count(observer) != 0) continue;
      ++visited;
      if (!handle(observer, *find_observer(observer), event,
                  weight(observer, event.actor, event.object)))
        ++stats_.suppressed;
      else
        ++handled;
    }
  }
  --dispatch_depth_;
  if (dispatch_depth_ == 0) apply_deferred();

  last_candidate_set_ = visited;
  publish_cost_->add(static_cast<double>(visited));
  obs_->tracer.event(
      sim_.now(), obs::Category::kAwareness, "awareness_publish",
      {{"actor", static_cast<double>(event.actor)},
       {"candidates", static_cast<double>(visited)},
       {"handled", static_cast<double>(handled)},
       {"immediate", static_cast<double>(stats_.immediate -
                                         immediate_before)}});
}

void AwarenessEngine::flush_digests() {
  obs::ProfScope prof(obs_->profiler, prof_flush_);
  const std::uint64_t digested_before = stats_.digested;
  const std::uint64_t evicted_before = stats_.interest_evicted;
  std::uint64_t dropped = 0;
  // This pass visits the queued observers in ascending id order, exactly
  // the non-empty digests an ascending walk over every observer meets.
  std::vector<ClientId> pass = std::move(digest_queue_);
  digest_queue_ = std::move(flush_scratch_);
  digest_queue_.clear();
  std::sort(pass.begin(), pass.end());
  ++dispatch_depth_;
  for (std::size_t i = 0; i < pass.size(); ++i) {
    const ClientId observer = pass[i];
    Observer* found = find_observer(observer);
    // A dead observer keeps its entries (and its queued mark) until
    // apply_deferred drops and counts them.
    if (found == nullptr || dead_.count(observer) != 0) continue;
    Observer& state = *found;
    state.queued = false;
    // Unhook the digest (callbacks below start a fresh one) and deliver
    // it in object order.
    const std::uint32_t head = std::exchange(state.digest_head, kNoDigest);
    state.digest_count = 0;
    std::vector<std::uint32_t> entries = std::move(digest_scratch_);
    entries.clear();
    for (std::uint32_t d = head; d != kNoDigest; d = digests_[d].next)
      entries.push_back(d);
    std::sort(entries.begin(), entries.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return digests_[a].event.object < digests_[b].event.object;
              });
    std::size_t delivered = 0;
    for (const std::uint32_t d : entries) {
      if (dead_.count(observer) != 0) {
        // A callback earlier in this flush unsubscribed the observer:
        // the rest of their digest dies with the subscription.
        dropped += entries.size() - delivered;
        break;
      }
      const Digest& entry = digests_[d];
      ++stats_.digested;
      stats_.notification_time.add(
          static_cast<double>(sim_.now() - entry.event.at));
      if (state.deliver)
        state.deliver(entry.event, entry.weight, /*via_digest=*/true);
      ++delivered;
    }
    free_digests(head);
    digest_scratch_ = std::move(entries);
    if (digest_queue_.empty()) continue;
    // Callbacks queued new digests.  Ids above the cursor join this pass,
    // as the ascending walk would still reach them; the rest (this
    // observer included) wait for the next flush.
    auto above = std::partition(digest_queue_.begin(), digest_queue_.end(),
                                [observer](ClientId id) {
                                  return id <= observer;
                                });
    if (above == digest_queue_.end()) continue;
    std::sort(above, digest_queue_.end());
    const auto old_size = static_cast<std::ptrdiff_t>(pass.size());
    pass.insert(pass.end(), above, digest_queue_.end());
    digest_queue_.erase(above, digest_queue_.end());
    std::inplace_merge(pass.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                       pass.begin() + old_size, pass.end());
  }
  --dispatch_depth_;
  flush_scratch_ = std::move(pass);
  stats_.digests_dropped += dropped;
  if (dispatch_depth_ == 0) apply_deferred();
  gc_interest();

  if (stats_.digested != digested_before || dropped != 0 ||
      stats_.interest_evicted != evicted_before) {
    obs_->tracer.event(
        sim_.now(), obs::Category::kAwareness, "awareness_flush",
        {{"delivered", static_cast<double>(stats_.digested - digested_before)},
         {"dropped", static_cast<double>(dropped)},
         {"evicted",
          static_cast<double>(stats_.interest_evicted - evicted_before)},
         {"interest_table", static_cast<double>(interest_entries_)}});
  }
}

void AwarenessEngine::gc_interest() {
  const auto tau = static_cast<double>(config_.interest_decay);
  if (tau <= 0 || config_.interest_gc_factor <= 0) return;
  const auto horizon =
      static_cast<sim::Duration>(tau * config_.interest_gc_factor);
  const sim::TimePoint now = sim_.now();
  // Every entry with now - touch > horizon has a record at or before its
  // touch time, so popping records until the oldest is within the
  // horizon reaches exactly the expired entries.
  while (!expiry_.empty() && now - expiry_.front().at > horizon) {
    std::pop_heap(expiry_.begin(), expiry_.end(), later);
    Expiry& rec = expiry_.back();
    InterestList& list = rec.entry->second;
    auto it = seek(list, rec.id);
    if (it->at != rec.at) {
      // Touched since this record was pushed: re-file at the touch time.
      rec.at = it->at;
      std::push_heap(expiry_.begin(), expiry_.end(), later);
      continue;
    }
    list.erase(it);
    --interest_entries_;
    ++stats_.interest_evicted;
    ++gc_epoch_;
    if (list.empty())
      spare_interest_.push_back(
          interest_.extract(interest_.find(rec.entry->first)));
    expiry_.pop_back();
  }
}

}  // namespace coop::awareness
