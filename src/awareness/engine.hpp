// The awareness engine: activity events weighted by spatial and temporal
// metrics, delivered immediately, digested, or suppressed.
//
// §4.2.1: "provide explicit awareness mechanisms for both synchronous and
// asynchronous modes of working.  This work often uses spatial and temporal
// metrics to generate awareness weightings defining the impact of actions
// on other users."
//
// Weighting = spatial awareness (focus/nimbus overlap) raised by a
// temporal *interest* term: an observer who recently worked on the same
// object stays highly aware of changes to it even from across the space
// (their attention lingers).  Interest decays exponentially.
//
// Delivery policy per (event, observer):
//   weight >= full_threshold  -> immediate callback (notification time ~0)
//   0 < weight < threshold    -> batched into a periodic digest; only the
//                                latest event per object survives batching
//   weight == 0               -> suppressed entirely
//
// Scale: publish() does not walk every observer.  An event can only carry
// non-zero weight for (a) observers inside the actor's nimbus — served by
// the SpatialModel's uniform grid, which returns each with its exact
// spatial weight — and (b) observers with a live temporal-interest entry
// for the object, whose spatial weight is 0 unless the grid returned
// them.  Interest lives in one hashed table, object -> (id, last touch)
// records sorted by id, so a publish finds the object once and that one
// list serves both the merge with the grid candidates and every
// candidate's temporal term.  The merged ids are visited in ascending
// order, which is exactly the order a brute-force scan of the (sorted)
// observer ids visits the non-zero-weight subset, so deliveries and stats
// are byte-identical to the O(N) walk (config.use_index = false keeps the
// brute-force path alive as the differential baseline).  Observers sit in
// one dense vector found through an open-addressing id table
// (util/flat_index.hpp).
//
// Periodic work is proportional to what is pending, not to the
// population: observers holding a digest are queued once, and a flush
// sorts and visits only those; interest GC pops expired records from a
// min-heap that holds at most one record per live interest entry.
//
// Storage on the publish path reuses what it has: pending digests are
// entries of one engine-wide pool chained per observer (an observer
// holds only the head index and a count), freed entries go on a free
// list, and an interest-table node emptied by GC is kept and re-keyed
// for the next new object.  Memory follows the peak pending digests and
// the peak live objects, not the session's history.
//
// Reentrancy contract: subscribe()/unsubscribe() may be called from
// inside a DeliverFn.  The mutation is deferred until the dispatch that
// is currently running completes; until then an unsubscribed observer
// receives no further deliveries (its remaining digest entries are
// dropped and counted in stats().digests_dropped) and a freshly
// subscribed observer starts receiving only after the dispatch.
// publish() and mark_interest() from inside a DeliverFn are safe.  The
// indexed walk takes its spatial weights when it starts, so a callback
// that moves a participant or changes an aura changes the weights of
// later publishes, not of the rest of the running one.
#pragma once

#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "awareness/spatial.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "util/flat_index.hpp"
#include "util/stats.hpp"

namespace coop::awareness {

/// One observable action in the workspace.
struct ActivityEvent {
  ClientId actor = 0;
  std::string object;  ///< what was touched (document, section, strip...)
  std::string verb;    ///< what happened ("edit", "annotate", "move"...)
  sim::TimePoint at = 0;
};

struct EngineConfig {
  /// Weight at or above which delivery is immediate.
  double full_threshold = 0.4;
  /// Digest flush cadence for peripheral observers.
  sim::Duration digest_period = sim::sec(5);
  /// e-folding time of the temporal interest term.
  sim::Duration interest_decay = sim::sec(60);
  /// Interest entries older than this many decay constants are evicted on
  /// the digest timer (their weight contribution, e^-10 ~ 5e-5, is far
  /// below anything a delivery policy acts on).  <= 0 disables eviction.
  double interest_gc_factor = 10.0;
  /// false = brute-force all-observer walk per publish; the differential
  /// baseline bench_e12 compares the indexed path against.
  bool use_index = true;
};

struct EngineStats {
  std::uint64_t published = 0;
  std::uint64_t immediate = 0;
  std::uint64_t digested = 0;        ///< events delivered via digests
  std::uint64_t coalesced = 0;       ///< events replaced inside a digest
  std::uint64_t suppressed = 0;      ///< weight-zero drops
  std::uint64_t digests_dropped = 0; ///< pending entries lost to unsubscribe
  std::uint64_t interest_evicted = 0;  ///< last-touch entries GC'd
  /// Publish -> delivery, virtual µs, over [0, 10 s); total() and
  /// max_seen() are exact.
  util::Histogram notification_time{0.0, 1e7, 64};
};

/// Session-local awareness distributor.  Distribution across sites is the
/// transport's job (the groupware session publishes into one engine per
/// site and replicates events over a GroupChannel).
class AwarenessEngine {
 public:
  /// Delivery callback: the event plus the weight it carried for this
  /// observer.  `via_digest` distinguishes the two delivery paths.
  using DeliverFn =
      std::function<void(const ActivityEvent&, double weight, bool via_digest)>;

  /// Records into @p obs if given, else the ambient default, else a
  /// private Obs (standalone engines in unit tests need no setup).
  AwarenessEngine(sim::Simulator& sim, SpatialModel& space,
                  EngineConfig config = {}, obs::Obs* obs = nullptr);
  ~AwarenessEngine();

  AwarenessEngine(const AwarenessEngine&) = delete;
  AwarenessEngine& operator=(const AwarenessEngine&) = delete;

  /// Registers @p observer's callback (deferred while a dispatch runs).
  void subscribe(ClientId observer, DeliverFn fn);
  void unsubscribe(ClientId observer);

  /// Publishes an action; the engine fans it out by weight.  The actor
  /// also gains interest in the object (temporal metric).
  void publish(const ActivityEvent& event);

  /// Current weight of @p event's relevance for @p observer (spatial ×
  /// temporal combination) — exposed for visualisation layers.
  [[nodiscard]] double weight(ClientId observer, ClientId actor,
                              const std::string& object) const;

  /// Explicitly registers interest (e.g. opening a document) so changes
  /// to @p object reach @p observer even without spatial overlap.
  void mark_interest(ClientId observer, const std::string& object);

  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }

  /// Live (ungarbage-collected) interest entries across all objects.
  [[nodiscard]] std::size_t interest_table_size() const noexcept {
    return interest_entries_;
  }

  /// Records in the interest-expiry heap: never more than
  /// interest_table_size(), however often entries are refreshed.
  [[nodiscard]] std::size_t interest_expiry_records() const noexcept {
    return expiry_.size();
  }

  /// Observers visited by the most recent publish().
  [[nodiscard]] std::size_t last_candidate_set() const noexcept {
    return last_candidate_set_;
  }

  /// Metric key prefix ("awareness.<id>.") of this engine's instruments.
  [[nodiscard]] const std::string& metric_prefix() const noexcept {
    return metric_prefix_;
  }

 private:
  using ObserverIndex = util::FlatIndex<ClientId>;

  /// No digest entry: the end of a list.
  static constexpr std::uint32_t kNoDigest = ~std::uint32_t{0};

  /// One pending digest entry: the latest event on one object for one
  /// observer, with its weight.  `next` chains an observer's entries (or
  /// the free list).
  struct Digest {
    ActivityEvent event;
    double weight = 0;
    std::uint32_t next = kNoDigest;
  };

  struct Observer {
    ClientId id;
    DeliverFn deliver;
    /// This observer's pending digest: a list in digests_, one entry per
    /// object, unordered.
    std::uint32_t digest_head = kNoDigest;
    std::uint32_t digest_count = 0;
    /// In digest_queue_ or the running flush: set while the digest is
    /// non-empty (dead observers keep it until apply_deferred drops them).
    bool queued = false;
  };

  /// One observer's interest in an object: when they last acted on it.
  struct Touch {
    ClientId id;
    sim::TimePoint at;
  };
  /// Everyone with live interest in one object, sorted by id.
  using InterestList = std::vector<Touch>;
  using InterestTable = std::unordered_map<std::string, InterestList>;
  /// Expiry-heap record for one live (object, id) entry.  `at` may lag
  /// the entry's touch time: refreshes push nothing, and gc_interest()
  /// re-pushes a popped record whose entry was touched since.
  struct Expiry {
    sim::TimePoint at;
    InterestTable::value_type* entry;  // node pointers survive rehashing
    ClientId id;
  };

  /// Refreshes (who, object) interest; returns the object's list.
  InterestList& touch(ClientId who, const std::string& object);
  [[nodiscard]] double decay(sim::TimePoint touched) const;
  /// Decayed interest of @p observer in @p list's object (0 if none).
  [[nodiscard]] double interest(const InterestList& list,
                                ClientId observer) const;
  /// Delivers or digests @p event for one observer; false if weight == 0.
  bool handle(ClientId id, Observer& state, const ActivityEvent& event,
              double w);
  /// A digest entry holding @p event and @p w, from the free list if it
  /// has one.
  std::uint32_t alloc_digest(const ActivityEvent& event, double w);
  /// Returns the list starting at @p head to the free list.
  void free_digests(std::uint32_t head);
  void flush_digests();
  void gc_interest();
  /// @p id's entry in observers_, or nullptr if not subscribed.
  [[nodiscard]] Observer* find_observer(ClientId id);
  void add_observer(ClientId observer, DeliverFn fn);
  void drop_observer(ClientId observer);
  void apply_deferred();

  sim::Simulator& sim_;
  SpatialModel& space_;
  EngineConfig config_;
  /// Every subscribed observer, densely and in no particular order;
  /// unsubscribe swaps the last one into the hole.
  std::vector<Observer> observers_;
  /// Observer id -> its index in observers_.
  ObserverIndex observer_index_;
  /// observers_' ids, ascending: the brute-force walk's order.
  std::vector<ClientId> observer_ids_;
  /// Observers whose digest is waiting for the next flush, unsorted.
  std::vector<ClientId> digest_queue_;
  /// Every digest entry, pending or free.  A deque, so an entry being
  /// delivered stays put while a callback's publish grows the pool.
  std::deque<Digest> digests_;
  /// Head of the free entries' list.
  std::uint32_t free_digest_ = kNoDigest;
  InterestTable interest_;
  /// Nodes GC emptied out of interest_, kept (with their list's
  /// capacity) to carry the next new object.
  std::vector<InterestTable::node_type> spare_interest_;
  std::size_t interest_entries_ = 0;
  /// Min-heap on `at` (see Expiry).
  std::vector<Expiry> expiry_;
  /// Bumped whenever GC erases interest, so a publish holding an
  /// InterestList pointer across callbacks knows to look it up again.
  std::uint64_t gc_epoch_ = 0;
  sim::PeriodicTimer digest_timer_;
  EngineStats stats_;
  std::size_t last_candidate_set_ = 0;

  // --- dispatch reentrancy state ------------------------------------------
  int dispatch_depth_ = 0;
  /// Subscription mutations queued during dispatch.  An engaged optional
  /// (re)registers the callback — even an empty one, matching the
  /// non-deferred subscribe(); nullopt removes the observer.
  std::vector<std::pair<ClientId, std::optional<DeliverFn>>> deferred_;
  /// Unsubscribed during the current dispatch: squelched immediately.
  std::set<ClientId> dead_;
  /// dead_'s ids in the order they were unsubscribed.
  std::vector<ClientId> dead_order_;
  /// Scratch storage recycled across publishes (moved out during use so
  /// reentrant publishes never clobber an in-flight candidate walk).
  std::vector<Candidate> candidate_scratch_;
  std::vector<Candidate> merge_scratch_;
  std::vector<ClientId> flush_scratch_;
  std::vector<std::uint32_t> digest_scratch_;

  // --- observability ------------------------------------------------------
  std::unique_ptr<obs::Obs> owned_obs_;  // only when no context was supplied
  obs::Obs* obs_;
  std::string metric_prefix_;
  util::Histogram* publish_cost_ = nullptr;  // owned by the registry
  // Wall-clock attribution of the two awareness hot paths.
  obs::Profiler::SiteId prof_publish_;
  obs::Profiler::SiteId prof_flush_;
};

}  // namespace coop::awareness
