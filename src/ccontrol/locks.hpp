// Cooperative locking: the classic scheme and the three CSCW alternatives
// the paper surveys in §4.2.1 — tickle locks (Greif & Sarin), soft locks
// (Colab/Cognoter) and notification locks (Hornick & Zdonik).
//
// All four styles share one LockManager so experiments can swap the policy
// while holding the workload fixed:
//
//   kStrict  — shared/exclusive compatibility, FIFO waiting.  This is the
//              transaction-style "wall" of Figure 2a: conflicting users
//              simply block, unaware of each other.
//   kTickle  — like kStrict, but a conflicting request "tickles" the
//              holder; if the holder has been idle longer than the idle
//              timeout the lock transfers immediately (the holder is
//              revoked).  Active holders keep the lock; the requester
//              waits as usual.  Note the deliberate unfairness: a
//              newcomer whose tickle dispossesses an idle holder takes
//              the lock ahead of queued waiters, so tickle optimizes
//              the requester's experience against absentee holders, not
//              aggregate waiting time (measured in the E1 bench and the
//              lock-style sweep tests).
//   kSoft    — advisory: every acquisition succeeds.  On conflict, both
//              parties are told who they collide with — the social
//              protocol (Figure 2b) resolves the overlap.
//   kNotify  — writers exclude only writers; readers always proceed and
//              may register interest to receive change notifications
//              instead of being locked out ("read over the shoulder").
//
// The manager is a session-local object; distributed use goes through an
// RPC wrapper (see bench/ and examples/).  Waits are virtual-time and
// recorded so experiments can report blocking-time distributions.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace coop::ccontrol {

/// Identifies a lock requester (user/session/transaction).
using ClientId = std::uint32_t;

enum class LockMode : std::uint8_t { kShared, kExclusive };

enum class LockStyle : std::uint8_t { kStrict, kTickle, kSoft, kNotify };

/// Result handed to the acquire callback.
struct LockGrant {
  bool granted = false;
  sim::Duration waited = 0;         ///< virtual time spent blocked
  std::vector<ClientId> conflicts;  ///< kSoft: who we overlap with
};

/// Observer hooks for the cooperative styles.
struct LockObservers {
  /// kSoft: fired at the *existing* holders when a conflicting
  /// acquisition succeeds anyway.
  std::function<void(const std::string& resource, ClientId holder,
                     ClientId intruder)>
      on_conflict;
  /// kTickle: fired at an *active* holder when someone wants the lock.
  std::function<void(const std::string& resource, ClientId holder,
                     ClientId requester)>
      on_tickle;
  /// kTickle: fired when an idle holder's lock is transferred away.
  std::function<void(const std::string& resource, ClientId old_holder)>
      on_revoked;
  /// kNotify: fired at registered readers when a writer publishes a
  /// change (notify_change).
  std::function<void(const std::string& resource, ClientId reader,
                     ClientId writer)>
      on_change;
};

struct LockConfig {
  LockStyle style = LockStyle::kStrict;
  /// kTickle: holder idle for at least this long loses the lock to a
  /// tickling requester.
  sim::Duration tickle_idle_timeout = sim::sec(30);
  /// Waiting longer than this fails the acquire (deadlock escape hatch);
  /// 0 means wait forever.
  sim::Duration wait_timeout = 0;
};

/// Aggregate counters for experiments.
struct LockStats {
  std::uint64_t grants = 0;
  std::uint64_t waits = 0;           ///< requests that had to queue
  std::uint64_t conflicts = 0;       ///< kSoft overlapping acquisitions
  std::uint64_t tickles = 0;         ///< kTickle holder notifications
  std::uint64_t transfers = 0;       ///< kTickle idle-holder revocations
  std::uint64_t notifications = 0;   ///< kNotify change fan-outs
  std::uint64_t timeouts = 0;        ///< waits abandoned
  util::Histogram wait_time{0.0, 1e7, 64};  ///< µs blocked per request
};

/// One lock table covering any number of named resources.
class LockManager {
 public:
  using AcquireFn = std::function<void(const LockGrant&)>;

  /// Records into @p obs if given, else the ambient default, else a
  /// private Obs (so standalone managers in unit tests need no setup).
  explicit LockManager(sim::Simulator& sim, LockConfig config = {},
                       obs::Obs* obs = nullptr);
  ~LockManager();

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Requests @p resource in @p mode.  @p done fires exactly once — maybe
  /// synchronously (uncontended), maybe after a virtual-time wait.
  void acquire(const std::string& resource, ClientId client, LockMode mode,
               AcquireFn done);

  /// Releases @p client's hold; queued waiters are promoted.
  void release(const std::string& resource, ClientId client);

  /// Marks holder activity (kTickle idleness clock).
  void touch(const std::string& resource, ClientId client);

  /// kNotify: registers @p reader for change notifications on @p resource.
  void register_interest(const std::string& resource, ClientId reader);

  /// kNotify: removes the registration.
  void unregister_interest(const std::string& resource, ClientId reader);

  /// kNotify: a writer announces a change; registered readers (except the
  /// writer) receive on_change.
  void notify_change(const std::string& resource, ClientId writer);

  /// True if @p client currently holds @p resource in any mode.
  [[nodiscard]] bool holds(const std::string& resource,
                           ClientId client) const;

  /// Current holders of @p resource.
  [[nodiscard]] std::vector<ClientId> holders(
      const std::string& resource) const;

  void set_observers(LockObservers obs) { observers_ = std::move(obs); }

  [[nodiscard]] const LockStats& stats() const noexcept { return stats_; }
  [[nodiscard]] LockStyle style() const noexcept { return config_.style; }

 private:
  struct Holder {
    ClientId client;
    LockMode mode;
    sim::TimePoint last_activity;
  };
  struct Waiter {
    ClientId client;
    LockMode mode;
    AcquireFn done;
    sim::TimePoint since;
    sim::EventId timeout_timer = sim::kInvalidEvent;
  };
  struct Entry {
    std::vector<Holder> holders;
    std::deque<Waiter> waiters;
    std::set<ClientId> interested;  // kNotify registrations
    /// kTickle: pending idle-holder re-check on behalf of the waiters.
    sim::EventId tickle_timer = sim::kInvalidEvent;
  };

  /// True if @p mode by @p client is compatible with current holders
  /// under the configured style.
  [[nodiscard]] bool compatible(const Entry& e, ClientId client,
                                LockMode mode) const;
  void grant(Entry& e, const std::string& resource, ClientId client,
             LockMode mode, AcquireFn done, sim::Duration waited);
  void promote_waiters(const std::string& resource);
  /// kTickle: schedules a re-check at the earliest moment a current
  /// holder could be deemed idle, so queued waiters (not only brand-new
  /// requesters) benefit from idle-holder revocation.
  void arm_tickle_recheck(const std::string& resource);

  sim::Simulator& sim_;
  LockConfig config_;
  std::map<std::string, Entry> table_;
  LockObservers observers_;
  // Hot storage (tests read it directly); the registry polls it through
  // views under metric_prefix_, retired/frozen in the destructor.
  LockStats stats_;
  std::unique_ptr<obs::Obs> owned_obs_;  // only when no context was supplied
  obs::Obs* obs_;
  std::string metric_prefix_;
};

}  // namespace coop::ccontrol
