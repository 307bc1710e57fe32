// Safety invariants a chaos run must preserve, and trace mining for
// recovery latency.
//
// The chaos plane proves nothing by itself — the point is that the stack
// *withstands* it.  Invariants is an evidence collector the harness feeds
// while the workload runs (executions, acknowledgements, durable applies,
// replica digests, installed views) plus a set of checks evaluated after
// quiesce.  Violations accumulate as human-readable strings; a run is
// clean iff ok().
//
// The checks encode the platform's actual guarantees, restart semantics
// included:
//   * at-most-once — no operation executes twice within one server
//     incarnation (the RPC replay cache's contract; callers key recorded
//     executions by incarnation when a server restarts, because the cache
//     is volatile and a retry spanning the restart may legitimately
//     re-execute).
//   * no acknowledged op lost — every operation a client saw succeed is
//     present in the durable state.
//   * replica convergence — after heal + quiesce, all replicas report the
//     same digest.
//   * view agreement — after quiesce, every live member installed the
//     same view (id and size).
//   * corruption containment — every corrupted frame the chaos plane
//     injected is accounted for by net.dropped_corrupt or one of the
//     other drop paths; none can have been delivered.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "obs/trace.hpp"

namespace coop::fault {

class Invariants {
 public:
  // --- evidence ------------------------------------------------------------

  /// A server-side handler executed @p op.  Key ops by server incarnation
  /// (e.g. "srv#2:op17") when the server restarts mid-run: at-most-once
  /// holds per incarnation, not across the replay cache's death.
  void record_execution(const std::string& op) { ++executions_[op]; }

  /// A client observed success for @p op.
  void record_acknowledged(const std::string& op) { acknowledged_[op] = true; }

  /// @p op is present in the durable (crash-surviving) state.
  void record_applied(const std::string& op) { applied_[op] = true; }

  /// Replica @p replica's final state digest.
  void record_state(const std::string& replica, const std::string& digest) {
    digests_[replica] = digest;
  }

  /// Member @p member's final installed view.
  void record_view(const std::string& member, std::uint64_t view_id,
                   std::size_t members) {
    views_[member] = {view_id, members};
  }

  /// The overload plane shed (or fast-failed) an attempt of @p op.
  void record_shed(const std::string& op) { ++sheds_[op]; }

  /// Broadcast @p key was acknowledged to its originator (it saw the
  /// message delivered back to itself, i.e. the group committed it).
  void record_broadcast_acked(const std::string& key) {
    acked_broadcasts_[key] = true;
  }

  /// Surviving member @p member delivered broadcast @p key.  Only feed
  /// members that lived through the run: a crashed member legitimately
  /// misses traffic.
  void record_broadcast_delivered(const std::string& member,
                                  const std::string& key) {
    delivered_broadcasts_[member].insert(key);
  }

  /// Coordinator instance @p name ended the run with the given active
  /// flag (feed every instance that ever existed, survivors only).
  void record_coordinator(const std::string& name, bool active) {
    coordinators_.emplace_back(name, active);
  }

  /// Member @p member installed view @p view_id — call in installation
  /// order; the monotonicity check replays the sequence.
  void record_view_installed(const std::string& member,
                             std::uint64_t view_id) {
    installed_[member].push_back(view_id);
  }

  // --- checks --------------------------------------------------------------

  void check_at_most_once();
  void check_acknowledged_durable();
  void check_convergence();
  void check_view_agreement();

  /// Load shedding must refuse work, never lie about it: an op the client
  /// saw acknowledged while every recorded attempt was shed (zero
  /// executions) means a pushback was converted into a success somewhere.
  /// A shed attempt followed by a successfully executed retry is
  /// legitimate and does not trip this.
  void check_no_acked_shed();

  /// Frame accounting: injected corruption must be fully absorbed by the
  /// drop paths — dropped_corrupt plus frames that died of loss/partition/
  /// no-endpoint before the integrity check.  A shortfall means a mangled
  /// frame reached an Endpoint.
  void check_corruption_contained(const net::NetworkStats& stats,
                                  std::uint64_t injected_corrupt);

  /// Zero acked-broadcast loss: every broadcast the group committed must
  /// be present in every surviving member's delivered set — the failover
  /// replay contract.
  void check_acked_broadcasts_delivered();
  /// The acked broadcasts some surviving member never delivered, each
  /// counted once however many members miss it.
  [[nodiscard]] std::size_t lost_acked_broadcasts() const;

  /// Exactly one active coordinator: among the recorded coordinator
  /// instances, precisely one may end the run active — two means a split
  /// brain (both sides installing views), zero means the primary
  /// partition failed to elect.  No-op when none were recorded.
  void check_single_active_coordinator();

  /// View ids must be strictly monotone at every member, across any
  /// number of failovers — a promoted coordinator resuming below a
  /// survivor's installed id would silently roll membership back.
  void check_views_monotone();

  /// Log compaction must bound durable-log growth: @p max_observed_bytes
  /// (the largest synced WAL ever seen on @p replica, peak — not final —
  /// size) must stay within @p cap_bytes.  The cap is the checkpoint
  /// trigger threshold plus one group-commit batch of slack; exceeding it
  /// means checkpointing fell behind sustained writes.
  void check_log_bounded(const std::string& replica,
                         std::size_t max_observed_bytes,
                         std::size_t cap_bytes);

  /// Runs every state-based check (not corruption containment, which
  /// needs the network counters).
  void check_all();

  /// Feeds a harness-side custom check's failure into the same pool, so
  /// one ok()/violations() verdict covers built-in and bespoke checks.
  void report_violation(std::string what) { violation(std::move(what)); }

  // --- outcome -------------------------------------------------------------

  [[nodiscard]] bool ok() const noexcept { return violations_.empty(); }
  [[nodiscard]] const std::vector<std::string>& violations() const noexcept {
    return violations_;
  }
  void clear();

 private:
  void violation(std::string what) { violations_.push_back(std::move(what)); }

  std::map<std::string, std::uint64_t> executions_;
  std::map<std::string, std::uint64_t> sheds_;
  std::map<std::string, bool> acknowledged_;
  std::map<std::string, bool> applied_;
  std::map<std::string, std::string> digests_;
  std::map<std::string, std::pair<std::uint64_t, std::size_t>> views_;
  std::map<std::string, bool> acked_broadcasts_;
  std::map<std::string, std::set<std::string>> delivered_broadcasts_;
  std::vector<std::pair<std::string, bool>> coordinators_;
  std::map<std::string, std::vector<std::uint64_t>> installed_;
  std::vector<std::string> violations_;
};

/// Mines recovery latencies from a trace snapshot: each Category::kFault
/// "recovered" event (emitted by a harness when it first observes healthy
/// service again) is paired with the most recent preceding unconsumed
/// outage-end event ("restart" or "heal"), and the deltas are returned in
/// trace order.  Feed them to a Summary for percentiles.
[[nodiscard]] std::vector<sim::Duration> recovery_latencies(
    const std::vector<obs::TraceEvent>& events);

}  // namespace coop::fault
