// coop — the CSCW-aware Open Distributed Processing platform.
//
// Umbrella header: include this to get the whole public API.  The
// Platform object bundles the two process-wide substrates (the
// deterministic simulator and the network fabric) that every other
// component is constructed against.
//
// Layer map (bottom-up; see DESIGN.md for the full inventory):
//
//   sim/        discrete-event kernel, deterministic randomness
//   util/       codec, statistics
//   time/       Lamport & vector clocks
//   net/        simulated internetwork: links, faults, mobility, multicast
//   fault/      deterministic chaos plane: scripted/seeded fault injection,
//               crash-restart lifecycle, safety invariants
//   groups/     membership, reliable multicast, FIFO/causal/total order
//   rpc/        request-response, trader, group RPC with deadlines
//   ccontrol/   transactions, cooperative locks, transaction groups,
//               operational transformation, floor control
//   durable/    per-node write-ahead log, checkpoint/compaction, crash
//               recovery, anti-entropy replica catch-up
//   access/     matrix/ACL/capabilities, dynamic fine-grained roles,
//               rights negotiation
//   awareness/  focus/nimbus spatial model, weighted event engine
//   streams/    continuous media, QoS contracts & renegotiation, sync
//   mobile/     hoarding, disconnected operation, reintegration
//   mgmt/       clusters, usage monitoring, group-aware placement
//   workflow/   speech-act conversations, office procedures
//   groupware/  sessions, hyperdocuments, shared editor, conferencing,
//               flight-strip board
#pragma once

#include "access/negotiation.hpp"
#include "access/rights.hpp"
#include "access/roles.hpp"
#include "awareness/engine.hpp"
#include "awareness/spatial.hpp"
#include "ccontrol/floor.hpp"
#include "ccontrol/locks.hpp"
#include "ccontrol/ot.hpp"
#include "ccontrol/store.hpp"
#include "ccontrol/transactions.hpp"
#include "ccontrol/txgroup.hpp"
#include "durable/anti_entropy.hpp"
#include "durable/store.hpp"
#include "durable/wal.hpp"
#include "fault/fault.hpp"
#include "fault/invariants.hpp"
#include "groups/group_channel.hpp"
#include "groups/membership.hpp"
#include "groupware/conference.hpp"
#include "groupware/document.hpp"
#include "groupware/editor.hpp"
#include "groupware/flightstrips.hpp"
#include "groupware/mediaspace.hpp"
#include "groupware/session.hpp"
#include "groupware/views.hpp"
#include "mgmt/placement.hpp"
#include "mgmt/qos_manager.hpp"
#include "mobile/host.hpp"
#include "mobile/share_server.hpp"
#include "net/fifo_channel.hpp"
#include "net/network.hpp"
#include "net/overload.hpp"
#include "obs/critical_path.hpp"
#include "obs/obs.hpp"
#include "rpc/group_rpc.hpp"
#include "rpc/rpc.hpp"
#include "rpc/trader.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "streams/stream.hpp"
#include "streams/sync.hpp"
#include "util/stats.hpp"
#include "workflow/procedure.hpp"
#include "workflow/speech_acts.hpp"

namespace coop {

/// The process-wide substrate pair every component is built against.
class Platform {
 public:
  /// Same seed => byte-identical experiment runs.  Metrics and traces go
  /// to @p obs if given, else the ambient default (bench harness), else a
  /// platform-owned Obs.
  explicit Platform(std::uint64_t seed = 42, obs::Obs* obs = nullptr)
      : owned_obs_(obs != nullptr || obs::default_obs() != nullptr
                       ? nullptr
                       : new obs::Obs),
        obs_(obs != nullptr ? obs
                            : (owned_obs_ ? owned_obs_.get()
                                          : obs::default_obs())),
        sim_(seed),
        net_(sim_, obs_) {
    obs_->meta.note_platform(seed);
    // Raw fn-ptr trampolines: the step hook sits on the kernel's hottest
    // seam, so installing it must not reintroduce a type-erased call.
    sim_.set_step_hook(&Platform::trace_step, this);
    if (obs_->profiler.enabled()) {
      // Pay-for-use wall-clock attribution of every event dispatch; the
      // kernel only reads the steady clock while this is installed.
      sim_.set_step_timer(&Platform::profile_step, this);
    }
  }

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] net::Network& network() noexcept { return net_; }
  [[nodiscard]] obs::Obs& obs() noexcept { return *obs_; }
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept {
    return obs_->metrics;
  }
  [[nodiscard]] obs::Tracer& tracer() noexcept { return obs_->tracer; }

  /// Runs the virtual world to quiescence (or the event cap).
  std::size_t run(std::size_t max_events = sim::Simulator::kNoEventLimit) {
    return sim_.run(max_events);
  }
  /// Runs the virtual world up to an absolute time.
  std::size_t run_until(sim::TimePoint t) { return sim_.run_until(t); }

 private:
  // Serial steps carry no shard field (the lone kernel is always shard
  // 0), which keeps serial traces free of a constant column.
  static void trace_step(void* self, std::uint32_t /*shard*/, sim::EventId id,
                         sim::TimePoint when, std::size_t pending) {
    auto* p = static_cast<Platform*>(self);
    p->obs_->tracer.event(when, obs::Category::kSim, "step",
                          {{"id", static_cast<double>(id)},
                           {"pending", static_cast<double>(pending)}});
  }

  static void profile_step(void* self, std::uint64_t elapsed_ns) {
    static_cast<Platform*>(self)->obs_->profiler.note_step(elapsed_ns);
  }

  std::unique_ptr<obs::Obs> owned_obs_;  // only when no context was supplied
  obs::Obs* obs_;
  sim::Simulator sim_;
  net::Network net_;
};

}  // namespace coop
