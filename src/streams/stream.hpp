// Stream interfaces and bindings — the ODP draft extension the paper
// describes (§4.2.2): continuous-media producers, consumers, and the
// binding object between them, with end-to-end QoS monitoring.
//
//   MediaSource  — emits frames at a rate; supports *media scaling*
//                  (fps / frame-size changes at runtime) so QoS
//                  management has a lever to pull.
//   StreamBinding— the explicit binding object: source address, sink
//                  address (or multicast group for §4.2.2-iv group
//                  communication of continuous media), and the QosSpec
//                  contract.
//   MediaSink    — receives frames, maintains arrival statistics and a
//                  playout clock used by the synchronization services.
//   QosMonitor   — windowed measurement at the sink; classifies each
//                  window against the contract and notifies the manager.
//   QosManager   — admission control against a capacity budget, plus
//                  dynamic re-negotiation: on degradation it scales the
//                  source down toward min_fps; on recovery it scales
//                  back up (§4.2.2: "Dynamic re-negotiation should also
//                  be supported").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "streams/qos.hpp"
#include "util/stats.hpp"

namespace coop::streams {

/// One media frame on the wire.
struct Frame {
  std::uint32_t stream_id = 0;
  std::uint64_t seq = 0;
  sim::TimePoint captured_at = 0;
  std::size_t size = 0;
};

/// Produces frames on a timer and hands them to a send hook.
class MediaSource {
 public:
  using EmitFn = std::function<void(const Frame&)>;

  MediaSource(sim::Simulator& sim, std::uint32_t stream_id, QosSpec spec);
  ~MediaSource();

  MediaSource(const MediaSource&) = delete;
  MediaSource& operator=(const MediaSource&) = delete;

  void on_emit(EmitFn fn) { emit_ = std::move(fn); }
  void start();
  void stop();

  /// Media scaling: change the frame rate (clamped to [min_fps, spec
  /// fps]).  Takes effect from the next frame.
  void set_fps(double fps);

  [[nodiscard]] double fps() const noexcept { return fps_; }
  [[nodiscard]] const QosSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::uint64_t frames_emitted() const noexcept {
    return next_seq_;
  }

 private:
  void tick();

  sim::Simulator& sim_;
  std::uint32_t stream_id_;
  QosSpec spec_;
  double fps_;
  std::uint64_t next_seq_ = 0;
  EmitFn emit_;
  sim::PeriodicTimer timer_;
};

/// Receives frames; tracks arrival statistics and a playout position.
class MediaSink : public net::Endpoint {
 public:
  /// @p prebuffer delays playout start after the first frame so the
  /// jitter buffer can absorb arrival variance.
  MediaSink(net::Network& net, net::Address self,
            sim::Duration prebuffer = sim::msec(80));
  ~MediaSink() override;

  MediaSink(const MediaSink&) = delete;
  MediaSink& operator=(const MediaSink&) = delete;

  void on_message(const net::Message& msg) override;

  /// Raw frame hook (synchronization and application layers).
  void on_frame(std::function<void(const Frame&, sim::Duration latency)> fn) {
    on_frame_ = std::move(fn);
  }

  /// Media-time playout position in microseconds of stream time; -1
  /// before playout starts.  Advances in real (virtual) time once
  /// started; skew_adjust() shifts it (continuous sync lever).
  [[nodiscard]] std::int64_t playout_position() const;

  /// Continuous synchronization: slides the playout clock by @p delta
  /// (positive = jump forward).
  void skew_adjust(sim::Duration delta) { playout_origin_ -= delta; }

  [[nodiscard]] net::Address address() const noexcept { return self_; }
  [[nodiscard]] std::uint64_t frames_received() const noexcept {
    return frames_;
  }
  [[nodiscard]] std::uint64_t frames_lost() const noexcept { return lost_; }

  /// Drains the samples accumulated since the last call (used by the
  /// QosMonitor each window).
  struct WindowSamples {
    util::Summary latency_us;
    util::Summary interarrival_us;
    std::uint64_t frames = 0;
    std::uint64_t late = 0;
    std::uint64_t lost = 0;
  };
  WindowSamples drain_window();

  void set_latency_bound(sim::Duration bound) { latency_bound_ = bound; }

 private:
  net::Network& net_;
  net::Address self_;
  sim::Duration prebuffer_;
  sim::Duration latency_bound_ = sim::msec(150);
  std::function<void(const Frame&, sim::Duration)> on_frame_;
  std::uint64_t frames_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t highest_seq_seen_ = 0;
  bool any_frame_ = false;
  sim::TimePoint last_arrival_ = 0;
  std::int64_t playout_origin_ = -1;  ///< virtual time of stream time 0
  WindowSamples window_;
};

/// The explicit binding object between one source and its sink(s).
class StreamBinding {
 public:
  /// Unicast binding.
  StreamBinding(net::Network& net, MediaSource& source, net::Address from,
                net::Address to);
  /// Multicast binding (group communication of continuous media).
  StreamBinding(net::Network& net, MediaSource& source, net::Address from,
                net::McastId group);

  StreamBinding(const StreamBinding&) = delete;
  StreamBinding& operator=(const StreamBinding&) = delete;

  [[nodiscard]] std::uint64_t frames_sent() const noexcept { return sent_; }

  /// Serializes a frame (header only; payload bytes are simulated by
  /// wire_size).
  static std::string encode(const Frame& f);
  static std::optional<Frame> decode(std::string_view payload);

 private:
  void send(const Frame& f);

  net::Network& net_;
  net::Address from_;
  std::optional<net::Address> to_;
  std::optional<net::McastId> group_;
  std::uint64_t sent_ = 0;
};

/// Windowed QoS measurement at a sink.
class QosMonitor {
 public:
  using ReportFn = std::function<void(const QosReport&, QosVerdict)>;

  QosMonitor(sim::Simulator& sim, MediaSink& sink, QosSpec spec,
             sim::Duration window = sim::sec(1));
  ~QosMonitor();

  QosMonitor(const QosMonitor&) = delete;
  QosMonitor& operator=(const QosMonitor&) = delete;

  void on_report(ReportFn fn) { report_ = std::move(fn); }
  void set_spec(const QosSpec& spec) { spec_ = spec; }

  [[nodiscard]] const QosSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::uint64_t windows() const noexcept { return windows_; }
  [[nodiscard]] std::uint64_t violations() const noexcept {
    return violations_;
  }

 private:
  void evaluate();

  sim::Simulator& sim_;
  MediaSink& sink_;
  QosSpec spec_;
  sim::Duration window_;
  ReportFn report_;
  std::uint64_t windows_ = 0;
  std::uint64_t violations_ = 0;
  sim::PeriodicTimer timer_;
};

/// Admission control and dynamic re-negotiation.
class QosManager {
 public:
  /// @p capacity_bps is the end-to-end budget this manager controls
  /// (modelling the reservable share of the path).
  explicit QosManager(double capacity_bps) : capacity_(capacity_bps) {}

  /// Admission: full acceptance, a counter-offer at reduced fps that
  /// fits the remaining budget (if >= min_fps), or rejection.
  struct Admission {
    bool admitted = false;
    QosSpec granted;  ///< possibly scaled down from the request
  };
  Admission admit(const QosSpec& requested);

  /// Releases an admitted stream's reservation.
  void release(const QosSpec& granted);

  /// Re-negotiation policy driven by monitor verdicts: degraded windows
  /// scale the source down (multiplicative decrease), healthy windows
  /// scale it back up (additive increase) toward the contract.
  /// Returns the new fps if a change should be applied.
  std::optional<double> react(const QosSpec& contract, double current_fps,
                              QosVerdict verdict);

  [[nodiscard]] double reserved_bps() const noexcept { return reserved_; }
  [[nodiscard]] double capacity_bps() const noexcept { return capacity_; }

 private:
  double capacity_;
  double reserved_ = 0;
};

/// Closed-loop QoS adaptation: wires a monitor, a manager and a source
/// into the full §4.2.2 control loop.
///
/// The subtlety it encapsulates: after scaling down, the *operating
/// point* (not the original contract) is what achieved throughput must be
/// judged against — otherwise a correctly scaled stream reads as
/// "degraded" forever and never probes back up.  The adaptor keeps the
/// monitor's spec at the operating point, scales the source down on
/// degraded windows (multiplicative decrease) and probes toward the
/// contract on healthy ones (additive increase) — AIMD over media rates.
class QosAdaptor {
 public:
  QosAdaptor(QosMonitor& monitor, QosManager& manager, MediaSource& source,
             QosSpec contract);

  /// Observer of every window, after adaptation was applied.
  void on_window(
      std::function<void(const QosReport&, QosVerdict, double fps)> fn) {
    on_window_ = std::move(fn);
  }

  [[nodiscard]] std::uint64_t rescales() const noexcept { return rescales_; }
  [[nodiscard]] double operating_fps() const noexcept {
    return operating_.fps;
  }

 private:
  QosMonitor& monitor_;
  QosManager& manager_;
  MediaSource& source_;
  QosSpec contract_;
  QosSpec operating_;
  std::uint64_t rescales_ = 0;
  std::function<void(const QosReport&, QosVerdict, double)> on_window_;
};

}  // namespace coop::streams
