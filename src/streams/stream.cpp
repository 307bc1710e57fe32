#include "streams/stream.hpp"

#include <algorithm>
#include <utility>

#include "util/codec.hpp"

namespace coop::streams {

// -------------------------------------------------------------- MediaSource

MediaSource::MediaSource(sim::Simulator& sim, std::uint32_t stream_id,
                         QosSpec spec)
    : sim_(sim),
      stream_id_(stream_id),
      spec_(spec),
      fps_(spec.fps),
      timer_(sim, static_cast<sim::Duration>(1e6 / spec.fps),
             [this] { tick(); }) {}

MediaSource::~MediaSource() { timer_.stop(); }

void MediaSource::start() { timer_.start(); }
void MediaSource::stop() { timer_.stop(); }

void MediaSource::set_fps(double fps) {
  fps_ = std::clamp(fps, spec_.min_fps, spec_.fps);
  timer_.set_period(static_cast<sim::Duration>(1e6 / fps_));
}

void MediaSource::tick() {
  Frame f;
  f.stream_id = stream_id_;
  f.seq = next_seq_++;
  f.captured_at = sim_.now();
  f.size = spec_.frame_bytes;
  if (emit_) emit_(f);
}

// ---------------------------------------------------------------- MediaSink

MediaSink::MediaSink(net::Network& net, net::Address self,
                     sim::Duration prebuffer)
    : net_(net), self_(self), prebuffer_(prebuffer) {
  net_.attach(self_, *this);
}

MediaSink::~MediaSink() { net_.detach(self_); }

void MediaSink::on_message(const net::Message& msg) {
  Frame f;
  if (!util::decode(msg.payload, f)) return;
  const sim::TimePoint now = net_.simulator().now();
  const sim::Duration latency = now - f.captured_at;

  ++frames_;
  ++window_.frames;
  window_.latency_us.add(static_cast<double>(latency));
  if (latency > latency_bound_) ++window_.late;
  if (any_frame_) {
    window_.interarrival_us.add(static_cast<double>(now - last_arrival_));
  } else {
    any_frame_ = true;
    playout_origin_ = now + prebuffer_;
  }
  last_arrival_ = now;
  if (f.seq > highest_seq_seen_ + 1 && frames_ > 1) {
    const std::uint64_t gap = f.seq - highest_seq_seen_ - 1;
    lost_ += gap;
    window_.lost += gap;
  }
  highest_seq_seen_ = std::max(highest_seq_seen_, f.seq);
  // Capture -> sink arrival: the end-to-end frame latency the QoS monitor
  // samples, closed under the frame's trace so Perfetto links emit ->
  // hops -> this span.
  obs::Tracer& tracer = net_.obs().tracer;
  tracer.span(f.captured_at, now, obs::Category::kStream, "frame",
              msg.ctx.valid() ? msg.ctx.child(tracer.mint_id())
                              : obs::CausalContext{},
              {{"stream", static_cast<double>(f.stream_id)},
               {"seq", static_cast<double>(f.seq)},
               {"latency", static_cast<double>(latency)}});
  if (on_frame_) on_frame_(f, latency);
}

std::int64_t MediaSink::playout_position() const {
  if (playout_origin_ < 0) return -1;
  const std::int64_t pos = net_.simulator().now() - playout_origin_;
  return pos < 0 ? -1 : pos;
}

MediaSink::WindowSamples MediaSink::drain_window() {
  WindowSamples out = std::move(window_);
  window_ = {};
  return out;
}

// ------------------------------------------------------------ StreamBinding

StreamBinding::StreamBinding(net::Network& net, MediaSource& source,
                             net::Address from, net::Address to)
    : net_(net), from_(from), to_(to) {
  source.on_emit([this](const Frame& f) { send(f); });
}

StreamBinding::StreamBinding(net::Network& net, MediaSource& source,
                             net::Address from, net::McastId group)
    : net_(net), from_(from), group_(group) {
  source.on_emit([this](const Frame& f) { send(f); });
}

void StreamBinding::send(const Frame& f) {
  ++sent_;
  // Each frame emission is a user-action entry point: it roots a fresh
  // trace that the network hops and the sink's frame span descend from.
  obs::Tracer& tracer = net_.obs().tracer;
  const obs::CausalContext fctx = tracer.begin_trace();
  tracer.event(net_.simulator().now(), obs::Category::kStream, "emit", fctx,
               {{"stream", static_cast<double>(f.stream_id)},
                {"seq", static_cast<double>(f.seq)},
                {"bytes", static_cast<double>(f.size)}});
  net::Message msg;
  msg.src = from_;
  msg.payload = util::encode(f);
  msg.ctx = fctx;
  // The simulated media payload occupies f.size wire bytes.
  msg.wire_size = f.size + net::Message::kHeaderBytes;
  if (group_) {
    net_.multicast(*group_, std::move(msg));
  } else {
    msg.dst = *to_;
    net_.send(std::move(msg));
  }
}

// --------------------------------------------------------------- QosMonitor

QosMonitor::QosMonitor(sim::Simulator& sim, MediaSink& sink, QosSpec spec,
                       sim::Duration window)
    : sim_(sim),
      sink_(sink),
      spec_(spec),
      window_(window),
      timer_(sim, window, [this] { evaluate(); }) {
  sink_.set_latency_bound(spec.latency_bound);
  timer_.start();
}

QosMonitor::~QosMonitor() { timer_.stop(); }

void QosMonitor::evaluate() {
  const MediaSink::WindowSamples w = sink_.drain_window();
  QosReport report;
  report.frames = w.frames;
  report.achieved_fps =
      static_cast<double>(w.frames) / sim::to_sec(window_);
  report.mean_latency_us = w.latency_us.mean();
  report.p95_latency_us = w.latency_us.p95();
  report.jitter_us = w.interarrival_us.jitter();
  report.late_frames = w.late;
  report.lost_frames = w.lost;
  const QosVerdict verdict = compare(spec_, report);
  ++windows_;
  if (verdict != QosVerdict::kHealthy) ++violations_;
  if (report_) report_(report, verdict);
}

// ---------------------------------------------------------------- QosManager

QosManager::Admission QosManager::admit(const QosSpec& requested) {
  const double need = requested.bandwidth_bps();
  const double available = capacity_ - reserved_;
  if (need <= available) {
    reserved_ += need;
    return {true, requested};
  }
  // Counter-offer: the highest fps that fits, if it clears the floor.
  const double per_frame =
      static_cast<double>(requested.frame_bytes) * 8.0;
  const double fit_fps = per_frame > 0 ? available / per_frame : 0;
  if (fit_fps >= requested.min_fps) {
    QosSpec granted = requested;
    granted.fps = fit_fps;
    reserved_ += granted.bandwidth_bps();
    return {true, granted};
  }
  return {false, requested};
}

void QosManager::release(const QosSpec& granted) {
  reserved_ = std::max(0.0, reserved_ - granted.bandwidth_bps());
}

QosAdaptor::QosAdaptor(QosMonitor& monitor, QosManager& manager,
                       MediaSource& source, QosSpec contract)
    : monitor_(monitor),
      manager_(manager),
      source_(source),
      contract_(contract),
      operating_(contract) {
  monitor_.on_report([this](const QosReport& report, QosVerdict verdict) {
    if (const auto fps =
            manager_.react(contract_, source_.fps(), verdict)) {
      ++rescales_;
      source_.set_fps(*fps);
      operating_.fps = *fps;
      // Judge the next window against the operating point, not the
      // original contract; min_fps keeps the kUnacceptable floor intact.
      monitor_.set_spec(operating_);
    }
    if (on_window_) on_window_(report, verdict, source_.fps());
  });
}

std::optional<double> QosManager::react(const QosSpec& contract,
                                        double current_fps,
                                        QosVerdict verdict) {
  switch (verdict) {
    case QosVerdict::kHealthy: {
      if (current_fps >= contract.fps) return std::nullopt;
      // Additive increase: creep back toward the contract.
      return std::min(contract.fps, current_fps + contract.fps * 0.10);
    }
    case QosVerdict::kDegraded:
    case QosVerdict::kUnacceptable: {
      // Multiplicative decrease, floored at min_fps.
      const double next = std::max(contract.min_fps, current_fps * 0.5);
      if (next >= current_fps) return std::nullopt;
      return next;
    }
  }
  return std::nullopt;
}

}  // namespace coop::streams
