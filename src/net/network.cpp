#include "net/network.hpp"

#include <cassert>
#include <optional>
#include <utility>

namespace coop::net {

Network::Network(sim::Simulator& sim, obs::Obs* obs) : sim_(sim) {
  if (obs == nullptr) obs = obs::default_obs();
  if (obs == nullptr) {
    owned_obs_ = std::make_unique<obs::Obs>();
    obs = owned_obs_.get();
  }
  obs_ = obs;
  auto& m = obs_->metrics;
  sent_ = &m.counter("net.sent");
  delivered_ = &m.counter("net.delivered");
  dropped_loss_ = &m.counter("net.dropped_loss");
  dropped_partition_ = &m.counter("net.dropped_partition");
  dropped_no_endpoint_ = &m.counter("net.dropped_no_endpoint");
  dropped_corrupt_ = &m.counter("net.dropped_corrupt");
  bytes_sent_ = &m.counter("net.bytes_sent");
  ts_delivered_ = obs_->series.series("net.delivered");
  ts_dropped_ = obs_->series.series("net.dropped");
  prof_deliver_ = obs_->profiler.site("net.deliver", obs::Category::kNet);
}

void Network::restart(NodeId node) {
  crashed_.erase(node);
  // The rebooted node's outbound serializers hold no backlog: whatever was
  // queued on its NICs died with the process.
  for (Route& r : routes_) {
    if (r.from == node) r.state.busy_until = 0;
  }
}

void Network::attach(const Address& addr, Endpoint& ep) {
  const std::uint64_t key = address_key(addr);
  std::uint32_t at = endpoint_index_.find(key);
  if (at == Index::kNone) {
    if (free_endpoints_.empty()) {
      at = static_cast<std::uint32_t>(endpoints_.size());
      endpoints_.push_back(nullptr);
    } else {
      at = free_endpoints_.back();
      free_endpoints_.pop_back();
    }
    endpoint_index_.insert(key, at);
  }
  endpoints_[at] = &ep;
}

void Network::detach(const Address& addr) {
  const std::uint64_t key = address_key(addr);
  const std::uint32_t at = endpoint_index_.find(key);
  if (at == Index::kNone) return;
  endpoint_index_.erase(key);
  endpoints_[at] = nullptr;
  free_endpoints_.push_back(at);
}

std::uint32_t Network::route(NodeId from, NodeId to) {
  const std::uint64_t key = pair_key(from, to);
  std::uint32_t at = route_index_.find(key);
  if (at == Index::kNone) {
    at = static_cast<std::uint32_t>(routes_.size());
    routes_.push_back(Route{.from = from});
    route_index_.insert(key, at);
  }
  return at;
}

NetworkStats Network::stats() const noexcept {
  return NetworkStats{
      .sent = sent_->value(),
      .delivered = delivered_->value(),
      .dropped_loss = dropped_loss_->value(),
      .dropped_partition = dropped_partition_->value(),
      .dropped_no_endpoint = dropped_no_endpoint_->value(),
      .dropped_corrupt = dropped_corrupt_->value(),
      .bytes_sent = bytes_sent_->value(),
  };
}

void Network::partition(const std::set<NodeId>& side_a,
                        const std::set<NodeId>& side_b) {
  partitioned_ = true;
  side_a_ = side_a;
  side_b_ = side_b;
}

bool Network::partition_blocks(NodeId a, NodeId b) const {
  if (!partitioned_) return false;
  const bool a_in_a = side_a_.count(a) != 0;
  const bool b_in_a = side_a_.count(b) != 0;
  if (side_b_.empty()) {
    // side_b is the complement: blocked iff the nodes straddle the cut.
    return a_in_a != b_in_a;
  }
  const bool a_in_b = side_b_.count(a) != 0;
  const bool b_in_b = side_b_.count(b) != 0;
  return (a_in_a && b_in_b) || (a_in_b && b_in_a);
}

const LinkModel* Network::effective_link(NodeId from, NodeId to,
                                         const Route& r) const {
  const Connectivity cf = connectivity(from);
  const Connectivity ct = connectivity(to);
  if (cf == Connectivity::kDisconnected || ct == Connectivity::kDisconnected)
    return nullptr;
  if (cf == Connectivity::kPartial || ct == Connectivity::kPartial)
    return &radio_model_;
  return r.has_link ? &r.link : &default_link_;
}

std::uint64_t Network::send(Message msg) {
  msg.id = next_msg_id_++;
  msg.sent_at = sim_.now();
  if (msg.wire_size == 0)
    msg.wire_size = msg.payload.size() + Message::kHeaderBytes;
  msg.checksum = frame_checksum(msg.payload);
  transmit(std::move(msg));
  return next_msg_id_ - 1;
}

std::uint64_t Network::multicast(McastId group, Message msg) {
  msg.multicast = true;
  msg.group = group;
  msg.sent_at = sim_.now();
  if (msg.wire_size == 0)
    msg.wire_size = msg.payload.size() + Message::kHeaderBytes;
  msg.checksum = frame_checksum(msg.payload);
  const std::uint64_t id = next_msg_id_++;
  msg.id = id;
  auto it = mcast_groups_.find(group);
  if (it == mcast_groups_.end()) return id;
  // Snapshot membership: joins/leaves during transit do not affect copies
  // already in flight (matching IP multicast behaviour).  The snapshot
  // vector is reused across calls; transmit() only schedules deliveries,
  // so nothing below can re-enter multicast() and overwrite it mid-loop.
  assert(!in_multicast_ && "multicast() re-entered from transmit()");
  in_multicast_ = true;
  mcast_snapshot_.assign(it->second.begin(), it->second.end());
  for (const Address& member : mcast_snapshot_) {
    if (member == msg.src) continue;
    Message copy = msg;
    copy.dst = member;
    transmit(std::move(copy));
  }
  in_multicast_ = false;
  return id;
}

void Network::drop(util::Counter& counter, const char* event,
                   const Message& msg) {
  counter.inc();
  obs_->series.count(ts_dropped_, sim_.now());
  obs_->tracer.event(sim_.now(), obs::Category::kNet, event, msg.ctx,
                     {{"src", static_cast<double>(msg.src.node)},
                      {"dst", static_cast<double>(msg.dst.node)}});
}

void Network::transmit(Message msg, bool injectable) {
  sent_->inc();
  bytes_sent_->inc(msg.wire_size);

  const NodeId from = msg.src.node;
  const NodeId to = msg.dst.node;
  obs::Tracer& tracer = obs_->tracer;
  // Each hop gets a child span of whatever the sending layer stamped, so
  // drops and deliveries hang off the protocol action that caused them.
  if (msg.ctx.valid()) msg.ctx = msg.ctx.child(tracer.mint_id());
  tracer.event(sim_.now(), obs::Category::kNet, "send", msg.ctx,
               {{"src", static_cast<double>(from)},
                {"dst", static_cast<double>(to)},
                {"bytes", static_cast<double>(msg.wire_size)}});

  // One lookup resolves the pair: its explicit link and its state.
  std::uint32_t at = 0;
  const LinkModel* link = nullptr;
  if (!is_crashed(from) && !is_crashed(to) && !partition_blocks(from, to)) {
    at = route(from, to);
    link = effective_link(from, to, routes_[at]);
  }
  if (link == nullptr) return drop(*dropped_partition_, "drop_partition", msg);
  // A copy: the inject hook below may reconfigure links, and that must
  // take effect from the next frame, not halfway through this one.
  const LinkModel model = *link;
  // The link state becomes visible only past the crash/partition checks:
  // a frame a dead or partitioned source never put on the wire must not
  // perturb that link's counters.  (Loss below still counts per-link —
  // the frame did occupy the link.)
  routes_[at].has_state = true;
  const double loss = model.loss + disturbance_.extra_loss;
  if (loss > 0 && sim_.rng().bernoulli(loss)) {
    ++routes_[at].state.dropped;
    return drop(*dropped_loss_, "drop_loss", msg);
  }

  // Per-datagram fault injection.  The duplicate copy is snapshot before
  // corruption, so a corrupted original and its clean duplicate model the
  // common real-world case (one of N copies mangled in flight); the copy
  // is transmitted with injectable=false so duplication cannot cascade.
  InjectDecision inject;
  if (injectable && inject_) inject = inject_(msg);
  std::optional<Message> dup;
  if (inject.duplicate) dup = msg;
  LinkState& state = routes_[at].state;  // after the hook: it may add routes

  // Serialization/queueing: the sender's serializer for this directed link
  // is busy until `busy_until`; a new datagram queues behind it.  This is
  // the mechanism that lets cross-traffic congest a stream (experiment E6).
  const sim::TimePoint start = std::max(sim_.now(), state.busy_until);
  const sim::Duration queue_wait = start - sim_.now();
  const sim::Duration ser = model.serialize_time(msg.wire_size);
  state.busy_until = start + ser;
  ++state.sent;
  state.bytes += msg.wire_size;

  sim::TimePoint arrival = state.busy_until + model.propagation(sim_.rng());
  if (disturbance_.active()) {
    sim::Duration extra = disturbance_.extra_latency;
    if (disturbance_.extra_jitter > 0) {
      extra += static_cast<sim::Duration>(sim_.rng().uniform(
          -static_cast<double>(disturbance_.extra_jitter),
          static_cast<double>(disturbance_.extra_jitter)));
    }
    if (extra > 0) arrival += extra;
  }
  if (inject.extra_delay > 0) arrival += inject.extra_delay;
  if (inject.corrupt) {
    // Flip one payload byte (or mangle the stamped checksum of an empty
    // frame) *after* the checksum was stamped: the frame now fails
    // integrity verification at arrival.  mutate_byte clones shared
    // storage first, so the sender's retransmit backlog and the other
    // multicast legs keep the clean bytes.
    if (!msg.payload.empty()) {
      const auto pos = static_cast<std::size_t>(sim_.rng().uniform_int(
          0, static_cast<std::int64_t>(msg.payload.size()) - 1));
      msg.payload.mutate_byte(pos, 0xA5);
    } else {
      msg.checksum ^= 0xA5;
    }
  }

  schedule_delivery(arrival, std::move(msg), queue_wait);

  if (dup) transmit(std::move(*dup), false);
}

std::uint32_t Network::acquire_dslot(Message&& msg, sim::Duration queue_wait) {
  if (dfree_.empty()) {
    dslots_.push_back(DeliverySlot{std::move(msg), queue_wait});
    return static_cast<std::uint32_t>(dslots_.size() - 1);
  }
  const std::uint32_t slot = dfree_.back();
  dfree_.pop_back();
  DeliverySlot& d = dslots_[slot];
  d.msg = std::move(msg);
  d.queue_wait = queue_wait;
  return slot;
}

Network::DeliverySlot Network::take_dslot(std::uint32_t slot) {
  // Move out by value: the delivery handler may transmit() and grow the
  // pool, invalidating any reference into dslots_.
  DeliverySlot d = std::move(dslots_[slot]);
  dfree_.push_back(slot);
  return d;
}

void Network::schedule_delivery(sim::TimePoint arrival, Message&& msg,
                                sim::Duration queue_wait) {
  const std::uint32_t slot = acquire_dslot(std::move(msg), queue_wait);
  sim_.schedule_at(arrival, [this, slot] {
    DeliverySlot d = take_dslot(slot);
    deliver(d.msg, d.queue_wait);
  });
}

void Network::deliver(Message& msg, sim::Duration queue_wait) {
  // Faults are re-checked at arrival: a crash or disconnection that
  // happened while the datagram was in flight still loses it.
  if (is_crashed(msg.dst.node) ||
      connectivity(msg.dst.node) == Connectivity::kDisconnected ||
      partition_blocks(msg.src.node, msg.dst.node))
    return drop(*dropped_partition_, "drop_partition", msg);
  // Integrity verification at the receiving NIC, before demux: a frame
  // whose payload no longer matches its stamped checksum is dropped
  // here — corrupt bytes never reach an Endpoint handler.
  if (msg.checksum != frame_checksum(msg.payload))
    return drop(*dropped_corrupt_, "drop_corrupt", msg);
  const std::uint32_t at = endpoint_index_.find(address_key(msg.dst));
  if (at == Index::kNone) {
    dropped_no_endpoint_->inc();
    obs_->series.count(ts_dropped_, sim_.now());
    obs_->tracer.event(sim_.now(), obs::Category::kNet, "drop_no_endpoint",
                       msg.ctx,
                       {{"dst", static_cast<double>(msg.dst.node)}});
    return;
  }
  delivered_->inc();
  obs_->series.count(ts_delivered_, sim_.now());
  // The `queue` attribute splits the hop for the critical-path
  // analyzer: dur = queueing behind the serializer + link time.
  if (msg.ctx.valid()) msg.ctx = msg.ctx.child(obs_->tracer.mint_id());
  obs_->tracer.span(msg.sent_at, sim_.now(), obs::Category::kNet, "deliver",
                    msg.ctx,
                    {{"src", static_cast<double>(msg.src.node)},
                     {"dst", static_cast<double>(msg.dst.node)},
                     {"bytes", static_cast<double>(msg.wire_size)},
                     {"queue", static_cast<double>(queue_wait)}});
  Endpoint* ep = endpoints_[at];
  obs::ProfScope prof(obs_->profiler, prof_deliver_);
  ep->on_message(msg);
}

}  // namespace coop::net
