#include "rpc/rpc.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/codec.hpp"

namespace coop::rpc {

namespace {

/// Builds a per-instance registry key: "<base>.<node>:<port>.<leaf>".
std::string metric_key(const char* base, const net::Address& addr,
                       const char* leaf) {
  return std::string(base) + "." + std::to_string(addr.node) + ":" +
         std::to_string(addr.port) + "." + leaf;
}

}  // namespace

// ------------------------------------------------------------------- server

RpcServer::RpcServer(net::Network& net, net::Address self)
    : net_(net), self_(self) {
  auto& m = net_.obs().metrics;
  handled_ = &m.counter(metric_key("rpc.server", self_, "handled"));
  replays_ = &m.counter(metric_key("rpc.server", self_, "replays"));
  shed_[0] = &m.counter(metric_key("rpc.server", self_, "shed_core"));
  shed_[1] = &m.counter(metric_key("rpc.server", self_, "shed_control"));
  shed_[2] = &m.counter(metric_key("rpc.server", self_, "shed_background"));
  expired_ = &m.counter(metric_key("rpc.server", self_, "expired"));
  expired_global_ = &m.counter("rpc.expired_drops");
  ts_shed_ = net_.obs().series.series("rpc.shed");
  prof_handle_ = net_.obs().profiler.site("rpc.handle", obs::Category::kRpc);
  net_.attach(self_, *this);
}

RpcServer::~RpcServer() {
  for (const sim::EventId id : pending_replies_) net_.simulator().cancel(id);
  net_.detach(self_);
}

void RpcServer::set_admission(const AdmissionConfig& config) {
  admission_ = config;
}

void RpcServer::reply(const net::Address& to, std::uint64_t req_id,
                      Status status, std::string_view body,
                      const obs::CausalContext& handle_ctx,
                      sim::TimePoint handle_start) {
  // The service-time span: request arrival at the server to reply leaving
  // it (under admission: service start to reply, so run-queue wait is not
  // misattributed as service).  The critical-path analyzer buckets this as
  // "service".
  net_.obs().tracer.span(handle_start, net_.simulator().now(),
                         obs::Category::kRpc, "handle", handle_ctx,
                         {{"req", static_cast<double>(req_id)}});
  // The replay cache and the outgoing datagram share one wire buffer.
  util::Buf wire = util::encode(
      RpcReply{.req_id = req_id, .status = status, .body = body});
  replay_[{to, req_id}] = wire;
  net_.send({.src = self_, .dst = to, .payload = std::move(wire),
             .ctx = handle_ctx});
}

void RpcServer::push_back_shed(const net::Message& msg, std::uint64_t req_id) {
  // Pushback is the cheap path: no handler, no processing delay, and no
  // replay-cache entry — a retry after the queue drains may be admitted.
  net_.send({.src = self_, .dst = msg.src,
             .payload = util::encode(RpcReply{.req_id = req_id,
                                              .status = Status::kRejected}),
             .ctx = msg.ctx});
}

void RpcServer::on_message(const net::Message& msg) {
  RpcRequest req;
  if (!util::decode(msg.payload, req) || req.type != RpcMsg::kRequest) return;
  const std::uint64_t req_id = req.req_id;

  obs::Tracer& tracer = net_.obs().tracer;
  const sim::TimePoint arrived = net_.simulator().now();

  // Retried request already executed: replay the cached reply verbatim.
  // The reply rides the retry's context, so the client's completion links
  // back to whichever attempt actually reached the server.
  if (auto it = replay_.find({msg.src, req_id}); it != replay_.end()) {
    replays_->inc();
    tracer.event(arrived, obs::Category::kRpc, "replay", msg.ctx,
                 {{"req", static_cast<double>(req_id)}});
    net_.send({.src = self_, .dst = msg.src, .payload = it->second,
               .ctx = msg.ctx});
    return;
  }

  const obs::CausalContext handle_ctx =
      msg.ctx.valid() ? msg.ctx.child(tracer.mint_id()) : obs::CausalContext{};

  if (auto async = async_methods_.find(req.method);
      async != async_methods_.end()) {
    const std::pair<net::Address, std::uint64_t> key{msg.src, req_id};
    if (!in_progress_.insert(key).second) return;  // retry while running
    handled_->inc();
    async->second(std::string(req.body), [this, key, handle_ctx,
                                          arrived](HandlerResult hr) {
      in_progress_.erase(key);
      reply(key.first, key.second,
            hr.ok ? Status::kOk : Status::kAppError, hr.body, handle_ctx,
            arrived);
    });
    return;
  }

  auto handler = methods_.find(req.method);
  if (handler == methods_.end()) {
    reply(msg.src, req_id, Status::kNoSuchMethod, req.method, handle_ctx,
          arrived);
    return;
  }

  if (admission_) {
    // A retry of a request still sitting in the run queue is absorbed, the
    // same contract as in_progress_ for async handlers: the queued
    // execution will answer it.
    if (queued_.count({msg.src, req_id}) != 0) return;

    const std::size_t depth = queue_depth();
    const auto pi = static_cast<std::size_t>(msg.priority);
    const std::size_t watermark =
        msg.priority == net::Priority::kCore ? admission_->queue_capacity
        : msg.priority == net::Priority::kControl
            ? admission_->control_watermark
            : admission_->background_watermark;
    if (depth >= watermark) {
      shed_[pi]->inc();
      net_.obs().series.count(ts_shed_, arrived);
      tracer.event(arrived, obs::Category::kRpc, "shed", msg.ctx,
                   {{"req", static_cast<double>(req_id)},
                    {"priority", static_cast<double>(pi)},
                    {"depth", static_cast<double>(depth)}});
      push_back_shed(msg, req_id);
      return;
    }
    enqueue(msg, req_id, req.method, req.body);
    return;
  }

  // Legacy (no admission control): execute now — state mutation is
  // immediate and exactly-once — and send the reply after the modelled
  // processing delay.  Every request is serviced concurrently, which is
  // exactly the unbounded-queue behaviour the admission path replaces.
  handled_->inc();
  HandlerResult hr;
  {
    obs::ProfScope prof(net_.obs().profiler, prof_handle_);
    hr = handler->second(std::string(req.body));
  }
  const Status status = hr.ok ? Status::kOk : Status::kAppError;
  if (processing_ > 0) {
    auto id_holder = std::make_shared<sim::EventId>(sim::kInvalidEvent);
    *id_holder = net_.simulator().schedule_after(
        processing_, [this, id_holder, src = msg.src, req_id, status,
                      body = hr.body, handle_ctx, arrived] {
          pending_replies_.erase(*id_holder);
          reply(src, req_id, status, body, handle_ctx, arrived);
        });
    pending_replies_.insert(*id_holder);
  } else {
    reply(msg.src, req_id, status, hr.body, handle_ctx, arrived);
  }
}

void RpcServer::enqueue(const net::Message& msg, std::uint64_t req_id,
                        std::string_view method, std::string_view body) {
  QueuedRequest q;
  q.src = msg.src;
  q.req_id = req_id;
  q.method = method;
  q.body = body;
  q.arrived = net_.simulator().now();
  q.deadline = msg.deadline;
  q.priority = msg.priority;
  q.ctx = msg.ctx.valid() ? msg.ctx.child(net_.obs().tracer.mint_id())
                          : obs::CausalContext{};
  queued_.insert({q.src, req_id});
  runq_[static_cast<std::size_t>(msg.priority)].push_back(std::move(q));
  service_next();
}

void RpcServer::service_next() {
  if (serving_) return;
  obs::Tracer& tracer = net_.obs().tracer;
  while (true) {
    std::deque<QueuedRequest>* queue = nullptr;
    if (admission_ && !admission_->priority_dequeue) {
      // Global FIFO: the earliest arrival across all classes, regardless
      // of priority (ties broken by class index, deterministically).
      for (auto& candidate : runq_) {
        if (candidate.empty()) continue;
        if (queue == nullptr ||
            candidate.front().arrived < queue->front().arrived) {
          queue = &candidate;
        }
      }
    } else {
      for (auto& candidate : runq_) {
        if (!candidate.empty()) {
          queue = &candidate;
          break;
        }
      }
    }
    if (queue == nullptr) return;
    QueuedRequest q = std::move(queue->front());
    queue->pop_front();
    // NB: q stays in queued_ until its reply is replay-cached (or the
    // request expires) — a retransmit landing mid-service must still be
    // absorbed, or the handler would run twice.
    const sim::TimePoint now = net_.simulator().now();

    // Deadline propagation pays off here: expired work is dropped at
    // dequeue, before any service time is burned on it.  The client's own
    // deadline already fired (or is firing this step), so no reply is
    // owed; silence keeps the drop free.
    if (admission_ && admission_->drop_expired && q.deadline > 0 &&
        now >= q.deadline) {
      queued_.erase({q.src, q.req_id});
      expired_->inc();
      expired_global_->inc();
      tracer.event(now, obs::Category::kRpc, "expired", q.ctx,
                   {{"req", static_cast<double>(q.req_id)},
                    {"late", static_cast<double>(now - q.deadline)}});
      continue;
    }

    // Run-queue wait span, bucketed as "queue" by the critical-path
    // analyzer (the server-side analogue of a link serializer queue).
    if (now > q.arrived) {
      tracer.span(q.arrived, now, obs::Category::kRpc, "runq", q.ctx,
                  {{"req", static_cast<double>(q.req_id)}});
    }

    handled_->inc();
    HandlerResult hr;
    {
      obs::ProfScope prof(net_.obs().profiler, prof_handle_);
      hr = methods_[q.method](q.body);
    }
    const Status status = hr.ok ? Status::kOk : Status::kAppError;
    if (processing_ > 0) {
      serving_ = true;
      auto id_holder = std::make_shared<sim::EventId>(sim::kInvalidEvent);
      *id_holder = net_.simulator().schedule_after(
          processing_, [this, id_holder, src = q.src, req_id = q.req_id,
                        status, body = hr.body, ctx = q.ctx, now] {
            pending_replies_.erase(*id_holder);
            serving_ = false;
            queued_.erase({src, req_id});
            reply(src, req_id, status, body, ctx, now);
            service_next();
          });
      pending_replies_.insert(*id_holder);
      return;
    }
    queued_.erase({q.src, q.req_id});
    reply(q.src, q.req_id, status, hr.body, q.ctx, now);
  }
}

// ------------------------------------------------------------------- client

RpcClient::RpcClient(net::Network& net, net::Address self,
                     ClientOverloadConfig overload)
    : net_(net), self_(self), overload_(overload) {
  auto& m = net_.obs().metrics;
  rtts_ = &m.summary(metric_key("rpc.client", self_, "rtt_us"));
  timeouts_ = &m.counter(metric_key("rpc.client", self_, "timeouts"));
  rejected_ = &m.counter(metric_key("rpc.client", self_, "rejected"));
  retries_denied_ =
      &m.counter(metric_key("rpc.client", self_, "retries_denied"));
  obs::Timeseries& ts = net_.obs().series;
  ts_latency_ = ts.series("rpc.latency_us");
  ts_ok_ = ts.series("rpc.ok");
  ts_error_ = ts.series("rpc.error");
  net_.attach(self_, *this);
}

RpcClient::~RpcClient() {
  for (auto& [id, o] : outstanding_) {
    if (o.timer != sim::kInvalidEvent) net_.simulator().cancel(o.timer);
  }
  net_.detach(self_);
}

RpcClient::PeerGuards& RpcClient::guards(const net::Address& server) {
  auto [it, inserted] = guards_.try_emplace(server);
  if (inserted) {
    it->second.budget = net::RetryBudget(overload_.budget);
    it->second.breaker = net::CircuitBreaker(overload_.breaker);
  }
  return it->second;
}

net::CircuitBreaker::State RpcClient::breaker_state(
    const net::Address& server) const {
  auto it = guards_.find(server);
  return it == guards_.end() ? net::CircuitBreaker::State::kClosed
                             : it->second.breaker.state();
}

double RpcClient::budget_tokens(const net::Address& server) const {
  auto it = guards_.find(server);
  return it == guards_.end() ? overload_.budget.initial
                             : it->second.budget.tokens();
}

void RpcClient::call(const net::Address& server, const std::string& method,
                     const std::string& request, Callback done,
                     CallOptions opts) {
  const std::uint64_t req_id = next_req_id_++;
  obs::Tracer& tracer = net_.obs().tracer;
  const sim::TimePoint now = net_.simulator().now();
  Outstanding o;
  o.server = server;
  o.wire = util::encode(
      RpcRequest{.req_id = req_id, .method = method, .body = request});
  o.done = std::move(done);
  o.opts = opts;
  o.issued_at = now;
  o.current_timeout = opts.timeout;
  // A call either continues the caller's trace or is itself an entry
  // point; every attempt, hop, and the server's handling descend from
  // this span.
  o.ctx = opts.parent.valid() ? opts.parent.child(tracer.mint_id())
                              : tracer.begin_trace();
  const obs::CausalContext call_ctx = o.ctx;
  outstanding_[req_id] = std::move(o);
  tracer.event(now, obs::Category::kRpc, "call", call_ctx,
               {{"req", static_cast<double>(req_id)},
                {"server", static_cast<double>(server.node)}});

  // A call issued at or past its own deadline is dead on arrival.  This
  // must precede the breaker check: a half-open breaker's probe slot is
  // only released by record_success/record_failure, and a DOA completion
  // records neither.
  if (opts.deadline > 0 && now >= opts.deadline) {
    net_.simulator().schedule_after(0, [this, req_id, call_ctx] {
      complete(req_id, {.status = Status::kTimeout, .reply = {}, .rtt = 0},
               call_ctx);
    });
    return;
  }

  // Breaker fast-fail: an open circuit answers locally with kRejected —
  // no wire traffic, no timeout burned.  Completion is deferred one step
  // so call() never re-enters the caller synchronously.
  if (!guards(server).breaker.allow(now)) {
    rejected_->inc();
    const obs::CausalContext reject_ctx = call_ctx.child(tracer.mint_id());
    tracer.event(now, obs::Category::kRpc, "rejected", reject_ctx,
                 {{"req", static_cast<double>(req_id)}});
    net_.simulator().schedule_after(0, [this, req_id, reject_ctx] {
      complete(req_id, {.status = Status::kRejected, .reply = {}, .rtt = 0},
               reject_ctx);
    });
    return;
  }

  transmit(req_id, call_ctx);
}

void RpcClient::transmit(std::uint64_t req_id,
                         const obs::CausalContext& attempt_ctx) {
  auto it = outstanding_.find(req_id);
  if (it == outstanding_.end()) return;
  net_.send({.src = self_, .dst = it->second.server,
             .payload = it->second.wire,
             .deadline = it->second.opts.deadline,
             .priority = it->second.opts.priority, .ctx = attempt_ctx});
  arm_timeout(req_id);
}

void RpcClient::arm_timeout(std::uint64_t req_id) {
  auto it = outstanding_.find(req_id);
  if (it == outstanding_.end()) return;
  Outstanding& o = it->second;
  o.armed_timeout = o.current_timeout;
  if (o.opts.backoff_jitter > 0) {
    const double scale = net_.simulator().rng().uniform(
        1.0 - o.opts.backoff_jitter, 1.0 + o.opts.backoff_jitter);
    o.armed_timeout = std::max<sim::Duration>(
        1, static_cast<sim::Duration>(static_cast<double>(o.current_timeout) *
                                      scale));
  }
  // The deadline clips every armed wait: a retry timer never extends the
  // call past it (the deadline-vs-retry truncation contract).
  if (o.opts.deadline > 0) {
    const sim::Duration remaining = o.opts.deadline - net_.simulator().now();
    o.armed_timeout = std::max<sim::Duration>(
        0, std::min(o.armed_timeout, remaining));
  }
  o.timer = net_.simulator().schedule_after(
      o.armed_timeout, [this, req_id] { on_timeout_expiry(req_id); });
}

void RpcClient::on_timeout_expiry(std::uint64_t req_id) {
  auto oit = outstanding_.find(req_id);
  if (oit == outstanding_.end()) return;
  Outstanding& out = oit->second;
  out.timer = sim::kInvalidEvent;
  obs::Tracer& tracer = net_.obs().tracer;
  const sim::TimePoint now = net_.simulator().now();

  const bool deadline_reached =
      out.opts.deadline > 0 && now >= out.opts.deadline;
  if (deadline_reached && !out.deadline_requeued) {
    // The timer was armed before any reply arriving this step was
    // scheduled, so the kernel's FIFO tie-break would run it first.  A
    // reply landing in the same sim step as the deadline must win:
    // re-queue the expiry behind everything already scheduled for this
    // instant (a reply completing the call meanwhile cancels the timer).
    out.deadline_requeued = true;
    out.timer = net_.simulator().schedule_after(
        0, [this, req_id] { on_timeout_expiry(req_id); });
    return;
  }

  const bool exhausted = out.attempt >= out.opts.retries;
  bool budget_denied = false;
  if (!exhausted && !deadline_reached) {
    budget_denied = !guards(out.server).budget.try_spend();
    if (budget_denied) {
      retries_denied_->inc();
      tracer.event(now, obs::Category::kRpc, "retry_denied",
                   out.ctx.valid() ? out.ctx.child(tracer.mint_id())
                                   : obs::CausalContext{},
                   {{"req", static_cast<double>(req_id)}});
    }
  }

  if (exhausted || deadline_reached || budget_denied) {
    timeouts_->inc();
    guards(out.server).breaker.record_failure(now);
    const obs::CausalContext timeout_ctx =
        out.ctx.valid() ? out.ctx.child(tracer.mint_id())
                        : obs::CausalContext{};
    tracer.event(now, obs::Category::kRpc, "timeout", timeout_ctx,
                 {{"req", static_cast<double>(req_id)}});
    complete(req_id,
             {.status = Status::kTimeout,
              .reply = {},
              .rtt = now - out.issued_at},
             timeout_ctx);
    return;
  }

  // Retries share the call's trace; each attempt is a child span of the
  // call.  `waited` is the (jittered) timeout that actually lapsed
  // before this attempt could fire — the critical-path analyzer's
  // "retry" bucket.
  const sim::Duration waited = out.armed_timeout;
  ++out.attempt;
  out.current_timeout = static_cast<sim::Duration>(
      static_cast<double>(out.current_timeout) * out.opts.backoff);
  const obs::CausalContext attempt_ctx =
      out.ctx.valid() ? out.ctx.child(tracer.mint_id())
                      : obs::CausalContext{};
  tracer.event(now, obs::Category::kRpc, "retry", attempt_ctx,
               {{"req", static_cast<double>(req_id)},
                {"attempt", static_cast<double>(out.attempt)},
                {"waited", static_cast<double>(waited)}});
  transmit(req_id, attempt_ctx);
}

void RpcClient::complete(std::uint64_t req_id, const RpcResult& result,
                         const obs::CausalContext& cause) {
  auto it = outstanding_.find(req_id);
  if (it == outstanding_.end()) return;
  Callback done = std::move(it->second.done);
  if (it->second.timer != sim::kInvalidEvent)
    net_.simulator().cancel(it->second.timer);
  const sim::TimePoint issued_at = it->second.issued_at;
  outstanding_.erase(it);
  const sim::TimePoint now = net_.simulator().now();
  if (result.ok()) {
    rtts_->add(static_cast<double>(result.rtt));
    net_.obs().series.observe(ts_latency_, now,
                              static_cast<double>(result.rtt));
    net_.obs().series.count(ts_ok_, now);
  } else {
    net_.obs().series.count(ts_error_, now);
  }
  obs::Tracer& tracer = net_.obs().tracer;
  // The end-to-end span: child of whatever finished the call (the reply
  // delivery, or the final timeout) so the arrowhead lands on completion.
  const obs::CausalContext rpc_ctx =
      cause.valid() ? cause.child(tracer.mint_id()) : obs::CausalContext{};
  tracer.span(issued_at, net_.simulator().now(), obs::Category::kRpc, "rpc",
              rpc_ctx,
              {{"req", static_cast<double>(req_id)},
               {"status",
                static_cast<double>(
                    static_cast<std::uint8_t>(result.status))}});
  if (done) done(result);
}

void RpcClient::on_message(const net::Message& msg) {
  RpcReply rep;
  if (!util::decode(msg.payload, rep) || rep.type != RpcMsg::kReply) return;
  auto it = outstanding_.find(rep.req_id);
  if (it == outstanding_.end()) return;  // late duplicate reply

  // Feed the destination's guards: any substantive reply proves the
  // server alive (breaker closes), a successful one earns retry budget,
  // and a pushback counts as a failure the breaker accumulates toward
  // fast-failing — the explicit signal that converts server overload into
  // client-side back-off without waiting out a timeout.
  PeerGuards& g = guards(it->second.server);
  if (rep.status == Status::kRejected) {
    rejected_->inc();
    g.breaker.record_failure(net_.simulator().now());
  } else {
    if (rep.status == Status::kOk) g.budget.on_success();
    g.breaker.record_success();
  }

  complete(rep.req_id,
           {.status = rep.status,
            .reply = std::string(rep.body),
            .rtt = net_.simulator().now() - it->second.issued_at},
           msg.ctx);
}

}  // namespace coop::rpc
