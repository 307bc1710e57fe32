// Request/response invocation over the simulated network — the ODP
// computational-viewpoint operation interface, engineered on datagrams.
//
// RpcClient::call provides timeout + retry with exponential backoff;
// RpcServer dedupes retried requests through a replay cache so application
// handlers observe *at-most-once* execution even though the transport is
// at-least-once.  Handlers are synchronous functions; simulated server
// processing time is modelled with a configurable delay before the reply.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>

#include "net/network.hpp"
#include "net/overload.hpp"
#include "sim/simulator.hpp"
#include "util/codec.hpp"
#include "util/stats.hpp"

namespace coop::rpc {

/// Outcome of a call.
enum class Status : std::uint8_t {
  kOk = 0,
  kTimeout = 1,        ///< no reply within timeout after all retries
  kNoSuchMethod = 2,   ///< server has no handler for the method
  kAppError = 3,       ///< handler reported failure
  /// Explicitly refused without execution: the server shed the request
  /// under admission control (pushback), or the client's own circuit
  /// breaker fast-failed the call before it touched the wire.  Unlike
  /// kTimeout this is a *cheap, immediate* signal — the overload plane's
  /// alternative to burning a full timeout discovering saturation.
  kRejected = 4,
};
COOP_ENUM_RANGE(Status, kOk, kRejected)

/// RPC wire formats: every frame starts with its RpcMsg byte.
enum class RpcMsg : std::uint8_t { kRequest = 1, kReply = 2 };
COOP_ENUM_RANGE(RpcMsg, kRequest, kReply)

struct RpcRequest {
  RpcMsg type = RpcMsg::kRequest;
  std::uint64_t req_id = 0;
  std::string_view method;
  std::string_view body;
  COOP_FIELDS(type, req_id, method, body)
};

struct RpcReply {
  RpcMsg type = RpcMsg::kReply;
  std::uint64_t req_id = 0;
  Status status = Status::kOk;
  std::string_view body;
  COOP_FIELDS(type, req_id, status, body)
};

/// What the caller's completion callback receives.
struct RpcResult {
  Status status = Status::kTimeout;
  std::string reply;
  sim::Duration rtt = 0;  ///< call issue -> completion (virtual time)

  [[nodiscard]] bool ok() const noexcept { return status == Status::kOk; }
};

/// Per-call knobs.
struct CallOptions {
  sim::Duration timeout = sim::msec(200);  ///< per-attempt timeout
  int retries = 2;                         ///< additional attempts
  double backoff = 2.0;                    ///< timeout multiplier per retry
  /// Absolute deadline (virtual time) for the whole call; 0 = none.
  /// Propagated in the net::Message header so servers drop already-
  /// expired work on dequeue.  Retries never extend past it: an armed
  /// timeout that would overshoot is truncated to the remaining slack,
  /// and a reply landing in the same sim step as the deadline wins.
  sim::TimePoint deadline = 0;
  /// Scheduling class stamped on the request — admission control sheds
  /// lowest-priority-first (kBackground before kControl before kCore).
  net::Priority priority = net::Priority::kCore;
  /// Deterministic, seeded retry jitter: each armed timeout is scaled by
  /// a uniform draw from [1 - jitter, 1 + jitter] out of the simulator's
  /// stream, decorrelating clients that timed out together (retry
  /// storms after a heal).  0 (the default) keeps exact backoff.  The
  /// "retry" trace event's `waited` attribute records the jittered wait
  /// that actually lapsed, not the nominal timeout.
  double backoff_jitter = 0.0;
  /// Causal parent of the call.  Invalid (the default) starts a fresh
  /// trace — an RPC issued directly by a user action is an entry point;
  /// one issued while servicing something else should pass that context
  /// so the whole chain shares a trace.  Retries stay inside the call's
  /// trace as child spans either way.
  obs::CausalContext parent{};
};

/// A handler returns either a reply body or an application error string.
struct HandlerResult {
  bool ok = true;
  std::string body;

  static HandlerResult success(std::string b) { return {true, std::move(b)}; }
  static HandlerResult error(std::string b) { return {false, std::move(b)}; }
};

using MethodFn = std::function<HandlerResult(const std::string& request)>;

/// Admission control for RpcServer: a bounded, priority-ordered run queue
/// with watermark shedding.  Without it the server model executes every
/// request on arrival — effectively infinite concurrency, the unbounded
/// queue at the heart of metastable overload.  With admission enabled the
/// server is a serial worker: requests queue, the queue is bounded, and at
/// the watermarks the server sheds lowest-priority-first, answering shed
/// requests with an immediate kRejected pushback (cheap — no service time)
/// that the client's circuit breaker consumes.
///
/// Watermarks express the paper's degradation order: awareness traffic
/// (kBackground) is refused first, floor/membership (kControl) second,
/// core cooperative operations (kCore) only when the queue is full.
struct AdmissionConfig {
  std::size_t queue_capacity = 64;        ///< hard cap (kCore watermark)
  std::size_t control_watermark = 44;     ///< depth at which kControl sheds
  std::size_t background_watermark = 24;  ///< depth at which kBackground sheds
  /// Honor message deadlines on dequeue: expired work is dropped (counted
  /// in rpc.expired_drops) instead of burning service time.
  bool drop_expired = true;
  /// Serve higher-priority classes first.  false = one global FIFO across
  /// classes — the classic overload-naive server, kept as the measurable
  /// baseline (experiment R2's "disabled" arm).
  bool priority_dequeue = true;
};

/// Asynchronous handler: call @p reply exactly once, possibly after
/// virtual time has passed (lock waits, negotiations, floor queues).
using AsyncMethodFn = std::function<void(
    const std::string& request, std::function<void(HandlerResult)> reply)>;

/// Server side: registers named methods and answers requests.
class RpcServer : public net::Endpoint {
 public:
  RpcServer(net::Network& net, net::Address self);
  ~RpcServer() override;

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Registers (or replaces) the handler for @p method.
  void register_method(const std::string& method, MethodFn fn) {
    methods_[method] = std::move(fn);
  }

  /// Registers an asynchronous handler: the reply is sent whenever the
  /// handler completes it.  While a request is in progress, client
  /// retries are absorbed (neither re-executed nor answered until the
  /// first execution replies).
  void register_async_method(const std::string& method, AsyncMethodFn fn) {
    async_methods_[method] = std::move(fn);
  }

  /// Models server work: each request's reply is delayed by this much.
  /// Under admission control this is also the serial service time, so
  /// 1/processing is the server's saturation throughput.
  void set_processing_time(sim::Duration d) noexcept { processing_ = d; }

  /// Switches the server to admission-controlled operation: synchronous
  /// requests flow through a bounded priority run queue serviced serially
  /// (see AdmissionConfig).  Async methods keep their own concurrency
  /// (they model lock waits and floor queues, which must interleave) and
  /// bypass the run queue.  Call before traffic arrives.
  void set_admission(const AdmissionConfig& config);

  [[nodiscard]] net::Address address() const noexcept { return self_; }
  [[nodiscard]] std::uint64_t requests_handled() const noexcept {
    return handled_->value();
  }
  [[nodiscard]] std::uint64_t replays_served() const noexcept {
    return replays_->value();
  }
  /// Requests refused by admission control, by priority class.
  [[nodiscard]] std::uint64_t shed(net::Priority p) const noexcept {
    return shed_[static_cast<std::size_t>(p)]->value();
  }
  [[nodiscard]] std::uint64_t shed_total() const noexcept {
    return shed_[0]->value() + shed_[1]->value() + shed_[2]->value();
  }
  /// Requests dropped expired on dequeue (deadline already passed).
  [[nodiscard]] std::uint64_t expired_drops() const noexcept {
    return expired_->value();
  }
  /// Current run-queue depth (0 when admission is off).
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return runq_[0].size() + runq_[1].size() + runq_[2].size();
  }

  void on_message(const net::Message& msg) override;

 private:
  /// One admitted-but-not-yet-serviced request.
  struct QueuedRequest {
    net::Address src;
    std::uint64_t req_id = 0;
    std::string method;
    std::string body;
    sim::TimePoint arrived = 0;
    sim::TimePoint deadline = 0;
    net::Priority priority = net::Priority::kCore;
    obs::CausalContext ctx{};
  };

  void reply(const net::Address& to, std::uint64_t req_id, Status status,
             std::string_view body, const obs::CausalContext& handle_ctx,
             sim::TimePoint handle_start);
  /// Immediate kRejected pushback for a shed request — deliberately NOT
  /// cached in the replay table, so a later retry may be admitted once
  /// the queue drains.
  void push_back_shed(const net::Message& msg, std::uint64_t req_id);
  void enqueue(const net::Message& msg, std::uint64_t req_id,
               std::string_view method, std::string_view body);
  /// Serial worker: dequeues highest-priority-first, drops expired work,
  /// executes the handler and schedules the reply.
  void service_next();

  net::Network& net_;
  net::Address self_;
  std::map<std::string, MethodFn, std::less<>> methods_;
  std::map<std::string, AsyncMethodFn, std::less<>> async_methods_;
  sim::Duration processing_ = 0;
  // Replay cache: (client address, request id) -> encoded reply.  Grants
  // at-most-once execution under client retries.
  //
  // Restart semantics: the cache is process state and dies with the
  // server — at-most-once holds *per server incarnation*.  A retry that
  // spans a crash-restart finds an empty cache and legitimately
  // re-executes; clients needing exactly-once across restarts must make
  // operations idempotent (chaos invariants key recorded executions by
  // incarnation for exactly this reason).
  std::map<std::pair<net::Address, std::uint64_t>, util::Buf> replay_;
  // Async requests currently executing (retries are absorbed).
  std::set<std::pair<net::Address, std::uint64_t>> in_progress_;
  // Replies delayed by processing_, cancelled on destruction so a server
  // torn down mid-request (the crash-restart lifecycle) leaves no
  // dangling timer.  Async handlers own their completion closures; an
  // application that destroys the server with async work in flight must
  // drop those closures itself.
  std::set<sim::EventId> pending_replies_;
  // Admission control (engaged by set_admission).  One FIFO per priority
  // class; service drains kCore first.  queued_ mirrors the queue's
  // (client, req id) keys so retries of queued requests are absorbed.
  std::optional<AdmissionConfig> admission_;
  std::array<std::deque<QueuedRequest>, net::kPriorityCount> runq_;
  std::set<std::pair<net::Address, std::uint64_t>> queued_;
  bool serving_ = false;
  // Registry-owned ("rpc.server.<node>:<port>.*"); accessors are views.
  util::Counter* handled_;
  util::Counter* replays_;
  util::Counter* shed_[net::kPriorityCount];
  util::Counter* expired_;
  util::Counter* expired_global_;  ///< shared "rpc.expired_drops"
  obs::Timeseries::SeriesId ts_shed_;   ///< shared "rpc.shed" trajectory
  obs::Profiler::SiteId prof_handle_;   ///< handler wall-clock attribution
};

/// Client-side overload guards (see net/overload.hpp).  One retry budget
/// and one circuit breaker are kept per destination; both default to
/// disabled, preserving the pre-overload-plane behaviour until a caller
/// opts in.
struct ClientOverloadConfig {
  net::RetryBudgetConfig budget{};
  net::CircuitBreakerConfig breaker{};
};

/// Client side: issues calls and dispatches completions.
class RpcClient : public net::Endpoint {
 public:
  using Callback = std::function<void(const RpcResult&)>;

  RpcClient(net::Network& net, net::Address self,
            ClientOverloadConfig overload = {});
  ~RpcClient() override;

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Invokes @p method on @p server.  @p done fires exactly once, either
  /// with the reply or with kTimeout after all retries lapse.
  void call(const net::Address& server, const std::string& method,
            const std::string& request, Callback done,
            CallOptions opts = {});

  [[nodiscard]] net::Address address() const noexcept { return self_; }
  [[nodiscard]] sim::Simulator& simulator() noexcept {
    return net_.simulator();
  }
  [[nodiscard]] const util::Summary& rtt_summary() const noexcept {
    return *rtts_;
  }
  [[nodiscard]] std::uint64_t timeouts() const noexcept {
    return timeouts_->value();
  }
  /// Calls fast-failed by an open circuit breaker (never hit the wire) or
  /// answered with a server pushback.
  [[nodiscard]] std::uint64_t rejected() const noexcept {
    return rejected_->value();
  }
  /// Retries refused because the destination's retry budget was dry.
  [[nodiscard]] std::uint64_t retries_denied() const noexcept {
    return retries_denied_->value();
  }
  /// Breaker state toward @p server (kClosed if never contacted).
  [[nodiscard]] net::CircuitBreaker::State breaker_state(
      const net::Address& server) const;
  /// Remaining retry tokens toward @p server.
  [[nodiscard]] double budget_tokens(const net::Address& server) const;

  void on_message(const net::Message& msg) override;

 private:
  struct Outstanding {
    net::Address server;
    util::Buf wire;  ///< encoded request, shared by every retransmission
    Callback done;
    CallOptions opts;
    sim::TimePoint issued_at = 0;
    int attempt = 0;
    sim::Duration current_timeout = 0;  ///< nominal (pre-jitter) timeout
    sim::Duration armed_timeout = 0;    ///< jittered wait actually armed
    bool deadline_requeued = false;  ///< expiry re-queued behind this step
    sim::EventId timer = sim::kInvalidEvent;
    obs::CausalContext ctx{};  ///< the call span; attempts are children
  };

  /// Per-destination overload guards, created lazily on first call.
  struct PeerGuards {
    net::RetryBudget budget;
    net::CircuitBreaker breaker;
  };

  PeerGuards& guards(const net::Address& server);
  void transmit(std::uint64_t req_id, const obs::CausalContext& attempt_ctx);
  void arm_timeout(std::uint64_t req_id);
  void on_timeout_expiry(std::uint64_t req_id);
  void complete(std::uint64_t req_id, const RpcResult& result,
                const obs::CausalContext& cause);

  net::Network& net_;
  net::Address self_;
  ClientOverloadConfig overload_;
  std::map<net::Address, PeerGuards> guards_;
  std::map<std::uint64_t, Outstanding> outstanding_;
  std::uint64_t next_req_id_ = 1;
  // Registry-owned ("rpc.client.<node>:<port>.*"); accessors are views.
  util::Summary* rtts_;
  util::Counter* timeouts_;
  util::Counter* rejected_;
  util::Counter* retries_denied_;
  // Shared windowed trajectories ("rpc.latency_us" / "rpc.ok" /
  // "rpc.error"): the per-window view the SLO watchdog evaluates.
  obs::Timeseries::SeriesId ts_latency_;
  obs::Timeseries::SeriesId ts_ok_;
  obs::Timeseries::SeriesId ts_error_;
};

}  // namespace coop::rpc
