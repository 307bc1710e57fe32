// perfbench — user-operation benchmark for the coop platform.
//
//   perfbench --workload coauthor|meeting|crowd --seed N --seconds S
//             --trace 0|1 [--spans-out FILE]
//
// One run: set the session up, then fork a number of rounds from it
// (rounds() scaled by S / 25), with kSetups - 1 more set-ups in forked
// children spread among them; setup_s sums the fastest repeat of each
// set-up segment.  Each round settles, times the workload's fixed
// number of virtual-time windows, then stops issuing operations, drains
// and checks correctness.  Every round does the same virtual work whatever
// the host speed or S, and window i does identical work in every round; a
// window's host time is the fastest of its repeats.  The timed windows are
// also the count phase: every count, virtual latency and outcome hash is
// taken over exactly that interval, and every round must reproduce the
// first's.
//
// --trace 0 prints the end-to-end metrics, measured with the benchmark's
// spans and the library profiler off.  --trace 1 cycles its rounds
// through span, plain and profiler mode to price observability, and
// prints the per-layer metrics.  Both print a `fingerprint` line of the
// deterministic values and, last, one JSON result line.
#include <sched.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <type_traits>
#include <new>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

// --- global allocation counter ----------------------------------------------

namespace perfbench {
std::uint64_t g_allocs = 0;
std::uint64_t g_alloc_bytes = 0;
SpanLog g_spans;
VSamples g_vs;
}  // namespace perfbench

namespace {
void* counted_alloc(std::size_t n) {
  ++perfbench::g_allocs;
  perfbench::g_alloc_bytes += n;
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++perfbench::g_allocs;
  perfbench::g_alloc_bytes += n;
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++perfbench::g_allocs;
  perfbench::g_alloc_bytes += n;
  return std::malloc(n != 0 ? n : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a.trace = std::atoi(v);
    else if (k == "--spans-out") a.spans_out = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 &&
         (a.trace == 0 || a.trace == 1);
}

std::unique_ptr<Workload> make(const std::string& name, std::uint64_t seed) {
  if (name == "coauthor") return make_coauthor(seed);
  if (name == "meeting") return make_meeting(seed);
  if (name == "crowd") return make_crowd(seed);
  return nullptr;
}

// --- library profiler toggle (what COOP_PROFILE=1 turns on) -----------------

void note_step(void* ctx, std::uint64_t ns) {
  static_cast<obs::Profiler*>(ctx)->note_step(ns);
}

void set_profile(Platform& p, bool on) {
  p.obs().profiler.set_enabled(on);
  p.simulator().set_step_timer(on ? &note_step : nullptr,
                               on ? &p.obs().profiler : nullptr);
}

Counts snapshot(Workload& w) {
  Counts c;
  w.counts(c);
  Platform& p = w.platform();
  c.ops = w.ops();
  c.events = p.simulator().events_processed();
  const net::NetworkStats ns = p.network().stats();
  c.net_msgs = ns.sent;
  c.net_bytes = ns.bytes_sent;
  c.net_dropped = ns.dropped_loss + ns.dropped_partition +
                  ns.dropped_no_endpoint + ns.dropped_corrupt;
  c.allocs = g_allocs;
  c.alloc_bytes = g_alloc_bytes;
  return c;
}

// --- output -----------------------------------------------------------------

/// Ordered (name -> value, unit) list printed as JSON.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void add(const std::string& name, double v, const char* unit) {
    items.push_back({name, {std::isfinite(v) ? v : 0.0, unit}});
  }
};

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Peak resident set so far, in MiB: VmHWM from /proc/self/status, else
/// getrusage's ru_maxrss (both in KiB).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Set-ups per untraced run: the one the rounds fork from, and the rest in
/// forked children spread among the rounds.
constexpr int kSetups = 6;
/// Virtual time per timed segment of a set-up's warm-up.
constexpr sim::Duration kSetupSegment = sim::sec(1);
/// The --seconds that Workload::rounds() is sized for (run_seconds in
/// BENCHMARK.json).  A run of S seconds forks rounds() * S / kRefSeconds
/// rounds, and at least kMinRounds (one per mode of a traced run).
constexpr double kRefSeconds = 25.0;
constexpr int kMinRounds = 3;
/// Virtual time a round runs before its timed windows.  For about a
/// virtual second after the fork a round runs measurably slower (cold
/// caches on the CPU it was just pinned to, first-touch faults); settling
/// keeps that out of the timed windows.
constexpr sim::Duration kSettle = sim::sec(2);

enum Mode : int { kPlain = 0, kSpans = 1, kProfile = 2 };

Mode round_mode(bool trace, int round) {
  static constexpr std::array<Mode, 3> kCycle{kSpans, kPlain, kProfile};
  return trace ? kCycle[static_cast<std::size_t>(round) % kCycle.size()]
               : kPlain;
}

void set_mode(Platform& p, Mode m) {
  g_spans.set_enabled(m == kSpans);
  set_profile(p, m == kProfile);
}

/// The library profiler's sites (what COOP_PROFILE=1 turns on).
struct ProfSite {
  const char* site;
  obs::Category category;
  const char* metric;
};

constexpr std::array<ProfSite, 5> kProfSites{{
    {"net.deliver", obs::Category::kNet, "sim.prof.net_deliver_share"},
    {"group.deliver", obs::Category::kGroup, "sim.prof.group_deliver_share"},
    {"rpc.handle", obs::Category::kRpc, "sim.prof.rpc_handle_share"},
    {"awareness.publish", obs::Category::kAwareness,
     "sim.prof.awareness_publish_share"},
    {"awareness.flush", obs::Category::kAwareness,
     "sim.prof.awareness_flush_share"},
}};

/// What one round leaves behind once its session is gone.
struct Round {
  Mode mode = kPlain;
  std::vector<double> window_ms;  ///< host time of each timed window
  std::vector<std::uint64_t> window_ops;
  std::vector<std::uint64_t> window_events;
  Metrics det;  ///< deterministic fingerprint of the count phase
  std::uint64_t count_hash = 0;
  std::uint64_t timed_ops = 0;
  std::uint64_t failed_ops = 0;
  std::uint64_t prof_step_ns = 0;  ///< profiler-mode rounds only
  std::array<std::uint64_t, kProfSites.size()> prof_site_ns{};
  Metrics spans;  ///< span-mode rounds only: host timings per layer
  double peak_rss_mb = 0;
  std::vector<std::string> failures;
};

/// Every count, v* metric and peak over the count phase [a, b].
Metrics fingerprint(const Counts& a, const Counts& b,
                    std::uint64_t pending_peak, std::uint64_t held_back_max,
                    std::uint64_t view_changes) {
  const double ops = static_cast<double>(b.ops - a.ops);
  auto per_op = [ops](std::uint64_t x) {
    return ops > 0 ? static_cast<double>(x) / ops : 0.0;
  };
  auto vpct = [](VKind kind, double q) {
    return percentile(g_vs.v[static_cast<std::size_t>(kind)], q) / 1000.0;
  };
  const std::uint64_t aware_seen = b.aware_deliveries - a.aware_deliveries;
  const std::uint64_t aware_supp = b.aware_suppressed - a.aware_suppressed;
  Metrics det;
  det.add("count.ops", ops, "count");
  det.add("sim.events_per_op", per_op(b.events - a.events), "1/op");
  det.add("sim.pending_peak", static_cast<double>(pending_peak), "count");
  det.add("util.allocs_per_op", per_op(b.allocs - a.allocs), "1/op");
  det.add("util.alloc_bytes_per_op", per_op(b.alloc_bytes - a.alloc_bytes),
          "B/op");
  det.add("net.msgs_per_op", per_op(b.net_msgs - a.net_msgs), "1/op");
  det.add("net.bytes_per_op", per_op(b.net_bytes - a.net_bytes), "B/op");
  det.add("net.dropped_per_op", per_op(b.net_dropped - a.net_dropped), "1/op");
  det.add("groups.deliveries_per_op",
          per_op(b.group_deliveries - a.group_deliveries), "1/op");
  det.add("groups.retransmits_per_op",
          per_op(b.group_retransmits - a.group_retransmits), "1/op");
  det.add("groups.held_back_max", static_cast<double>(held_back_max), "count");
  det.add("groups.view_changes", static_cast<double>(view_changes), "count");
  det.add("groups.vdeliver_ms.p95", vpct(VKind::kGroupsDeliver, 0.95), "ms");
  det.add("rpc.calls_per_op", per_op(b.rpc_calls - a.rpc_calls), "1/op");
  det.add("rpc.retries_per_op", per_op(b.rpc_retries - a.rpc_retries), "1/op");
  det.add("rpc.vrtt_ms.p50", vpct(VKind::kRpcRtt, 0.5), "ms");
  det.add("ccontrol.floor_vwait_ms.p50", vpct(VKind::kFloorWait, 0.5), "ms");
  det.add("groupware.vnotify_ms.p50", vpct(VKind::kGroupwareNotify, 0.5), "ms");
  det.add("groupware.vnotify_ms.p95", vpct(VKind::kGroupwareNotify, 0.95),
          "ms");
  det.add("awareness.deliveries_per_op", per_op(aware_seen), "1/op");
  det.add("awareness.useful_ratio",
          aware_seen + aware_supp > 0
              ? static_cast<double>(aware_seen) /
                    static_cast<double>(aware_seen + aware_supp)
              : 0.0,
          "ratio");
  det.add("awareness.digests_per_op",
          per_op(b.aware_digested - a.aware_digested), "1/op");
  det.add("awareness.vnotify_ms.p50", vpct(VKind::kAwarenessNotify, 0.5), "ms");
  det.add("durable.wal_bytes_per_op", per_op(b.wal_bytes - a.wal_bytes),
          "B/op");
  det.add("durable.syncs_per_op", per_op(b.wal_syncs - a.wal_syncs), "1/op");
  det.add("durable.checkpoints",
          static_cast<double>(b.checkpoints - a.checkpoints), "count");
  det.add("durable.vack_ms.p50", vpct(VKind::kDurableAck, 0.5), "ms");
  return det;
}

void write_spans(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  const auto& recs = g_spans.records();
  const std::int64_t t0 = recs.empty() ? 0 : recs.front().start;
  out << "index,name,layer,parent,start_ns,end_ns\n";
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const auto& r = recs[i];
    const SpanInfo& info = kSpanInfo[static_cast<std::size_t>(r.kind)];
    const std::int64_t parent =
        r.parent == SpanLog::kNoRecord ? -1
                                       : static_cast<std::int64_t>(r.parent);
    out << i << ',' << info.name << ',' << info.layer << ',' << parent << ','
        << r.start - t0 << ',' << r.end - t0 << '\n';
  }
}

/// Host timings of this process's span-mode windows.  Everything runs
/// inside run_until, so its total is the denominator of every share and
/// the self times of all spans partition it.
Metrics span_metrics() {
  const double total =
      static_cast<double>(g_spans.totals(SpanKind::kRunUntil).total_ns);
  auto share_of = [total](std::int64_t ns) {
    return total > 0 ? static_cast<double>(ns) / total : 0.0;
  };
  std::map<std::string, std::int64_t> layer_self;
  for (std::size_t i = 0; i < kSpanKinds; ++i)
    layer_self[kSpanInfo[i].layer] +=
        g_spans.totals(static_cast<SpanKind>(i)).self_ns;
  auto span_pct = [](SpanKind kind, double q) {
    return percentile(g_spans.totals(kind).samples_us, q);
  };
  Metrics m;
  m.add("sim.run_self_share", share_of(layer_self["sim"]), "ratio");
  m.add("groups.broadcast_us.p50", span_pct(SpanKind::kBroadcast, 0.5), "us");
  m.add("groups.self_share", share_of(layer_self["groups"]), "ratio");
  m.add("rpc.call_us.p50", span_pct(SpanKind::kRpcCall, 0.5), "us");
  m.add("rpc.self_share", share_of(layer_self["rpc"]), "ratio");
  m.add("ccontrol.floor_us.p50", span_pct(SpanKind::kFloor, 0.5), "us");
  m.add("ccontrol.self_share", share_of(layer_self["ccontrol"]), "ratio");
  m.add("groupware.edit_us.p50", span_pct(SpanKind::kEdit, 0.5), "us");
  m.add("groupware.edit_us.p95", span_pct(SpanKind::kEdit, 0.95), "us");
  m.add("groupware.callback_share",
        share_of(g_spans.totals(SpanKind::kOnRemote).self_ns), "ratio");
  m.add("groupware.self_share", share_of(layer_self["groupware"]), "ratio");
  m.add("awareness.publish_us.p50", span_pct(SpanKind::kPublish, 0.5), "us");
  m.add("awareness.publish_us.p95", span_pct(SpanKind::kPublish, 0.95),
        "us");
  m.add("awareness.move_us.p50", span_pct(SpanKind::kMove, 0.5), "us");
  m.add("awareness.self_share", share_of(layer_self["awareness"]), "ratio");
  m.add("durable.put_us.p50", span_pct(SpanKind::kPut, 0.5), "us");
  m.add("durable.self_share", share_of(layer_self["durable"]), "ratio");
  m.add("bench.self_share", share_of(layer_self["bench"]), "ratio");
  return m;
}

/// One round, in a forked copy of the warmed-up session: settle, time the
/// workload's windows in @p mode, then stop issuing, drain and check.
Round run_round(Workload& w, Mode mode, const std::string& spans_out) {
  const int windows = w.windows();
  Round rd;
  rd.mode = mode;
  rd.window_ms.reserve(static_cast<std::size_t>(windows));
  rd.window_ops.reserve(static_cast<std::size_t>(windows));
  rd.window_events.reserve(static_cast<std::size_t>(windows));
  Platform& p = w.platform();
  sim::Simulator& sim = p.simulator();
  p.run_until(sim.now() + kSettle);

  // --- timed windows: the count phase -------------------------------------
  Verdict v;
  std::uint64_t pending_peak = 0;
  w.mark_timed();
  const Counts c0 = snapshot(w);
  g_vs.counting = true;
  set_mode(p, mode);
  sim::TimePoint next = sim.now();
  for (int i = 0; i < windows && v.ok(); ++i) {
    const std::uint64_t ops0 = w.ops();
    const std::uint64_t ev0 = sim.events_processed();
    next += w.window();
    const std::int64_t t0 = host_ns();
    {
      Span s(SpanKind::kRunUntil);
      p.run_until(next);
    }
    rd.window_ms.push_back(static_cast<double>(host_ns() - t0) * 1e-6);
    rd.window_ops.push_back(w.ops() - ops0);
    rd.window_events.push_back(sim.events_processed() - ev0);
    pending_peak = std::max<std::uint64_t>(pending_peak, sim.pending());
    w.guard(v);
  }
  g_vs.counting = false;
  const Counts c_end = snapshot(w);
  rd.count_hash = w.outcome_hash();
  const std::uint64_t held_back_max = w.held_back_max();
  if (mode == kProfile) {
    obs::Profiler& prof = p.obs().profiler;
    rd.prof_step_ns = prof.step_ns();
    for (std::size_t s = 0; s < kProfSites.size(); ++s)
      rd.prof_site_ns[s] = prof.self_ns_of(
          prof.site(kProfSites[s].site, kProfSites[s].category));
  }
  set_mode(p, kPlain);
  rd.timed_ops = w.ops() - w.timed_from();

  // --- quiesce and check --------------------------------------------------
  w.stop();
  p.run_until(sim.now() + w.drain());
  if (static_cast<int>(rd.window_ms.size()) < windows)
    v.require(false, "a round stopped before its last window");
  w.check(v);
  w.check_pinned(v, rd.count_hash);
  rd.failed_ops = w.failed_ops();
  rd.det = fingerprint(c0, c_end, pending_peak, held_back_max,
                       w.view_changes());
  if (mode == kSpans) {
    rd.spans = span_metrics();
    if (!spans_out.empty()) write_spans(spans_out);
  }
  rd.peak_rss_mb = peak_rss_mb();
  rd.failures = std::move(v.failures);
  return rd;
}

// --- rounds in forked processes ---------------------------------------------

/// Byte buffer a forked round sends back to the parent through a pipe.
class Wire {
 public:
  Wire() = default;
  explicit Wire(std::string bytes) : buf_(std::move(bytes)) {}

  template <typename T>
  void put(const T& x) {
    static_assert(std::is_trivially_copyable_v<T>);
    buf_.append(reinterpret_cast<const char*>(&x), sizeof(x));
  }
  template <typename T>
  void put(const std::vector<T>& xs) {
    put(xs.size());
    buf_.append(reinterpret_cast<const char*>(xs.data()),
                xs.size() * sizeof(T));
  }
  void put(const std::string& s) {
    put(s.size());
    buf_.append(s);
  }
  void put(const Metrics& m) {
    put(m.items.size());
    for (const auto& [name, vu] : m.items) {
      put(name);
      put(vu.first);
      put(vu.second);
    }
  }

  template <typename T>
  bool get(T& x) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (buf_.size() - pos_ < sizeof(x)) return false;
    std::memcpy(&x, buf_.data() + pos_, sizeof(x));
    pos_ += sizeof(x);
    return true;
  }
  template <typename T>
  bool get(std::vector<T>& xs) {
    std::size_t n = 0;
    if (!get(n) || (buf_.size() - pos_) / sizeof(T) < n) return false;
    xs.resize(n);
    std::memcpy(xs.data(), buf_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return true;
  }
  bool get(std::string& s) {
    std::size_t n = 0;
    if (!get(n) || buf_.size() - pos_ < n) return false;
    s.assign(buf_, pos_, n);
    pos_ += n;
    return true;
  }
  bool get(Metrics& m) {
    std::size_t n = 0;
    if (!get(n)) return false;
    m.items.resize(n);
    for (auto& [name, vu] : m.items)
      if (!get(name) || !get(vu.first) || !get(vu.second)) return false;
    return true;
  }

  [[nodiscard]] const std::string& bytes() const noexcept { return buf_; }
  [[nodiscard]] bool done() const noexcept { return pos_ == buf_.size(); }

 private:
  std::string buf_;
  std::size_t pos_ = 0;
};

void save(Wire& out, const Round& rd) {
  out.put(rd.mode);
  out.put(rd.window_ms);
  out.put(rd.window_ops);
  out.put(rd.window_events);
  out.put(rd.det);
  out.put(rd.count_hash);
  out.put(rd.timed_ops);
  out.put(rd.failed_ops);
  out.put(rd.prof_step_ns);
  out.put(rd.prof_site_ns);
  out.put(rd.spans);
  out.put(rd.peak_rss_mb);
  out.put(rd.failures.size());
  for (const auto& f : rd.failures) out.put(f);
}

bool load(Wire& in, Round& rd) {
  std::size_t n = 0;
  bool ok = in.get(rd.mode) && in.get(rd.window_ms) && in.get(rd.window_ops) &&
            in.get(rd.window_events) && in.get(rd.det) &&
            in.get(rd.count_hash) && in.get(rd.timed_ops) &&
            in.get(rd.failed_ops) && in.get(rd.prof_step_ns) &&
            in.get(rd.prof_site_ns) && in.get(rd.spans) &&
            in.get(rd.peak_rss_mb) && in.get(n);
  rd.failures.resize(ok ? n : 0);
  for (auto& f : rd.failures) ok = ok && in.get(f);
  return ok && in.done();
}

/// Pins the calling process to the @p index-th CPU it may run on (mod
/// their number), so that successive rounds visit every allowed CPU.
void pin_to_cpu(int index) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int n = CPU_COUNT(&allowed);
  if (n <= 1) return;
  int skip = index % n;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

/// Gives the calling (forked) process its own copy of every resident page
/// it may write.  fork() shares them copy-on-write, so otherwise the first
/// write to each page in a round — for most pages, somewhere in its timed
/// windows — would take a fault and a page copy that a session never
/// pays.  Pages never touched stay untouched, so the resident set is
/// unchanged.
void unshare_pages() {
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  std::ifstream maps("/proc/self/maps");
  std::string line;
  std::vector<unsigned char> resident;
  while (std::getline(maps, line)) {
    unsigned long lo = 0;
    unsigned long hi = 0;
    char perms[5] = {};
    if (std::sscanf(line.c_str(), "%lx-%lx %4s", &lo, &hi, perms) != 3 ||
        perms[0] != 'r' || perms[1] != 'w' || perms[3] != 'p')
      continue;
    resident.assign((hi - lo) / page, 0);
    if (mincore(reinterpret_cast<void*>(lo), hi - lo, resident.data()) != 0)
      continue;
    for (std::size_t i = 0; i < resident.size(); ++i)
      if ((resident[i] & 1) != 0) {
        auto* b = reinterpret_cast<volatile char*>(lo + i * page);
        *b = *b;
      }
  }
}

/// Runs @p body in a forked child, pinned to the @p index-th CPU it may
/// run on and with its pages unshared, and puts the bytes of the Wire it
/// returns in @p out.  Forking gives every round the same state, heap
/// layout and block pool, and leaves the parent's session as set-up left
/// it.  Successive children go to successive CPUs: on a shared host the
/// CPUs run at different speeds at the same moment, and a run's result
/// should not depend on where the scheduler happened to leave the
/// process.  Waits for the child; false if it could not run or failed.
template <typename Body>
bool in_child(int index, Body&& body, std::string& out) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    pin_to_cpu(index);
    unshare_pages();
    const Wire result = body();
    const std::string& b = result.bytes();
    std::size_t sent = 0;
    while (sent < b.size()) {
      const ssize_t n = write(fds[1], b.data() + sent, b.size() - sent);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) _exit(3);
      sent += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// Runs round @p index in a forked child of the warmed-up session.
Round fork_round(Workload& w, int index, Mode mode,
                 const std::string& spans_out) {
  std::string bytes;
  const bool ran = in_child(
      index,
      [&] {
        Wire out;
        save(out, run_round(w, mode, spans_out));
        return out;
      },
      bytes);
  Round rd;
  Wire in(std::move(bytes));
  if (!ran || !load(in, rd)) {
    Round failed;
    failed.mode = mode;
    failed.failures.emplace_back("a round's process failed");
    return failed;
  }
  return rd;
}

/// Sets a session up from scratch: build, start and warm up.  Appends the
/// host seconds of each segment to @p segments: the build, then each
/// kSetupSegment of the warm-up.  Every set-up of a seed does the same
/// work, segment by segment.  Null for an unknown workload.
std::unique_ptr<Workload> set_up(const Args& args,
                                 std::vector<double>& segments) {
  std::int64_t t = host_ns();
  auto lap = [&t, &segments] {
    const std::int64_t now = host_ns();
    segments.push_back(static_cast<double>(now - t) * 1e-9);
    t = now;
  };
  std::unique_ptr<Workload> w = make(args.workload, args.seed);
  if (!w) return nullptr;
  Platform& p = w->platform();
  set_profile(p, false);
  w->build();
  w->start();
  lap();
  const sim::TimePoint end = p.simulator().now() + w->warmup();
  for (sim::TimePoint next = p.simulator().now(); next < end;) {
    next = std::min(end, next + kSetupSegment);
    p.run_until(next);
    lap();
  }
  return w;
}

/// One more set-up, in a forked child, so that set-ups are spread over
/// the run like the rounds; its segment times, or none if it failed or
/// did not reach the same state as @p first.
std::vector<double> fork_setup(const Args& args, const Workload& first,
                               int index) {
  std::string bytes;
  const bool ran = in_child(
      index,
      [&] {
        std::vector<double> segments;
        // The child exits right after; its session is never torn down.
        const Workload* again = set_up(args, segments).release();
        if (again->ops() != first.ops() ||
            again->outcome_hash() != first.outcome_hash())
          segments.clear();
        Wire out;
        out.put(segments);
        return out;
      },
      bytes);
  std::vector<double> segments;
  Wire in(std::move(bytes));
  if (!ran || !in.get(segments) || !in.done()) segments.clear();
  return segments;
}

/// Element i is the fastest of the @p repeats' element i (up to the
/// shortest repeat).  A repeat does the same work as every other, piece
/// by piece, so the spread between repeats is the host's: interference
/// from other guests only ever adds time.  With tens of short repeats
/// spread over the run and over the CPUs, nearly every piece has one that
/// ran undisturbed, so the fastest repeat moves far less from run to run
/// than the median (how much of the run was disturbed) or the mean.
std::vector<double> fastest(
    const std::vector<const std::vector<double>*>& repeats) {
  if (repeats.empty()) return {};
  std::size_t n = ~std::size_t{0};
  for (const auto* r : repeats) n = std::min(n, r->size());
  std::vector<double> out(n, std::numeric_limits<double>::infinity());
  for (const auto* r : repeats)
    for (std::size_t i = 0; i < n; ++i) out[i] = std::min(out[i], (*r)[i]);
  return out;
}

/// Each window's host time: the fastest of its repeats in @p mode's rounds.
std::vector<double> fastest(const std::vector<Round>& rounds, Mode mode) {
  std::vector<const std::vector<double>*> repeats;
  for (const Round& rd : rounds)
    if (rd.mode == mode) repeats.push_back(&rd.window_ms);
  return fastest(repeats);
}

/// Set-up time: the fastest repeat of each set-up segment, summed.
double fastest_setup(const std::vector<std::vector<double>>& setups) {
  std::vector<const std::vector<double>*> repeats;
  for (const auto& segs : setups)
    if (!segs.empty()) repeats.push_back(&segs);
  const std::vector<double> best = fastest(repeats);
  return std::accumulate(best.begin(), best.end(), 0.0);
}

template <typename T>
double sum_prefix(const std::vector<T>& xs, std::size_t n) {
  double s = 0;
  for (std::size_t i = 0; i < std::min(n, xs.size()); ++i)
    s += static_cast<double>(xs[i]);
  return s;
}

int run(const Args& args) {
  const bool trace = args.trace == 1;
  g_vs.reserve(std::size_t{1} << 20);
  if (trace) g_spans.reserve(std::size_t{1} << 18, std::size_t{1} << 17);

  // --- set-up: the session every round forks from ------------------------
  std::vector<std::vector<double>> setups(1);
  const std::unique_ptr<Workload> w = set_up(args, setups.front());
  if (!w) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  const int n_rounds = std::max(
      kMinRounds,
      static_cast<int>(std::lround(w->rounds() * args.seconds / kRefSeconds)));

  // --- rounds -------------------------------------------------------------
  std::vector<Round> rounds;
  bool spans_written = false;
  const std::int64_t t_rounds = host_ns();
  const int n_setups = trace ? 1 : kSetups;
  for (int r = 0; r < n_rounds; ++r) {
    // The other set-ups, spread evenly among the rounds.
    while (static_cast<int>(setups.size()) < n_setups &&
           r >= static_cast<int>(setups.size()) * n_rounds / n_setups)
      setups.push_back(fork_setup(args, *w, r));
    const Mode mode = round_mode(trace, r);
    const bool write = mode == kSpans && !spans_written;
    spans_written = spans_written || write;
    rounds.push_back(
        fork_round(*w, r, mode, write ? args.spans_out : std::string()));
  }
  const double rounds_s = static_cast<double>(host_ns() - t_rounds) * 1e-9;

  // --- verdict: every round's checks, and rounds that agree ---------------
  Verdict v;
  for (const auto& segs : setups)
    if (segs.empty())
      v.require(false, "a set-up failed or ended in another state");
  std::uint64_t timed_ops = 0;
  std::uint64_t failed_ops = 0;
  util::Summary peak_mb;
  const Round& ref = rounds.front();
  for (const Round& rd : rounds) {
    std::vector<std::string> failures = rd.failures;
    if (rd.count_hash != ref.count_hash)
      failures.emplace_back("a round's outcome hash differs from the first's");
    if (rd.window_ops != ref.window_ops)
      failures.emplace_back("a round's ops per window differ from the first's");
    if (rd.det.items != ref.det.items)
      failures.emplace_back("a round's counts or v* metrics differ from the "
                            "first's");
    for (const auto& f : failures)
      if (std::find(v.failures.begin(), v.failures.end(), f) ==
          v.failures.end())
        v.failures.push_back(f);
    timed_ops += rd.timed_ops;
    failed_ops += rd.failed_ops;
    peak_mb.add(rd.peak_rss_mb);
  }

  // --- deterministic fingerprint ------------------------------------------
  std::printf("fingerprint {\"workload\": \"%s\", \"seed\": %llu, "
              "\"hash\": \"%s\"",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              hex64(ref.count_hash).c_str());
  for (const auto& [name, vu] : ref.det.items)
    std::printf(", \"%s\": %s", name.c_str(), num(vu.first).c_str());
  std::printf("}\n");
  std::printf("info {\"rounds\": %d, \"windows_per_round\": %d, "
              "\"window_virtual_ms\": %s, "
              "\"rounds_s\": %s, \"timed_ops\": %llu, "
              "\"round_window_ms_p50\": [",
              n_rounds, w->windows(),
              num(static_cast<double>(w->window()) / 1000.0).c_str(),
              num(rounds_s).c_str(),
              static_cast<unsigned long long>(timed_ops));
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    util::Summary ms;
    for (const double x : rounds[r].window_ms) ms.add(x);
    std::printf("%s%.3f", r > 0 ? ", " : "", ms.p50());
  }
  std::printf("]}\n");
  for (const auto& f : v.failures) std::printf("check failed: %s\n", f.c_str());

  // --- result -------------------------------------------------------------
  Metrics out;
  const std::vector<double> plain = fastest(rounds, kPlain);
  const double plain_ms = sum_prefix(plain, plain.size());
  const double ops = sum_prefix(ref.window_ops, plain.size());
  if (!trace) {
    util::Summary window_ms;
    for (const double x : plain) window_ms.add(x);
    out.add("ops_per_s", plain_ms > 0 ? ops / (plain_ms * 1e-3) : 0.0, "1/s");
    out.add("window_ms.p50", window_ms.p50(), "ms");
    out.add("window_ms.p95", window_ms.p95(), "ms");
    out.add("setup_s", fastest_setup(setups), "s");
    out.add("peak_rss_mb", peak_mb.p50(), "MB");
    const double failed_share =
        timed_ops > 0 ? static_cast<double>(failed_ops) /
                            static_cast<double>(timed_ops)
                      : 1.0;
    out.add("ops_ok_pct", 100.0 * (1.0 - failed_share), "%");
  } else {
    for (const auto& item : ref.det.items)
      if (item.first != "count.ops") out.items.push_back(item);
    const double events = sum_prefix(ref.window_events, plain.size());
    out.add("sim.ns_per_event", events > 0 ? plain_ms * 1e6 / events : 0.0,
            "ns");
    // Span timings: the median over the span-mode rounds.
    const Round* spans_ref = nullptr;
    for (const Round& rd : rounds)
      if (rd.mode == kSpans && !rd.spans.items.empty()) {
        spans_ref = &rd;
        break;
      }
    if (spans_ref != nullptr) {
      for (std::size_t i = 0; i < spans_ref->spans.items.size(); ++i) {
        util::Summary xs;
        for (const Round& rd : rounds)
          if (rd.mode == kSpans && i < rd.spans.items.size())
            xs.add(rd.spans.items[i].second.first);
        out.add(spans_ref->spans.items[i].first, xs.p50(),
                spans_ref->spans.items[i].second.second.c_str());
      }
    }
    // The profiler's totals over the profiler-mode rounds' timed windows.
    double prof_ns = 0;
    double step_ns = 0;
    std::array<double, kProfSites.size()> site_ns{};
    for (const Round& rd : rounds) {
      if (rd.mode != kProfile) continue;
      prof_ns += sum_prefix(rd.window_ms, rd.window_ms.size()) * 1e6;
      step_ns += static_cast<double>(rd.prof_step_ns);
      for (std::size_t s = 0; s < site_ns.size(); ++s)
        site_ns[s] += static_cast<double>(rd.prof_site_ns[s]);
    }
    auto prof_share = [prof_ns](double ns) {
      return prof_ns > 0 ? ns / prof_ns : 0.0;
    };
    out.add("sim.prof.step_share", prof_share(step_ns), "ratio");
    for (std::size_t s = 0; s < kProfSites.size(); ++s)
      out.add(kProfSites[s].metric, prof_share(site_ns[s]), "ratio");
    // Observability cost: the same windows, fastest repeat per mode.
    auto overhead_pct = [&](Mode m) {
      const std::vector<double> ms = fastest(rounds, m);
      const std::size_t n = std::min(ms.size(), plain.size());
      const double base = sum_prefix(plain, n);
      return base > 0 ? 100.0 * (sum_prefix(ms, n) / base - 1.0) : 0.0;
    };
    out.add("obs.trace_overhead_pct", overhead_pct(kSpans), "%");
    out.add("obs.profile_overhead_pct", overhead_pct(kProfile), "%");
  }

  for (const auto& [name, vu] : out.items)
    std::printf("metric %-36s %20s %s\n", name.c_str(), num(vu.first).c_str(),
                vu.second.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              v.ok() ? "true" : "false",
              static_cast<unsigned long long>(timed_ops),
              static_cast<unsigned long long>(failed_ops));
  for (std::size_t i = 0; i < out.items.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", out.items[i].first.c_str(),
                num(out.items[i].second.first).c_str(),
                out.items[i].second.second.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
  return v.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload coauthor|meeting|crowd "
                 "--seed N --seconds S --trace 0|1 [--spans-out FILE]\n");
    return 2;
  }
  return perfbench::run(args);
}
