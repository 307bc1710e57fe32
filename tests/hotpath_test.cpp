// Tests for the hot-message-path memory model: SmallFn inline storage,
// BlockPool recycling, shared Buf payloads, the Writer/Reader length-cap
// fixes, the Address hash spread, and the zero-allocation steady-state
// guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "awareness/engine.hpp"
#include "awareness/spatial.hpp"
#include "ccontrol/ot.hpp"
#include "durable/anti_entropy.hpp"
#include "durable/store.hpp"
#include "durable/wal.hpp"
#include "groups/group_channel.hpp"
#include "groups/membership.hpp"
#include "groupware/conference.hpp"
#include "groupware/editor.hpp"
#include "groupware/session.hpp"
#include "mobile/share_server.hpp"
#include "net/fifo_channel.hpp"
#include "net/network.hpp"
#include "rpc/rpc.hpp"
#include "rpc/trader.hpp"
#include "sim/simulator.hpp"
#include "sim/small_fn.hpp"
#include "streams/stream.hpp"
#include "util/buf.hpp"
#include "util/codec.hpp"
#include "util/fnv.hpp"
#include "util/pool.hpp"

// --- allocation counting hook ----------------------------------------------
//
// Replaces the global operator new/delete for this test binary with a
// counting wrapper over malloc/free.  The zero-allocation test below uses
// the counter to prove the steady-state unicast path never touches the
// heap.  Compiled out under AddressSanitizer (which must own operator new
// to poison allocations); the dependent test skips itself there.
#if defined(__SANITIZE_ADDRESS__)
#define COOP_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define COOP_COUNT_ALLOCS 0
#else
#define COOP_COUNT_ALLOCS 1
#endif
#else
#define COOP_COUNT_ALLOCS 1
#endif

#if COOP_COUNT_ALLOCS
namespace {
// Atomic because other tests in this binary allocate from worker threads
// (the sharded engine's pool); relaxed is enough for a tally.
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#endif  // COOP_COUNT_ALLOCS

namespace coop {
namespace {

// --- SmallFn ---------------------------------------------------------------

TEST(SmallFnTest, EmptyIsFalsy) {
  sim::SmallFn fn;
  EXPECT_FALSE(static_cast<bool>(fn));
  sim::SmallFn null_fn(nullptr);
  EXPECT_FALSE(static_cast<bool>(null_fn));
}

TEST(SmallFnTest, CaptureAtInlineThresholdStaysInline) {
  // 48 bytes of capture: exactly kInlineBytes.
  struct Pad {
    char bytes[sim::SmallFn::kInlineBytes] = {};
  };
  static_assert(sizeof(Pad) == sim::SmallFn::kInlineBytes);
  int hits = 0;
  int* hp = &hits;
  Pad pad;
  pad.bytes[0] = 7;
  sim::SmallFn fn([pad, hp] { *hp += pad.bytes[0]; });
  // {Pad, int*} exceeds the threshold; {Pad} alone would not.  Verify the
  // exact boundary with two separate callables instead:
  sim::SmallFn at_limit([pad] { (void)pad.bytes[0]; });
  EXPECT_TRUE(at_limit.inline_stored());
  EXPECT_FALSE(fn.inline_stored());  // 48 + 8 bytes: spilled
  fn();
  EXPECT_EQ(hits, 7);
}

TEST(SmallFnTest, SmallCaptureIsInlineAndInvokes) {
  int hits = 0;
  sim::SmallFn fn([&hits] { ++hits; });
  EXPECT_TRUE(fn.inline_stored());
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFnTest, OversizedCaptureSpillsAndStillWorks) {
  struct Big {
    char bytes[96] = {};
  };
  Big big;
  big.bytes[95] = 42;
  int got = 0;
  int* gp = &got;
  sim::SmallFn fn([big, gp] { *gp = big.bytes[95]; });
  EXPECT_FALSE(fn.inline_stored());
  fn();
  EXPECT_EQ(got, 42);
}

TEST(SmallFnTest, MoveTransfersOwnership) {
  int hits = 0;
  sim::SmallFn a([&hits] { ++hits; });
  sim::SmallFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);

  sim::SmallFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFnTest, ResetDestroysCapture) {
  auto token = std::make_shared<int>(5);
  std::weak_ptr<int> watch = token;
  sim::SmallFn fn([token] { (void)*token; });
  token.reset();
  EXPECT_FALSE(watch.expired());  // capture keeps it alive
  fn.reset();
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(SmallFnTest, CancelledEventNeverRunsAndReleasesItsCapture) {
  // A cancelled event must not fire, cancel() must succeed exactly once,
  // and the callable's captures must be destroyed no later than lazy
  // queue cleanup (when the dead entry is popped past).
  sim::Simulator sim;
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  const sim::EventId id =
      sim.schedule_after(sim::msec(5), [token] { (void)*token; });
  token.reset();
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel is a clean no-op
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.run(), 0u);      // the dead entry is skipped, not fired
  EXPECT_TRUE(watch.expired());  // queue drain reclaimed the capture
}

TEST(SmallFnTest, KernelRecyclesSlotsAcrossEvents) {
  // Steady-state schedule/fire cycles reuse callable slots; this is a
  // behavioural smoke test that recycling preserves per-event identity.
  sim::Simulator sim;
  std::vector<int> order;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 4; ++i) {
      sim.schedule_after(sim::usec(round * 10 + i),
                         [&order, round, i] { order.push_back(round * 4 + i); });
    }
  }
  sim.run();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// --- BlockPool -------------------------------------------------------------

TEST(BlockPoolTest, RecyclesSameClassBlocks) {
  void* a = util::BlockPool::alloc(100);
  util::BlockPool::free(a, 100);
  void* b = util::BlockPool::alloc(128);  // same 128-byte class
  EXPECT_EQ(a, b);
  util::BlockPool::free(b, 128);
}

TEST(BlockPoolTest, ClassCapacityCoversRequest) {
  EXPECT_GE(util::BlockPool::class_capacity(1), std::size_t{1});
  EXPECT_GE(util::BlockPool::class_capacity(100), std::size_t{100});
  EXPECT_GE(util::BlockPool::class_capacity(65536), std::size_t{65536});
}

// --- Buf sharing -----------------------------------------------------------

TEST(BufTest, CopyShareStorageByRefcount) {
  util::Buf a("shared payload bytes");
  EXPECT_EQ(a.refs(), 1u);
  util::Buf b = a;
  util::Buf c = b;
  EXPECT_EQ(a.refs(), 3u);
  EXPECT_EQ(a.data(), b.data());  // same storage, no copy
  EXPECT_EQ(b.data(), c.data());
  c = {};
  EXPECT_EQ(a.refs(), 2u);
}

TEST(BufTest, MutateByteClonesWhenShared) {
  util::Buf a("immutable");
  util::Buf b = a;
  b.mutate_byte(0, 0xff);
  // The mutation must not leak into the sibling: b cloned first.
  EXPECT_EQ(a, "immutable");
  EXPECT_NE(b[0], 'i');
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(a.refs(), 1u);
  EXPECT_EQ(b.refs(), 1u);
}

TEST(BufTest, MutateByteInPlaceWhenExclusive) {
  util::Buf a("x");
  const char* before = a.data();
  a.mutate_byte(0, 0x01);
  EXPECT_EQ(a.data(), before);  // sole owner: no clone
  EXPECT_EQ(a[0], 'x' ^ 0x01);
}

TEST(BufTest, MulticastFanOutSharesOnePayload) {
  // A multicast send() copies the Message per member; all copies must
  // alias one payload allocation.
  sim::Simulator sim{1};
  net::Network net{sim};
  struct Sink : net::Endpoint {
    std::vector<net::Message> got;
    void on_message(const net::Message& m) override { got.push_back(m); }
  };
  Sink sinks[3];
  for (std::uint32_t i = 0; i < 3; ++i)
    net.mcast_join(50, net::Address{i + 2, 1});
  for (std::uint32_t i = 0; i < 3; ++i)
    net.attach(net::Address{i + 2, 1}, sinks[i]);
  net.multicast(50, {.src = {1, 1}, .payload = "fan-out-payload"});
  sim.run();
  ASSERT_EQ(sinks[0].got.size(), 1u);
  ASSERT_EQ(sinks[1].got.size(), 1u);
  ASSERT_EQ(sinks[2].got.size(), 1u);
  // All three deliveries share storage (refs counts the sink-held copies).
  EXPECT_EQ(sinks[0].got[0].payload.data(), sinks[1].got[0].payload.data());
  EXPECT_EQ(sinks[1].got[0].payload.data(), sinks[2].got[0].payload.data());
  EXPECT_EQ(sinks[0].got[0].payload.refs(), 3u);
}

// --- Writer/Reader bounds --------------------------------------------------

TEST(CodecBoundsTest, WriterTakeBufIsZeroCopyAndExclusive) {
  util::Writer w;
  w.put<std::uint32_t>(7).put_string("abc");
  util::Buf b = w.take_buf();
  EXPECT_EQ(b.refs(), 1u);
  util::Reader r(b);
  EXPECT_EQ(r.get<std::uint32_t>(), 7u);
  EXPECT_EQ(r.get_string(), "abc");
  EXPECT_TRUE(r.exhausted());
}

TEST(CodecBoundsTest, OversizedStringSetsStickyFailure) {
  // A string_view longer than the 32-bit wire length cap must never be
  // written (its u32 prefix would silently truncate).  The view is
  // fabricated — length checked before any byte is dereferenced.
  const char byte = 'x';
  const std::string_view oversized(&byte,
                                   util::Writer::kMaxLength + std::size_t{7});
#ifdef NDEBUG
  util::Writer w;
  w.put<std::uint8_t>(1);
  w.put_string(oversized);
  EXPECT_TRUE(w.failed());
  w.put<std::uint32_t>(42);  // dropped: failure is sticky
  EXPECT_TRUE(w.take_buf().empty());
#else
  EXPECT_DEATH(
      {
        util::Writer w;
        w.put_string(oversized);
      },
      "exceeds the 32-bit wire cap");
#endif
}

TEST(CodecBoundsTest, OversizedVectorSetsStickyFailure) {
#ifdef NDEBUG
  // Writer::write length-checks a vector's element count with the same
  // cap as strings.  (Cannot materialize >4G elements, so verify the cap
  // constant wiring instead.)
  EXPECT_EQ(util::Writer::kMaxLength, 0xffffffffu);
#else
  GTEST_SKIP() << "covered by the death test above in debug builds";
#endif
}

TEST(CodecBoundsTest, ReaderGetVectorRejectsOverflowingLength) {
  // Craft a frame whose element count times sizeof(T) would overflow an
  // additive bound check: len = 2^29, T = u64 -> len*8 = 2^32.
  util::Writer w;
  w.put<std::uint32_t>(1u << 29);
  const std::string frame = w.take();
  util::Reader r(frame);
  std::vector<std::uint64_t> v;
  r.read(v);
  EXPECT_TRUE(r.failed());
  EXPECT_TRUE(v.empty());
}

TEST(CodecBoundsTest, ReaderGetVectorAcceptsExactFit) {
  util::Writer w;
  w.write(std::vector<std::uint64_t>{1, 2, 3});
  const std::string frame = w.take();
  util::Reader r(frame);
  std::vector<std::uint64_t> v;
  r.read(v);
  EXPECT_FALSE(r.failed());
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[2], 3u);
}

// --- wire messages under hostile bytes -------------------------------------

/// Appends the offset of every u32 count or length prefix in @p v's
/// encoding to @p out, and the offset and bytes of each value just outside
/// an enum field's declared range to @p bad_enums, walking the value the
/// way Writer::write lays it out (@p at is the running offset).
template <typename T>
void prefix_offsets(
    const T& v, std::size_t& at, std::vector<std::size_t>& out,
    std::vector<std::pair<std::size_t, std::string>>& bad_enums) {
  if constexpr (std::is_enum_v<T>) {
    using U = std::underlying_type_t<T>;
    const auto range = wire_range(T{});
    const auto push = [&](U bad) {
      bad_enums.emplace_back(
          at, std::string(reinterpret_cast<const char*>(&bad), sizeof bad));
    };
    push(static_cast<U>(static_cast<U>(range.last) + 1));
    if (static_cast<U>(range.first) > 0)
      push(static_cast<U>(static_cast<U>(range.first) - 1));
    at += sizeof(T);
  } else if constexpr (std::is_arithmetic_v<T>) {
    at += sizeof(T);
  } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    out.push_back(at);
    at += 4 + std::string_view(v).size();
  } else if constexpr (util::wire::kIs<T, util::ArrayView>) {
    out.push_back(at);
    at += 4 + v.bytes().size();
  } else if constexpr (util::wire::kIs<T, std::vector>) {
    out.push_back(at);
    at += 4;
    for (const auto& e : v) prefix_offsets(e, at, out, bad_enums);
  } else if constexpr (util::wire::kIs<T, std::map>) {
    out.push_back(at);
    at += 4;
    for (const auto& [key, value] : v) {
      prefix_offsets(key, at, out, bad_enums);
      prefix_offsets(value, at, out, bad_enums);
    }
  } else {
    std::apply(
        [&](const auto&... f) {
          (prefix_offsets(f, at, out, bad_enums), ...);
        },
        v.fields());
  }
}

/// Runs one message type against hostile bytes.  @p sample (with at least
/// one element in each container) must round-trip; every strict prefix of
/// its encoding must fail to decode; each count or length prefix set
/// to 0xFFFFFFFF must fail, allocating no more than decoding the honest
/// frame does (so nothing is reserved for the hostile count); and each
/// enum field set just outside its declared range must fail.
template <typename T>
void expect_hostile_bytes_fail(const T& sample) {
  const std::string frame = util::encode(sample).str();
  T back;
  ASSERT_TRUE(util::decode(frame, back));
  EXPECT_EQ(util::encode(back).str(), frame);
  for (std::size_t len = 0; len < frame.size(); ++len) {
    T cut;
    EXPECT_FALSE(util::decode(std::string_view(frame).substr(0, len), cut))
        << "prefix of " << len << " of " << frame.size() << " bytes";
  }
  std::size_t end = 0;
  std::vector<std::size_t> prefixes;
  std::vector<std::pair<std::size_t, std::string>> bad_enums;
  prefix_offsets(sample, end, prefixes, bad_enums);
  ASSERT_EQ(end, frame.size());
  for (const auto& [at, bytes] : bad_enums) {
    std::string bad = frame;
    bad.replace(at, bytes.size(), bytes);
    T out;
    EXPECT_FALSE(util::decode(bad, out)) << "enum at offset " << at;
  }
#if COOP_COUNT_ALLOCS
  T honest;
  const std::uint64_t h0 = g_alloc_bytes.load(std::memory_order_relaxed);
  ASSERT_TRUE(util::decode(frame, honest));
  const std::uint64_t honest_bytes =
      g_alloc_bytes.load(std::memory_order_relaxed) - h0;
#endif
  for (const std::size_t at : prefixes) {
    std::string bad = frame;
    bad.replace(at, 4, 4, '\xff');
    T out;
#if COOP_COUNT_ALLOCS
    const std::uint64_t b0 = g_alloc_bytes.load(std::memory_order_relaxed);
#endif
    EXPECT_FALSE(util::decode(bad, out)) << "count at offset " << at;
#if COOP_COUNT_ALLOCS
    EXPECT_LE(g_alloc_bytes.load(std::memory_order_relaxed) - b0,
              honest_bytes)
        << "count at offset " << at;
#endif
  }
}

TEST(WireMessages, TraderMessagesRejectHostileBytes) {
  const rpc::Offer offer{"session.whiteboard", {7, 3}, {{"room", "ops"}}};
  expect_hostile_bytes_fail(offer);
  expect_hostile_bytes_fail(std::vector<rpc::Offer>{offer, offer});
  expect_hostile_bytes_fail(
      rpc::ImportQuery{"session.whiteboard", {{"room", "ops"}}});
  expect_hostile_bytes_fail(std::uint64_t{42});  // offer id
}

TEST(WireMessages, ShareServerMessagesRejectHostileBytes) {
  const mobile::KeyState state{true, "draft v1", 3};
  expect_hostile_bytes_fail(std::string("report"));
  expect_hostile_bytes_fail(state);
  expect_hostile_bytes_fail(mobile::WriteReq{"report", "draft v2"});
  expect_hostile_bytes_fail(std::vector<std::string>{"report", "notes"});
  expect_hostile_bytes_fail(
      std::vector<mobile::HoardEntry>{{"report", state}, {"notes", {}}});
  expect_hostile_bytes_fail(std::vector<mobile::BulkWrite>{
      {"report", "edit", 3}, {"notes", "done", 1}});
  expect_hostile_bytes_fail(std::vector<mobile::BulkResult>{
      {"report", true, 4, ""}, {"notes", false, 2, "theirs"}});
}

TEST(WireMessages, MembershipMessagesRejectHostileBytes) {
  using groups::MemberMsg;
  const groups::View view{9, {{1, 1}, {2, 1}, {3, 1}}, {{4, 1}}};
  expect_hostile_bytes_fail(MemberMsg::kHeartbeat);
  expect_hostile_bytes_fail(groups::ViewMsg{MemberMsg::kView, view});
  expect_hostile_bytes_fail(groups::ViewMsg{MemberMsg::kRejoin, view});
  expect_hostile_bytes_fail(groups::ViewIdMsg{MemberMsg::kViewAck, 9});
  expect_hostile_bytes_fail(groups::ClaimMsg{.view_id = 9, .rank = 2});
  expect_hostile_bytes_fail(
      groups::CoordAliveMsg{.coordinator = {1, 1}, .view_id = 9});
}

TEST(WireMessages, GroupChannelMessagesRejectHostileBytes) {
  const std::vector<std::uint64_t> clock{0, 1, 0};
  expect_hostile_bytes_fail(groups::DataMsg{.sender = 1,
                                            .seq = 1,
                                            .total_seq = 5,
                                            .epoch = 0,
                                            .sent_at = sim::msec(3),
                                            .clock = clock,
                                            .payload = "hello"});
  expect_hostile_bytes_fail(groups::AckMsg{.sender = 1, .seq = 1, .acker = 2});
  expect_hostile_bytes_fail(groups::TotalReqMsg{
      .sender = 1, .seq = 2, .sent_at = sim::msec(3), .payload = "req"});
  expect_hostile_bytes_fail(groups::SolicitMsg{.epoch = 1, .total = 4});
  expect_hostile_bytes_fail(groups::RecoverMsg{
      .responder = 2,
      .epoch = 0,
      .total = 4,
      .tail = {{1, 2, 0, 5, sim::msec(3), "tail"}},
      .relays = {{2, 7, sim::msec(4), 0, "relay"}}});
}

TEST(WireMessages, FifoMessagesRejectHostileBytes) {
  expect_hostile_bytes_fail(
      net::FifoData{.epoch = 2, .seq = 7, .payload = "edit"});
  expect_hostile_bytes_fail(net::FifoAck{.epoch = 2, .cumulative = 7});
  expect_hostile_bytes_fail(net::FifoHello{.epoch = 2});
}

TEST(WireMessages, RpcMessagesRejectHostileBytes) {
  expect_hostile_bytes_fail(rpc::RpcRequest{
      .req_id = 3, .method = "floor.request", .body = "alice"});
  expect_hostile_bytes_fail(rpc::RpcReply{
      .req_id = 3, .status = rpc::Status::kAppError, .body = "busy"});
}

TEST(WireMessages, DurableRecordsRejectHostileBytes) {
  using durable::WalRecord;
  expect_hostile_bytes_fail(WalRecord{.type = WalRecord::kErase,
                                      .lsn = 4,
                                      .version = 2,
                                      .stamp = 9,
                                      .key = "doc",
                                      .value = "text"});
  expect_hostile_bytes_fail(
      durable::Checkpoint{.base_lsn = 5,
                          .items = {{"doc", "text", 2}},
                          .tombstones = {{"old", 3, 9}}});
  expect_hostile_bytes_fail(
      std::vector<durable::AeSummaryEntry>{{"doc", 2}, {"old", 3}});
  expect_hostile_bytes_fail(std::vector<durable::AeEntry>{
      {WalRecord::kPut, "doc", "text", 2, 0},
      {WalRecord::kErase, "old", "", 3, 9}});
}

TEST(WireMessages, EditorMessagesRejectHostileBytes) {
  expect_hostile_bytes_fail(groupware::RegisterMsg{.site = 2});
  expect_hostile_bytes_fail(groupware::OpMsg{
      .site = 2,
      .originated_at = sim::msec(3),
      .link = {ccontrol::TextOp::insert(4, "xy", 2), 5, 1}});
  expect_hostile_bytes_fail(groupware::SnapshotMsg{.doc = "hello"});
}

TEST(WireMessages, ConferenceMessagesRejectHostileBytes) {
  expect_hostile_bytes_fail(
      groupware::ClientMsg{groupware::ConferenceMsg::kFloorReq, 7});
  expect_hostile_bytes_fail(groupware::InputMsg{.client = 7, .text = "ls"});
  expect_hostile_bytes_fail(groupware::DisplayMsg{.content = "$ ls"});
  expect_hostile_bytes_fail(groupware::FloorMsg{.holder = 7});
}

TEST(WireMessages, StreamFrameRejectsHostileBytes) {
  expect_hostile_bytes_fail(streams::Frame{
      .stream_id = 1, .seq = 2, .captured_at = sim::msec(3), .size = 1200});
}

// --- link-state bookkeeping ------------------------------------------------

TEST(LinkStateTest, PartitionDropCreatesNoLinkState) {
  sim::Simulator sim{1};
  net::Network net{sim};
  struct Sink : net::Endpoint {
    void on_message(const net::Message&) override {}
  } sink;
  net.attach({2, 1}, sink);
  net.partition({1}, {2});
  net.send({.src = {1, 1}, .dst = {2, 1}, .payload = "blocked"});
  sim.run();
  // The datagram never reached the link: no per-link counters may
  // materialize for it.
  EXPECT_EQ(net.link_state(1, 2), nullptr);
  EXPECT_EQ(net.stats().dropped_partition, 1u);
}

TEST(LinkStateTest, LossDropStillCountsOnTheLink) {
  sim::Simulator sim{1};
  net::Network net{sim};
  struct Sink : net::Endpoint {
    void on_message(const net::Message&) override {}
  } sink;
  net.attach({2, 1}, sink);
  net.set_link(1, 2, {.latency = sim::msec(1), .jitter = 0,
                      .bandwidth_bps = 0, .loss = 1.0});
  net.send({.src = {1, 1}, .dst = {2, 1}, .payload = "lost"});
  sim.run();
  const net::LinkState* ls = net.link_state(1, 2);
  ASSERT_NE(ls, nullptr);  // loss happens *on* the link
  EXPECT_EQ(ls->dropped, 1u);
}

// --- zero-allocation steady state ------------------------------------------

TEST(ZeroAllocTest, SteadyStateUnicastPathDoesNotTouchTheHeap) {
#if !COOP_COUNT_ALLOCS
  GTEST_SKIP() << "allocation counting disabled under AddressSanitizer";
#else
  sim::Simulator sim{3};
  net::Network net{sim};
  struct Sink : net::Endpoint {
    std::uint64_t count = 0;
    void on_message(const net::Message&) override { ++count; }
  } sink;
  net.attach({2, 1}, sink);
  net.set_default_link({.latency = sim::msec(1), .jitter = 0,
                        .bandwidth_bps = 0, .loss = 0});
  // One payload allocated up front; every send shares it by refcount.
  const util::Buf payload("steady-state unicast datagram payload");

  // Warm-up: grow the event heap, live map, slot pools, tracer ring and
  // BlockPool freelists to steady-state capacity.  128 sends at 1 ms
  // apiece also cross a 100 ms timeseries window edge, so the window
  // archive's first chunk reservation lands here, not in the timed loop.
  for (int i = 0; i < 128; ++i) {
    net.send({.src = {1, 1}, .dst = {2, 1}, .payload = payload});
    sim.run();
  }

  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 256; ++i) {
    net.send({.src = {1, 1}, .dst = {2, 1}, .payload = payload});
    sim.run();
  }
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u) << "steady-state unicast performed " << allocs
                        << " heap allocations across 256 deliveries";
  EXPECT_EQ(sink.count, 128u + 256u);
#endif
}

// kTotal broadcasts through a warmed-up 12-member SessionGroup (membership
// plus a total-order GroupChannel): one ordering request to the sequencer,
// its relay to 11 members, 12 deliveries and 12 acks per broadcast, with
// the membership heartbeats of the same virtual interval charged to the
// broadcasts too.  The payload is longer than std::string's inline buffer,
// so any per-delivery payload copy would show as 11 or more allocations.
//
// Ceiling: 4 allocations per broadcast.  A member other than the
// sequencer pays exactly 4: the caller's payload string, the sender's
// relay-wait and pending-table map nodes, and the sequencer's
// pending-table node.  The sequencer's own broadcasts pay 2, and the
// heartbeats none, so the measured mean is 3.83 (GCC 12, libstdc++).
// With a std::set per sender for dedupe and ack sets, a copied member set
// per multicast and a payload copy per delivery it was 68.1.
TEST(ZeroAllocTest, SessionGroupTotalBroadcastStaysUnderAllocationCeiling) {
#if !COOP_COUNT_ALLOCS
  GTEST_SKIP() << "allocation counting disabled under AddressSanitizer";
#else
  constexpr double kCeiling = 4.0;  // allocations per broadcast
  constexpr int kMembers = 12;
  constexpr int kBroadcasts = 480;
  sim::Simulator sim{5};
  net::Network net{sim};
  net.set_default_link({.latency = sim::msec(2), .jitter = sim::usec(500),
                        .bandwidth_bps = 0, .loss = 0});
  const net::Address coord_addr{100, 1};
  groups::MembershipCoordinator coord(net, coord_addr);
  std::vector<net::NodeId> roster;
  for (net::NodeId n = 1; n <= kMembers; ++n) roster.push_back(n);
  groups::ChannelConfig ccfg;
  ccfg.ordering = groups::Ordering::kTotal;
  std::vector<std::unique_ptr<groupware::SessionGroup>> members;
  std::uint64_t delivered = 0;
  for (const net::NodeId n : roster) {
    members.push_back(std::make_unique<groupware::SessionGroup>(
        net, n, roster, coord_addr, /*group=*/7, groupware::SessionPorts{},
        groups::MembershipConfig{}, ccfg));
    members.back()->on_deliver([&](const groups::Delivery&) { ++delivered; });
    members.back()->join();
  }
  sim.run_until(sim::sec(1));
  for (const auto& m : members) {
    ASSERT_TRUE(m->member().view().has_value());
    ASSERT_EQ(m->member().view()->members.size(),
              static_cast<std::size_t>(kMembers));
  }

  const std::string payload(48, 'p');
  auto run = [&](int count) {
    for (int i = 0; i < count; ++i) {
      (void)members[static_cast<std::size_t>(i % kMembers)]->broadcast(
          payload);
      sim.run_until(sim.now() + sim::msec(5));
    }
    sim.run_until(sim.now() + sim::msec(100));  // every ack is in
  };
  // Warm-up: tables, rings, spare payloads, pools and the tracer reach
  // their steady-state capacity.
  run(kBroadcasts);
  const std::uint64_t delivered_before = delivered;
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  run(kBroadcasts);
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(delivered - delivered_before,
            static_cast<std::uint64_t>(kBroadcasts * kMembers));
  const double per_broadcast = static_cast<double>(allocs) / kBroadcasts;
  EXPECT_LE(per_broadcast, kCeiling)
      << allocs << " allocations across " << kBroadcasts << " broadcasts";
#endif
}

// A FIFO stream in steady state: encoding shares one pooled block with the
// backlog, the receiver delivers a view into the arrived frame, and both
// the unacked backlog and the hold-back are rings that reached their
// capacity during warm-up.  max_unacked = 8 caps both rings at their
// initial 8 slots, so the timed phase cannot grow them.  The second half
// runs on a jittery link, where frames overtake each other and wait in
// the hold-back ring.
TEST(ZeroAllocTest, FifoChannelSteadyStateIsAllocationFree) {
#if !COOP_COUNT_ALLOCS
  GTEST_SKIP() << "allocation counting disabled under AddressSanitizer";
#else
  for (const sim::Duration jitter : {sim::Duration{0}, sim::msec(3)}) {
    SCOPED_TRACE(testing::Message() << "jitter " << jitter);
    sim::Simulator sim{7};
    net::Network net{sim};
    net.set_default_link({.latency = sim::msec(4), .jitter = jitter,
                          .bandwidth_bps = 0, .loss = 0});
    const net::FifoConfig cfg{.max_unacked = 8};
    net::FifoChannel tx(net, {1, 1}, cfg);
    net::FifoChannel rx(net, {2, 1}, cfg);
    std::uint64_t delivered = 0;
    rx.on_receive([&](const net::Address&, std::string_view) {
      ++delivered;
    });
    constexpr std::string_view kPayload =
        "a steady-state FIFO payload longer than the SSO buffer";
    auto burst = [&](int rounds) {
      for (int i = 0; i < rounds; ++i) {
        // Eight sent at once fill the window; with 3 ms of jitter on a
        // 4 ms link they arrive in shuffled order.
        for (int k = 0; k < 8; ++k) tx.send({2, 1}, kPayload);
        sim.run_until(sim.now() + sim::msec(20));
      }
    };
    burst(64);  // warm-up: rings, pools, event slots, first tracer chunk
    const std::uint64_t before =
        g_alloc_count.load(std::memory_order_relaxed);
    burst(128);
    const std::uint64_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(allocs, 0u) << allocs << " heap allocations across "
                          << 128 * 8 << " FIFO deliveries";
    EXPECT_EQ(delivered, (64u + 128u) * 8u);
    EXPECT_EQ(tx.stats().overflow_dropped, 0u);
    EXPECT_EQ(tx.unacked({2, 1}), 0u);
  }
#endif
}

// The co-authoring edit loop end to end: EditorClient -> FIFO -> OT
// server -> FIFO fan-out to 7 other clients, 4 of the 8 clients across a
// jittery WAN so the hold-back rings fill.  Inserts carry 6-character
// tokens (inside std::string's inline buffer, as perfbench's do);
// erases remove 3 characters as 3 single-character ops.
//
// Ceiling: 0.005 allocations per edit, i.e. 4 across the 800 timed
// edits.  The edit path itself allocates nothing, and the client keeps
// no per-op samples (notification times go to the callback only).  What
// remains is an OtLink in-flight ring that reaches a new peak and
// doubles once: measured 1, allowed up to 4 (GCC 12, libstdc++).  With
// a std::string per FIFO payload, a std::map node per frame and a fresh
// fan-out vector per op it was 68.0 per edit.
TEST(ZeroAllocTest, EditorEditLoopStaysUnderAllocationCeiling) {
#if !COOP_COUNT_ALLOCS
  GTEST_SKIP() << "allocation counting disabled under AddressSanitizer";
#else
  constexpr double kCeiling = 0.005;  // allocations per edit
  constexpr int kClients = 8;
  constexpr int kRounds = 100;  // one edit per client per round
  sim::Simulator sim{9};
  net::Network net{sim};
  net.set_default_link(net::LinkModel::lan());
  const net::Address server_addr{100, 1};
  groupware::EditorServer server(net, server_addr);
  std::vector<std::unique_ptr<groupware::EditorClient>> clients;
  std::uint64_t remote_ops = 0;
  for (int c = 0; c < kClients; ++c) {
    const auto node = static_cast<net::NodeId>(c + 1);
    if (c >= kClients / 2) {
      net.set_symmetric_link(node, server_addr.node,
                             {.latency = sim::msec(18),
                              .jitter = sim::msec(4),
                              .bandwidth_bps = 2e6, .loss = 0});
    }
    clients.push_back(std::make_unique<groupware::EditorClient>(
        net, net::Address{node, 1}, server_addr,
        static_cast<ccontrol::SiteId>(c + 1)));
    clients.back()->on_remote_change(
        [&](const ccontrol::TextOp&, sim::Duration) { ++remote_ops; });
    clients.back()->connect();
  }
  sim.run_until(sim::msec(500));
  for (const auto& c : clients) ASSERT_TRUE(c->connected());

  std::mt19937_64 rng(11);
  std::uint64_t edits = 0;
  auto run = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (auto& c : clients) {
        const std::size_t len = c->doc().size();
        if (len < 96) {
          c->insert(rng() % (len + 1), std::string("token") +
                                           static_cast<char>('a' + r % 26));
        } else {
          c->erase(rng() % (len - 3), 3);
        }
        ++edits;
      }
      sim.run_until(sim.now() + sim::msec(10));
    }
    sim.run_until(sim.now() + sim::msec(200));  // every op has landed
  };
  run(kRounds);  // warm-up: rings, fan-out vector, pools, tracer chunk
  const std::uint64_t edits_before = edits;
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  run(kRounds);
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  for (const auto& c : clients) EXPECT_EQ(c->doc(), server.doc());
  EXPECT_GT(remote_ops, 0u);
  const double per_edit =
      static_cast<double>(allocs) / static_cast<double>(edits - edits_before);
  EXPECT_LE(per_edit, kCeiling)
      << allocs << " allocations across " << edits - edits_before
      << " edits";
#endif
}

// Indexed awareness publishes in steady state: 64 participants in 16
// clusters of 4, each cluster on one spot and far from the others, so a
// publish delivers immediately to the actor's 3 cluster mates (weight 1)
// and suppresses the other 60 without visiting them.  Each actor edits
// its own object, so no temporal interest reaches anyone else and no
// digest is ever queued.  The objects, events and observers are built
// once; the timed loop only publishes and lets virtual time pass.
//
// Ceiling: 0 allocations.  The grid query, the candidate merge, the
// observer table and the interest refresh all reuse their storage, and
// the engine's notification-time stat is a fixed-size histogram.
TEST(ZeroAllocTest, AwarenessIndexedPublishStaysUnderAllocationCeiling) {
#if !COOP_COUNT_ALLOCS
  GTEST_SKIP() << "allocation counting disabled under AddressSanitizer";
#else
  constexpr double kCeiling = 0.0;  // allocations per publish
  constexpr awareness::ClientId kPeople = 64;
  constexpr int kRounds = 64;  // one publish per participant per round
  sim::Simulator sim{13};
  awareness::SpatialModel space;
  awareness::AwarenessEngine engine(sim, space);
  std::uint64_t delivered = 0;
  std::vector<awareness::ActivityEvent> edits;
  for (awareness::ClientId id = 0; id < kPeople; ++id) {
    const double cluster = static_cast<double>(id / 4);
    space.place(id, {100.0 * cluster, 0});
    engine.subscribe(id, [&delivered](const awareness::ActivityEvent&,
                                      double w, bool via_digest) {
      EXPECT_FALSE(via_digest);
      EXPECT_EQ(w, 1.0);
      ++delivered;
    });
    edits.push_back({id, "object/" + std::to_string(id) + "/with-a-long-name",
                     "edit", 0});
  }
  auto run = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (awareness::ActivityEvent& e : edits) {
        e.at = sim.now();
        engine.publish(e);
      }
      sim.run_until(sim.now() + sim::msec(100));
    }
  };
  // Warm-up: the interest table, expiry heap, candidate scratch and
  // tracer ring reach steady-state capacity.
  run(2 * kRounds);
  const std::uint64_t delivered_before = delivered;
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  run(kRounds);
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  const std::uint64_t publishes = static_cast<std::uint64_t>(kRounds) * kPeople;
  EXPECT_EQ(delivered - delivered_before, 3 * publishes);
  EXPECT_EQ(engine.stats().digested, 0u);
  EXPECT_EQ(engine.stats().suppressed, 3 * 60 * publishes);
  const double per_publish =
      static_cast<double>(allocs) / static_cast<double>(publishes);
  EXPECT_LE(per_publish, kCeiling)
      << allocs << " allocations across " << publishes << " publishes";
#endif
}

// Awareness publishes that digest, while participants walk across grid
// cells.  160 participants random-walk on a 4x4 lattice of grid cells,
// about ten to a cell as in the crowd benchmark, each standing at a
// random spot in the corner of its cell: cell mates see each other
// mostly with a peripheral weight (digests, coalesced per object),
// neighbouring cells are out of range, and most steps change cell.
// Each publish names one of 2048 objects, with names too long for
// short-string storage, so most objects' interest lists expire on the
// digest timer and later publishes bring them back.  The timed loop
// publishes, moves and lets digests flush.
//
// Ceiling: 0.000625 allocations per publish, i.e. 4 across the 6400
// timed publishes.  Digest entries come from the engine's pool, emptied
// interest-table nodes are reused, a new interest list has room for four
// touchers, and the warm-up is long enough for the pool and the spare
// nodes to reach their peaks.  What remains is the odd interest list or
// cell bucket that grows past every capacity it had before: the measured
// total is 4 (GCC 12, libstdc++).
TEST(ZeroAllocTest, AwarenessDigestAndMovePathStaysUnderAllocationCeiling) {
#if !COOP_COUNT_ALLOCS
  GTEST_SKIP() << "allocation counting disabled under AddressSanitizer";
#else
  constexpr double kCeiling = 0.000625;  // allocations per publish
  constexpr awareness::ClientId kPeople = 160;
  constexpr std::uint64_t kSide = 4;
  constexpr int kRounds = 40;  // one publish per participant per round
  sim::Simulator sim{17};
  awareness::SpatialModel space;
  awareness::AwarenessEngine engine(sim, space,
                                    {.full_threshold = 0.4,
                                     .digest_period = sim::msec(500),
                                     .interest_decay = sim::msec(100),
                                     .interest_gc_factor = 5.0});
  std::mt19937_64 rng(23);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cell(kPeople);
  std::uint64_t digested = 0;
  // Cell side 32 (twice the aura radius of 16); spots sit in the first
  // 12 units of each axis, so cell mates are at most 17 apart and
  // neighbours at least 20.
  auto place = [&](awareness::ClientId id) {
    space.place(id, {32.0 * static_cast<double>(cell[id].first) +
                         static_cast<double>(rng() % 1200) / 100.0,
                     32.0 * static_cast<double>(cell[id].second) +
                         static_cast<double>(rng() % 1200) / 100.0});
  };
  for (awareness::ClientId id = 0; id < kPeople; ++id) {
    cell[id] = {rng() % kSide, rng() % kSide};
    space.set_focus(id, 16);
    space.set_nimbus(id, 16);
    place(id);
    engine.subscribe(id, [&digested](const awareness::ActivityEvent&,
                                     double, bool via_digest) {
      if (via_digest) ++digested;
    });
  }
  std::vector<std::string> objects;
  for (int o = 0; o < 2048; ++o)
    objects.push_back("object/" + std::to_string(o) + "/with-a-long-name");
  awareness::ActivityEvent event{0, objects[0], "edit", 0};
  // One step to a neighbouring cell or none, held inside the lattice.
  auto walk = [&](std::uint64_t c) -> std::uint64_t {
    const std::uint64_t to = c + rng() % 3;  // one of c..c+2: shifted by one
    return to == 0 ? 0 : std::min(kSide - 1, to - 1);
  };
  auto run = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (awareness::ClientId id = 0; id < kPeople; ++id) {
        cell[id] = {walk(cell[id].first), walk(cell[id].second)};
        place(id);
        event.actor = id;
        event.object = objects[rng() % objects.size()];
        event.at = sim.now();
        engine.publish(event);
        sim.run_until(sim.now() + sim::msec(1));
      }
    }
  };
  // Warm-up: the digest pool, the spare interest nodes, the grid's
  // buckets and every scratch vector reach steady-state capacity.
  run(8 * kRounds);
  const std::uint64_t digested_before = digested;
  const std::uint64_t coalesced_before = engine.stats().coalesced;
  const std::uint64_t evicted_before = engine.stats().interest_evicted;
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  run(kRounds);
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  const std::uint64_t publishes = static_cast<std::uint64_t>(kRounds) * kPeople;
  EXPECT_GT(digested - digested_before, publishes);
  EXPECT_GT(engine.stats().coalesced - coalesced_before, 0u);
  EXPECT_GT(engine.stats().interest_evicted - evicted_before, publishes / 2);
  const double per_publish =
      static_cast<double>(allocs) / static_cast<double>(publishes);
  EXPECT_LE(per_publish, kCeiling)
      << allocs << " allocations across " << publishes << " publishes";
#endif
}

// --- determinism differential ---------------------------------------------

TEST(DeterminismTest, IdenticalSeedsProduceIdenticalDeliverySequences) {
  auto run_once = [] {
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffULL;
        h *= 1099511628211ULL;
      }
    };
    sim::Simulator sim{11};
    net::Network net{sim};
    struct Sink : net::Endpoint {
      std::function<void(const net::Message&)> fn;
      void on_message(const net::Message& m) override { fn(m); }
    };
    Sink sinks[4];
    for (std::uint32_t i = 0; i < 4; ++i) {
      sinks[i].fn = [&mix, &sim](const net::Message& m) {
        mix(static_cast<std::uint64_t>(sim.now()));
        mix(m.id);
        mix(util::fnv1a32(m.payload));
      };
      net.attach({i + 1, 5}, sinks[i]);
    }
    net.set_default_link({.latency = sim::msec(2), .jitter = sim::usec(500),
                          .bandwidth_bps = 10e6, .loss = 0.05});
    for (int round = 0; round < 50; ++round) {
      sim.schedule_at(sim::usec(137) * round, [&net, round] {
        for (std::uint32_t s = 0; s < 4; ++s) {
          net.send({.src = {s + 1, 5},
                    .dst = {((s + 1) % 4) + 1, 5},
                    .payload = "round/" + std::to_string(round)});
        }
      });
    }
    sim.run();
    mix(sim.events_processed());
    return h;
  };
  const std::uint64_t first = run_once();
  const std::uint64_t second = run_once();
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace coop
