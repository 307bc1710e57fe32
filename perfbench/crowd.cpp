// crowd — awareness at population scale plus the kernel's timer path.
//
// One media space of 32768 participants on an indexed AwarenessEngine
// with spatial auras (constant density, as in E12) and temporal interest.
// Each operation is a spatial move plus a publish.  Focus radii vary per
// participant, so observers are a mix of immediate, digested and
// suppressed; the engine's digest timer flushes the peripheral ones.
// Every action also re-arms the participant's idle timer (cancel +
// schedule), so the kernel's timer path stays hot.  There is no network:
// net, groups, rpc and durable must read flat here.  The spatial model,
// observer table and interest map together are several times a 2 MiB L2.
#include <cmath>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {
namespace {

constexpr awareness::ClientId kParticipants = 32768;
constexpr sim::Duration kActPeriod = sim::sec(32);  ///< mean, per participant
constexpr sim::Duration kIdleAfter = sim::sec(30);
constexpr double kNimbus = 12.0;
constexpr int kObjects = static_cast<int>(kParticipants);
constexpr sim::Duration kDigestPeriod = sim::sec(1);
constexpr sim::Duration kInterestDecay = sim::sec(5);
constexpr double kInterestGcFactor = 5.0;
/// Interest entries live for at most the GC horizon plus one digest
/// period; at the action rate that bounds the map.  The guard allows 50%
/// on top of the expected steady state.
constexpr double kInterestBound =
    1.5 * static_cast<double>(kParticipants) *
    (kInterestGcFactor * static_cast<double>(kInterestDecay) +
     static_cast<double>(kDigestPeriod)) /
    static_cast<double>(kActPeriod);
/// One action timer and at most one idle timer per participant, plus the
/// digest timer.
constexpr std::size_t kPendingBound = 2 * kParticipants + 16;

/// Outcome hash of the count phase for seed 1 (see README.md): a change
/// to what the engine delivers, to whom, when or with which weight moves
/// it.
constexpr std::uint64_t kPinnedSeed = 1;
constexpr std::uint64_t kPinnedHash = 0xea97acf7dad39d02ULL;

class Crowd final : public Workload {
 public:
  explicit Crowd(std::uint64_t seed) : Workload(seed), seed_(seed) {}

  void build() override {
    world_ = 10.0 * std::sqrt(static_cast<double>(kParticipants));
    awareness::EngineConfig cfg;
    cfg.digest_period = kDigestPeriod;
    cfg.interest_decay = kInterestDecay;
    cfg.interest_gc_factor = kInterestGcFactor;
    engine_ = std::make_unique<awareness::AwarenessEngine>(
        platform().simulator(), space_, cfg, &platform().obs());
    people_.resize(kParticipants + 1);
    for (awareness::ClientId id = 1; id <= kParticipants; ++id) {
      space_.place(id, {rng_.uniform(0, world_), rng_.uniform(0, world_)});
      space_.set_focus(id, rng_.uniform(4.0, 16.0));
      space_.set_nimbus(id, kNimbus);
      engine_->subscribe(id, [this, id](const awareness::ActivityEvent& e,
                                        double w, bool via_digest) {
        on_aware(id, e, w, via_digest);
      });
    }
  }

  void start() override {
    issuing_ = true;
    for (awareness::ClientId id = 1; id <= kParticipants; ++id) arm(id);
  }
  void stop() override { issuing_ = false; }

  [[nodiscard]] sim::Duration window() const override {
    return sim::msec(100);
  }
  [[nodiscard]] sim::Duration warmup() const override { return sim::sec(30); }
  [[nodiscard]] sim::Duration drain() const override { return sim::sec(3); }
  [[nodiscard]] int windows() const override { return 200; }
  [[nodiscard]] int rounds() const override { return 21; }

  void counts(Counts& c) const override {
    c.aware_deliveries = deliveries_;
    c.aware_digested = engine_->stats().digested;
    c.aware_suppressed = engine_->stats().suppressed;
  }

  [[nodiscard]] std::uint64_t outcome_hash() const override {
    std::uint64_t h = hash_;
    fnv_mix(h, deliveries_);
    fnv_mix(h, idles_);
    return h;
  }

  void guard(Verdict& v) const override {
    v.require(static_cast<double>(engine_->interest_table_size()) <=
                  kInterestBound,
              "crowd: awareness interest map grew past the bound");
    v.require(platform_->simulator().pending() <= kPendingBound,
              "crowd: kernel pending events grew past the bound");
  }

  void check(Verdict& v) override {
    const auto& st = engine_->stats();
    v.require(st.immediate + st.digested == deliveries_,
              "crowd: engine delivery counts disagree with callbacks");
    const double useful =
        static_cast<double>(deliveries_) /
        static_cast<double>(deliveries_ + st.suppressed);
    v.require(useful > 0.0 && useful <= 1.0,
              "crowd: useful ratio outside (0, 1]");
    v.require(bad_deliveries_ == 0,
              "crowd: a delivery broke the weight/path contract");
    v.require(platform().network().stats().sent == 0,
              "crowd: the network carried traffic");
  }

  void check_pinned(Verdict& v, std::uint64_t count_hash) const override {
    if (seed_ == kPinnedSeed)
      v.require(count_hash == kPinnedHash,
                "crowd: delivery hash differs from the value pinned for "
                "seed 1");
  }

 private:
  struct Person {
    sim::EventId idle = sim::kInvalidEvent;
  };

  void arm(awareness::ClientId id) {
    const auto gap = static_cast<sim::Duration>(
        rng_.exponential(static_cast<double>(kActPeriod)));
    platform().simulator().schedule_after(std::max<sim::Duration>(gap, 1),
                                          [this, id] { act(id); });
  }

  void act(awareness::ClientId id) {
    if (!issuing_) return;
    Span tick(SpanKind::kTick);
    ++ops_;
    sim::Simulator& sim = platform().simulator();
    Person& p = people_[id];
    sim.cancel(p.idle);
    p.idle = sim.schedule_after(kIdleAfter, [this, id] {
      Span t(SpanKind::kTick);
      people_[id].idle = sim::kInvalidEvent;
      ++idles_;
      fnv_mix(hash_, id);
    });
    const auto at = space_.position(id);
    const awareness::Point to{
        std::clamp(at->x + rng_.uniform(-5, 5), 0.0, world_),
        std::clamp(at->y + rng_.uniform(-5, 5), 0.0, world_)};
    {
      Span s(SpanKind::kMove);
      space_.place(id, to);
    }
    current_op_ = ops_;
    std::string object =
        "obj/" + std::to_string(rng_.uniform_int(0, kObjects - 1));
    Span s(SpanKind::kPublish);
    engine_->publish({id, std::move(object), "edit", sim.now()});
    arm(id);
  }

  void on_aware(awareness::ClientId observer,
                const awareness::ActivityEvent& e, double w, bool via_digest) {
    Span cb(SpanKind::kOnAware);
    const sim::TimePoint now = platform().simulator().now();
    ++deliveries_;
    // The delivery contract: never to the actor, weight in (0, 1], and
    // immediate exactly when the weight reaches the full threshold.
    const bool immediate_ok = via_digest ? w < 0.4 : w >= 0.4;
    if (observer == e.actor || !(w > 0.0 && w <= 1.0) || !immediate_ok) {
      ++bad_deliveries_;
      // An immediate delivery happens inside its op's publish; count the
      // op once however many of its deliveries break the contract.
      if (!via_digest && current_op_ > timed_from_ &&
          current_op_ != last_failed_op_) {
        ++failed_;
        last_failed_op_ = current_op_;
      }
    }
    fnv_mix(hash_, observer);
    fnv_mix(hash_, static_cast<std::uint64_t>(now));
    fnv_mix(hash_, e.actor);
    fnv_mix(hash_, e.object);
    fnv_mix(hash_, double_bits(w));
    fnv_mix(hash_, via_digest ? 1 : 0);
    g_vs.add(VKind::kAwarenessNotify, now - e.at);
  }

  std::uint64_t seed_;
  double world_ = 0;
  awareness::SpatialModel space_;
  std::unique_ptr<awareness::AwarenessEngine> engine_;
  std::vector<Person> people_;
  std::uint64_t current_op_ = 0;
  std::uint64_t last_failed_op_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t bad_deliveries_ = 0;
  std::uint64_t idles_ = 0;
  std::uint64_t hash_ = kFnvOffset;
};

}  // namespace

std::unique_ptr<Workload> make_crowd(std::uint64_t seed) {
  return std::make_unique<Crowd>(seed);
}

}  // namespace perfbench
