// The spatial model of interaction (Benford & Fahlén, DIVE) — §3.3.2's
// "spatial model for cooperation in large unbounded space" and the basis
// of §4.2.1's awareness weightings.
//
// Each participant occupies a position in an abstract space and projects
// two auras: a *focus* (where their attention is directed) and a *nimbus*
// (where their activity is observable).  The awareness of observer A about
// observed B combines A's focus at B's position with B's nimbus at A's
// position — so both parties shape how aware one is of the other.  The
// space is an abstraction: coordinates can be a virtual room, a document's
// section layout, or a media-space floor plan.
//
// Participants are mirrored into a UniformGridIndex (spatial_index.hpp),
// updated incrementally on place/set_focus/set_nimbus/remove, so engines
// can ask for the *candidate set* of an actor — everyone inside the
// actor's nimbus, the exact superset of observers with non-zero spatial
// awareness of the actor — without walking the whole space.  The grid's
// cell size tracks the largest aura radius seen (growth rebuilds in
// O(N); shrinking radii keep the larger cells, which stays correct and
// avoids rebuild thrash).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "awareness/spatial_index.hpp"

namespace coop::awareness {

/// Quantized awareness bands used by delivery policies.
enum class AwarenessLevel : std::uint8_t {
  kNone,        ///< no mutual aura overlap: silence
  kPeripheral,  ///< weak overlap: digested/throttled updates
  kFull,        ///< strong overlap: immediate updates
};

/// The space and everyone's auras.
class SpatialModel {
 public:
  struct Participant {
    Point position;
    double focus_radius = 10.0;
    double nimbus_radius = 10.0;
  };

  // Non-finite input is rejected: a NaN or infinite position or radius
  // leaves the model unchanged and the call returns false.  Such a value
  // has no meaningful distance to anyone, and one infinite radius would
  // grow the grid's cells without bound.  A negative radius is clamped
  // to 0 (the aura reaches nobody).

  /// Adds or moves a participant.
  bool place(ClientId who, Point where) {
    if (!std::isfinite(where.x) || !std::isfinite(where.y)) return false;
    participants_[who].position = where;
    grid_.upsert(who, where);
    return true;
  }

  /// Sets how far @p who's attention reaches.
  bool set_focus(ClientId who, double radius) {
    if (!std::isfinite(radius)) return false;
    Participant& p = participants_[who];
    p.focus_radius = std::max(0.0, radius);
    grid_.upsert(who, p.position);  // may be a fresh default-placed entry
    grow_cells(p.focus_radius);
    return true;
  }

  /// Sets how far @p who's activity projects.
  bool set_nimbus(ClientId who, double radius) {
    if (!std::isfinite(radius)) return false;
    Participant& p = participants_[who];
    p.nimbus_radius = std::max(0.0, radius);
    grid_.upsert(who, p.position);
    grow_cells(p.nimbus_radius);
    return true;
  }

  void remove(ClientId who) {
    participants_.erase(who);
    grid_.erase(who);
  }

  [[nodiscard]] std::optional<Point> position(ClientId who) const {
    auto it = participants_.find(who);
    if (it == participants_.end()) return std::nullopt;
    return it->second.position;
  }

  /// Awareness of @p observer about @p observed in [0,1]: the product of
  /// the observer's focus evaluated at the observed's position and the
  /// observed's nimbus evaluated at the observer's position, each with
  /// linear falloff.  Unknown participants yield 0.
  [[nodiscard]] double awareness(ClientId observer, ClientId observed) const {
    if (observer == observed) return 1.0;
    auto a = participants_.find(observer);
    auto b = participants_.find(observed);
    if (a == participants_.end() || b == participants_.end()) return 0.0;
    const double d = distance(a->second.position, b->second.position);
    const double focus = falloff(d, a->second.focus_radius);
    const double nimbus = falloff(d, b->second.nimbus_radius);
    return focus * nimbus;
  }

  /// Quantizes awareness into delivery bands.
  [[nodiscard]] AwarenessLevel level(ClientId observer,
                                     ClientId observed,
                                     double full_threshold = 0.4) const {
    const double a = awareness(observer, observed);
    if (a >= full_threshold) return AwarenessLevel::kFull;
    if (a > 0.0) return AwarenessLevel::kPeripheral;
    return AwarenessLevel::kNone;
  }

  /// Appends, in ascending id order, every participant who could have
  /// non-zero spatial awareness of @p actor: awareness(x, actor) > 0
  /// requires distance(x, actor) < actor's nimbus radius, so the grid
  /// query over that radius is an exact superset.  Unknown actors yield
  /// nothing (their nimbus reaches nobody).
  void spatial_candidates(ClientId actor, std::vector<ClientId>& out) const {
    auto it = participants_.find(actor);
    if (it == participants_.end()) return;
    const std::size_t base = out.size();
    grid_.query(it->second.position, it->second.nimbus_radius, actor, out);
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(base), out.end());
  }

  [[nodiscard]] std::size_t participant_count() const noexcept {
    return participants_.size();
  }

  /// The backing index (tests and gauges).
  [[nodiscard]] const UniformGridIndex& grid() const noexcept { return grid_; }

 private:
  static double falloff(double dist, double radius) {
    if (radius <= 0.0) return 0.0;
    return std::max(0.0, 1.0 - dist / radius);
  }

  /// Cell size must stay >= the largest aura radius so any nimbus query
  /// touches at most a 3x3 cell block.  Doubling amortizes rebuilds when
  /// a session keeps nudging radii upward.
  void grow_cells(double radius) {
    if (radius <= grid_.cell_size()) return;
    double next = grid_.cell_size();
    while (next < radius) next *= 2;
    grid_.set_cell_size(next);
  }

  std::unordered_map<ClientId, Participant> participants_;
  UniformGridIndex grid_;
};

}  // namespace coop::awareness
