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
// Participants live in a UniformGridIndex (spatial_index.hpp), which is
// both the participant store and the spatial index, so engines can ask
// for the *candidate set* of an actor — everyone inside the actor's
// nimbus, the exact superset of observers with non-zero spatial
// awareness of the actor, each with that awareness — without walking
// the whole space.  The grid's cell side stays at least twice the
// largest aura radius seen (growth rebuilds in O(N); shrinking radii
// keep the larger cells, which stays correct and avoids rebuild
// thrash), so a candidate query reads at most 2x2 cells.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
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
  // Non-finite input is rejected: a NaN or infinite position or radius
  // leaves the model unchanged and the call returns false.  Such a value
  // has no meaningful distance to anyone, and one infinite radius would
  // grow the grid's cells without bound.  A negative radius is clamped
  // to 0 (the aura reaches nobody).  A participant first named by
  // set_focus or set_nimbus stands at the origin.

  /// Adds or moves a participant.
  bool place(ClientId who, Point where) {
    if (!std::isfinite(where.x) || !std::isfinite(where.y)) return false;
    Participant p = record(who);
    p.position = where;
    store(who, p);
    return true;
  }

  /// Sets how far @p who's attention reaches.
  bool set_focus(ClientId who, double radius) {
    if (!std::isfinite(radius)) return false;
    Participant p = record(who);
    p.focus_radius = std::max(0.0, radius);
    store(who, p);
    return true;
  }

  /// Sets how far @p who's activity projects.
  bool set_nimbus(ClientId who, double radius) {
    if (!std::isfinite(radius)) return false;
    Participant p = record(who);
    p.nimbus_radius = std::max(0.0, radius);
    store(who, p);
    return true;
  }

  void remove(ClientId who) { grid_.erase(who); }

  [[nodiscard]] std::optional<Point> position(ClientId who) const {
    const Participant* p = grid_.find(who);
    if (p == nullptr) return std::nullopt;
    return p->position;
  }

  /// Awareness of @p observer about @p observed in [0,1]: the product of
  /// the observer's focus evaluated at the observed's position and the
  /// observed's nimbus evaluated at the observer's position, each with
  /// linear falloff.  Unknown participants yield 0.
  [[nodiscard]] double awareness(ClientId observer, ClientId observed) const {
    if (observer == observed) return 1.0;
    const Participant* a = grid_.find(observer);
    const Participant* b = grid_.find(observed);
    if (a == nullptr || b == nullptr) return 0.0;
    const double d = distance(a->position, b->position);
    const double focus = falloff(d, a->focus_radius);
    const double nimbus = falloff(d, b->nimbus_radius);
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

  /// Appends, in ascending id order, every participant x within @p actor's
  /// nimbus radius with its weight awareness(x, actor), bit for bit.
  /// awareness(x, actor) > 0 requires distance(x, actor) < that radius,
  /// so everyone left out has spatial weight 0; someone exactly on the
  /// radius is included with weight 0.  Unknown actors yield nothing
  /// (their nimbus reaches nobody).
  void spatial_candidates(ClientId actor, std::vector<Candidate>& out) const {
    const Participant* a = grid_.find(actor);
    if (a == nullptr) return;
    const std::size_t base = out.size();
    grid_.query(a->position, a->nimbus_radius, actor, out);
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(base), out.end(),
              [](const Candidate& x, const Candidate& y) {
                return x.id < y.id;
              });
  }

  [[nodiscard]] std::size_t participant_count() const noexcept {
    return grid_.size();
  }

  /// The backing index (tests and gauges).
  [[nodiscard]] const UniformGridIndex& grid() const noexcept { return grid_; }

 private:
  /// @p who's record, or a fresh default one.
  [[nodiscard]] Participant record(ClientId who) const {
    const Participant* p = grid_.find(who);
    return p != nullptr ? *p : Participant{};
  }

  void store(ClientId who, const Participant& p) {
    grow_cells(std::max(p.focus_radius, p.nimbus_radius));
    grid_.upsert(who, p);
  }

  /// Cell size must stay >= twice the largest aura radius, so any query
  /// of a radius r no larger spans 2r <= one cell side per axis: at most
  /// a 2x2 cell block.  Doubling amortizes rebuilds when a session keeps
  /// nudging radii upward.
  void grow_cells(double radius) {
    const double need = 2 * radius;
    if (need <= grid_.cell_size()) return;
    double next = grid_.cell_size();
    while (next < need) next *= 2;
    grid_.set_cell_size(next);
  }

  UniformGridIndex grid_;
};

}  // namespace coop::awareness
