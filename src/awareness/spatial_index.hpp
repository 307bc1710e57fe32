// Uniform-grid spatial index over participants of the awareness space.
//
// The spatial model (Benford & Fahlén) was designed for "cooperation in
// large unbounded space"; at the ROADMAP's target scale a brute-force
// all-pairs walk per published event is O(N²) per broadcast-heavy
// session.  This index hashes participants into square cells; when the
// cell side is at least twice a query's radius (SpatialModel keeps it at
// twice the largest aura), the exact superset of participants within
// that radius lives in at most the 2x2 block of cells around the query
// point.
//
// The index is also the participant store: one id -> record map holds
// each participant's position, both aura radii and its cell slot, and
// each cell entry carries a copy of the position and focus radius, so a
// query computes every hit's spatial weight from the cell it scans.
//
// Determinism contract: query() appends matches in unspecified order
// (cells are hashed, in-cell order depends on move history); callers that
// need run-to-run stable iteration sort the result.  The index itself is
// exact — a participant is returned iff its distance from the centre is
// <= radius — so an engine that sorts the candidates by id visits the
// same observers in the same order a brute-force scan would, minus the
// guaranteed-zero-weight ones.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "ccontrol/locks.hpp"  // ClientId

namespace coop::awareness {

using ClientId = ccontrol::ClientId;

/// Position in the abstract cooperation space.
struct Point {
  double x = 0;
  double y = 0;
};

/// Straight-line distance.
[[nodiscard]] inline double distance(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

/// Linear aura falloff: 1 at the centre, 0 at and beyond @p radius, and
/// 0 everywhere for a radius <= 0.
[[nodiscard]] inline double falloff(double dist, double radius) {
  if (radius <= 0.0) return 0.0;
  return std::max(0.0, 1.0 - dist / radius);
}

/// Where a participant stands and how far its two auras reach.
struct Participant {
  Point position;
  double focus_radius = 10.0;
  double nimbus_radius = 10.0;
};

/// One participant found by a query, with its spatial awareness of the
/// query's actor.
struct Candidate {
  ClientId id;
  double weight;
};

/// Fixed-cell spatial hash.  Cell size only affects cost, never results;
/// set_cell_size() rebuilds in O(N) when the owning model learns of a
/// larger aura radius.
class UniformGridIndex {
 public:
  static constexpr double kMinCellSize = 1.0;

  explicit UniformGridIndex(double cell_size = 16.0)
      : cell_(cell_size > kMinCellSize ? cell_size : kMinCellSize) {}

  [[nodiscard]] double cell_size() const noexcept { return cell_; }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return cells_.size();
  }

  /// @p id's record, or nullptr if absent.
  [[nodiscard]] const Participant* find(ClientId id) const {
    auto it = records_.find(id);
    return it == records_.end() ? nullptr : &it->second.p;
  }

  /// Inserts @p id with record @p p, or replaces its record.  O(1): a
  /// record knows its slot in its cell, so neither a same-cell update nor
  /// a cell crossing scans a bucket.
  void upsert(ClientId id, const Participant& p) {
    const std::int64_t key = key_of(p.position);
    auto [it, fresh] = records_.try_emplace(id);
    Record& r = it->second;
    if (!fresh && r.key == key) {
      Entry& e = cells_.find(key)->second[r.slot];
      e.at = p.position;
      e.focus = p.focus_radius;
    } else {
      if (!fresh) detach(r);
      r.key = key;
      attach(id, r, p);
    }
    r.p = p;
  }

  void erase(ClientId id) {
    auto it = records_.find(id);
    if (it == records_.end()) return;
    detach(it->second);
    records_.erase(it);
  }

  /// Grows (or shrinks) the cell side and rebuilds.  The caller decides
  /// policy; correctness never depends on the value.
  void set_cell_size(double s) {
    s = s > kMinCellSize ? s : kMinCellSize;
    if (s == cell_) return;
    cell_ = s;
    cells_.clear();
    for (auto& [id, r] : records_) {
      r.key = key_of(r.p.position);
      attach(id, r, r.p);
    }
  }

  /// Appends every participant (except @p exclude) whose distance d from
  /// @p centre is <= @p nimbus, each with the weight
  /// falloff(d, its focus) * falloff(d, nimbus): its spatial awareness of
  /// an actor at @p centre whose nimbus radius is @p nimbus, computed as
  /// SpatialModel::awareness() computes it, bit for bit.  Exact: callers
  /// need no re-check.  A block of cells larger than the number of
  /// occupied cells (a huge radius, or coordinates saturated at the int32
  /// edge) walks the occupied cells instead, so the cost never exceeds
  /// one pass over the index.
  void query(Point centre, double nimbus, ClientId exclude,
             std::vector<Candidate>& out) const {
    if (!(nimbus >= 0)) return;  // negative or NaN reaches nobody
    const std::int64_t cx_lo = cell_coord(centre.x - nimbus);
    const std::int64_t cx_hi = cell_coord(centre.x + nimbus);
    const std::int64_t cy_lo = cell_coord(centre.y - nimbus);
    const std::int64_t cy_hi = cell_coord(centre.y + nimbus);
    const auto width = static_cast<std::uint64_t>(cx_hi - cx_lo + 1);
    const auto height = static_cast<std::uint64_t>(cy_hi - cy_lo + 1);
    const std::uint64_t occupied = cells_.size();
    auto scan = [&](const std::vector<Entry>& bucket) {
      for (const Entry& e : bucket) {
        if (e.id == exclude) continue;
        const double d = distance(e.at, centre);
        if (d <= nimbus)
          out.push_back({e.id, falloff(d, e.focus) * falloff(d, nimbus)});
      }
    };
    if (width > occupied || height > occupied || width * height > occupied) {
      for (const auto& [key, bucket] : cells_) scan(bucket);
      return;
    }
    for (std::int64_t cx = cx_lo; cx <= cx_hi; ++cx) {
      for (std::int64_t cy = cy_lo; cy <= cy_hi; ++cy) {
        auto it = cells_.find(pack(static_cast<std::int32_t>(cx),
                                   static_cast<std::int32_t>(cy)));
        if (it != cells_.end()) scan(it->second);
      }
    }
  }

 private:
  /// A cell's copy of what a query reads.
  struct Entry {
    ClientId id;
    Point at;
    double focus;
  };
  struct Record {
    Participant p;
    std::int64_t key = 0;
    std::uint32_t slot = 0;  ///< index of the entry in cells_[key]
  };

  /// The cell column (or row) of coordinate @p v, saturated into the
  /// int32 range: far-away points share the edge cells, which costs
  /// only scan time since query() filters by distance.  NaN lands in the
  /// lowest cell, where no distance test ever matches it.
  [[nodiscard]] std::int32_t cell_coord(double v) const {
    constexpr double kLo = std::numeric_limits<std::int32_t>::min();
    constexpr double kHi = std::numeric_limits<std::int32_t>::max();
    const double c = std::floor(v / cell_);
    if (!(c > kLo)) return std::numeric_limits<std::int32_t>::min();
    if (c >= kHi) return std::numeric_limits<std::int32_t>::max();
    return static_cast<std::int32_t>(c);
  }

  static std::int64_t pack(std::int32_t cx, std::int32_t cy) {
    return (static_cast<std::int64_t>(static_cast<std::uint32_t>(cx)) << 32) |
           static_cast<std::int64_t>(static_cast<std::uint32_t>(cy));
  }

  [[nodiscard]] std::int64_t key_of(Point p) const {
    return pack(cell_coord(p.x), cell_coord(p.y));
  }

  /// Appends @p id's entry to the cell of @p r.key.
  void attach(ClientId id, Record& r, const Participant& p) {
    std::vector<Entry>& bucket = cells_[r.key];
    r.slot = static_cast<std::uint32_t>(bucket.size());
    bucket.push_back({id, p.position, p.focus_radius});
  }

  /// Swap-removes @p r's entry from its cell; the entry moved into the
  /// hole gets its record's slot fixed.
  void detach(const Record& r) {
    auto cit = cells_.find(r.key);
    std::vector<Entry>& bucket = cit->second;
    if (r.slot + 1 != bucket.size()) {
      bucket[r.slot] = bucket.back();
      records_.find(bucket[r.slot].id)->second.slot = r.slot;
    }
    bucket.pop_back();
    if (bucket.empty()) cells_.erase(cit);
  }

  double cell_;
  std::unordered_map<std::int64_t, std::vector<Entry>> cells_;
  std::unordered_map<ClientId, Record> records_;
};

}  // namespace coop::awareness
