// Uniform-grid spatial index over participants of the awareness space.
//
// The spatial model (Benford & Fahlén) was designed for "cooperation in
// large unbounded space"; at the ROADMAP's target scale a brute-force
// all-pairs walk per published event is O(N²) per broadcast-heavy
// session.  This index hashes participants into square cells whose side
// is at least the largest aura radius in the space, so the exact superset
// of participants within any query radius <= cell size lives in at most
// the 3x3 block of cells around the query point.
//
// Determinism contract: query() appends matches in unspecified order
// (cells are hashed, in-cell order depends on move history); callers that
// need run-to-run stable iteration sort the result.  The index itself is
// exact — a participant is returned iff its distance from the centre is
// <= radius — so an engine that sorts the candidate ids visits the same
// observers in the same order a brute-force scan would, minus the
// guaranteed-zero-weight ones.
#pragma once

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

/// Fixed-cell spatial hash.  Cell size only affects cost, never results;
/// set_cell_size() rebuilds in O(N) when the owning model learns of a
/// larger aura radius.
class UniformGridIndex {
 public:
  static constexpr double kMinCellSize = 1.0;

  explicit UniformGridIndex(double cell_size = 16.0)
      : cell_(cell_size > kMinCellSize ? cell_size : kMinCellSize) {}

  [[nodiscard]] double cell_size() const noexcept { return cell_; }
  [[nodiscard]] std::size_t size() const noexcept { return where_.size(); }
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return cells_.size();
  }

  /// Inserts @p id at @p p, or moves it if already present.  Moves within
  /// one cell are O(1); cell crossings are O(occupancy of the old cell).
  void upsert(ClientId id, Point p) {
    const std::int64_t key = key_of(p);
    auto it = where_.find(id);
    if (it == where_.end()) {
      where_.emplace(id, Slot{key, p});
      cells_[key].push_back({id, p});
      return;
    }
    if (it->second.key == key) {
      it->second.at = p;
      for (Entry& e : cells_[key])
        if (e.id == id) {
          e.at = p;
          return;
        }
      return;  // unreachable if invariants hold
    }
    detach(id, it->second.key);
    it->second = Slot{key, p};
    cells_[key].push_back({id, p});
  }

  void erase(ClientId id) {
    auto it = where_.find(id);
    if (it == where_.end()) return;
    detach(id, it->second.key);
    where_.erase(it);
  }

  /// Grows (or shrinks) the cell side and rebuilds.  The caller decides
  /// policy; correctness never depends on the value.
  void set_cell_size(double s) {
    s = s > kMinCellSize ? s : kMinCellSize;
    if (s == cell_) return;
    cell_ = s;
    cells_.clear();
    for (auto& [id, slot] : where_) {
      slot.key = key_of(slot.at);
      cells_[slot.key].push_back({id, slot.at});
    }
  }

  /// Appends every participant (except @p exclude) whose distance from
  /// @p centre is <= @p radius.  Exact: callers need no re-check.  A block
  /// of cells larger than the number of occupied cells (a huge radius, or
  /// coordinates saturated at the int32 edge) walks the occupied cells
  /// instead, so the cost never exceeds one pass over the index.
  void query(Point centre, double radius, ClientId exclude,
             std::vector<ClientId>& out) const {
    if (!(radius >= 0)) return;  // negative or NaN reaches nobody
    const std::int64_t cx_lo = cell_coord(centre.x - radius);
    const std::int64_t cx_hi = cell_coord(centre.x + radius);
    const std::int64_t cy_lo = cell_coord(centre.y - radius);
    const std::int64_t cy_hi = cell_coord(centre.y + radius);
    const auto width = static_cast<std::uint64_t>(cx_hi - cx_lo + 1);
    const auto height = static_cast<std::uint64_t>(cy_hi - cy_lo + 1);
    const std::uint64_t occupied = cells_.size();
    auto scan = [&](const std::vector<Entry>& bucket) {
      for (const Entry& e : bucket) {
        if (e.id == exclude) continue;
        if (distance(e.at, centre) <= radius) out.push_back(e.id);
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
  struct Entry {
    ClientId id;
    Point at;
  };
  struct Slot {
    std::int64_t key;
    Point at;
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

  void detach(ClientId id, std::int64_t key) {
    auto cit = cells_.find(key);
    if (cit == cells_.end()) return;
    auto& bucket = cit->second;
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      if (bucket[i].id == id) {
        bucket[i] = bucket.back();
        bucket.pop_back();
        break;
      }
    }
    if (bucket.empty()) cells_.erase(cit);
  }

  double cell_;
  std::unordered_map<std::int64_t, std::vector<Entry>> cells_;
  std::unordered_map<ClientId, Slot> where_;
};

}  // namespace coop::awareness
