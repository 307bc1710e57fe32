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
// The index is also the participant store: one dense vector of records
// holds each participant's position, both aura radii, its cell and its
// slot there, and each cell entry carries a copy of the position and
// focus radius, so a query computes every hit's spatial weight from the
// cell it scans.  Records and cell buckets each sit in one dense vector
// found through an open-addressing table (util/flat_index.hpp): by id,
// and by packed cell coordinates.  Erasing a record, an entry or an
// emptied bucket swaps the last one into the hole, so the tables hold
// only live participants and occupied cells.
//
// Determinism contract: query() appends matches in unspecified order
// (bucket and in-cell order depend on move history); callers that need
// run-to-run stable iteration sort the result.  The index itself is
// exact — a participant is returned iff its distance from the centre is
// <= radius — so an engine that sorts the candidates by id visits the
// same observers in the same order a brute-force scan would, minus the
// guaranteed-zero-weight ones.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "ccontrol/locks.hpp"  // ClientId
#include "util/flat_index.hpp"

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

  /// @p id's record, or nullptr if absent.  Valid until the next
  /// upsert() or erase().
  [[nodiscard]] const Participant* find(ClientId id) const {
    const std::uint32_t at = record_index_.find(id);
    return at == RecordIndex::kNone ? nullptr : &records_[at].p;
  }

  /// Inserts @p id with record @p p, or replaces its record.  O(1): a
  /// record knows its slot in its cell, so neither a same-cell update nor
  /// a cell crossing scans a bucket.
  void upsert(ClientId id, const Participant& p) {
    const std::uint64_t key = key_of(p.position);
    const std::uint32_t at = record_index_.find(id);
    if (at == RecordIndex::kNone) {
      record_index_.insert(id, static_cast<std::uint32_t>(records_.size()));
      attach(records_.emplace_back(Record{.id = id, .p = p, .key = key}));
      return;
    }
    Record& r = records_[at];
    r.p = p;
    if (r.key == key) {
      Entry& e = cells_[cell_index_.find(key)].entries[r.slot];
      e.at = p.position;
      e.focus = p.focus_radius;
    } else {
      detach(r);
      r.key = key;
      attach(r);
    }
  }

  void erase(ClientId id) {
    const std::uint32_t at = record_index_.find(id);
    if (at == RecordIndex::kNone) return;
    detach(records_[at]);
    if (at + 1 != records_.size()) {
      records_[at] = records_.back();
      record_index_.reassign(records_[at].id, at);
    }
    records_.pop_back();
    record_index_.erase(id);
  }

  /// Grows (or shrinks) the cell side and rebuilds.  The caller decides
  /// policy; correctness never depends on the value.
  void set_cell_size(double s) {
    s = s > kMinCellSize ? s : kMinCellSize;
    if (s == cell_) return;
    cell_ = s;
    cells_.clear();
    cell_index_ = {};
    for (Record& r : records_) {
      r.key = key_of(r.p.position);
      attach(r);
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
    auto scan = [&](const Cell& cell) {
      for (const Entry& e : cell.entries) {
        if (e.id == exclude) continue;
        const double d = distance(e.at, centre);
        if (d <= nimbus)
          out.push_back({e.id, falloff(d, e.focus) * falloff(d, nimbus)});
      }
    };
    if (width > occupied || height > occupied || width * height > occupied) {
      for (const Cell& cell : cells_) scan(cell);
      return;
    }
    for (std::int64_t cx = cx_lo; cx <= cx_hi; ++cx) {
      for (std::int64_t cy = cy_lo; cy <= cy_hi; ++cy) {
        const std::uint32_t c = cell_index_.find(
            pack(static_cast<std::int32_t>(cx), static_cast<std::int32_t>(cy)));
        if (c != CellIndex::kNone) scan(cells_[c]);
      }
    }
  }

 private:
  using RecordIndex = util::FlatIndex<ClientId>;
  using CellIndex = util::FlatIndex<std::uint64_t>;

  /// A cell's copy of what a query reads.
  struct Entry {
    ClientId id;
    Point at;
    double focus;
  };
  /// One occupied cell: its packed coordinates and its participants.
  struct Cell {
    std::uint64_t key;
    std::vector<Entry> entries;
  };
  struct Record {
    ClientId id;
    std::uint32_t slot = 0;  ///< index of the entry in its cell
    Participant p;
    std::uint64_t key = 0;  ///< the cell's packed coordinates
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

  static std::uint64_t pack(std::int32_t cx, std::int32_t cy) {
    return (std::uint64_t{static_cast<std::uint32_t>(cx)} << 32) |
           static_cast<std::uint32_t>(cy);
  }

  [[nodiscard]] std::uint64_t key_of(Point p) const {
    return pack(cell_coord(p.x), cell_coord(p.y));
  }

  /// Appends @p r's entry to the cell of @p r.key, opening it if empty.
  void attach(Record& r) {
    std::uint32_t c = cell_index_.find(r.key);
    if (c == CellIndex::kNone) {
      c = static_cast<std::uint32_t>(cells_.size());
      cell_index_.insert(r.key, c);
      cells_.push_back(Cell{.key = r.key, .entries = {}});
    }
    std::vector<Entry>& entries = cells_[c].entries;
    r.slot = static_cast<std::uint32_t>(entries.size());
    entries.push_back({r.id, r.p.position, r.p.focus_radius});
  }

  /// Swap-removes @p r's entry from its cell; the entry moved into the
  /// hole gets its record's slot fixed.  An emptied cell is swap-removed
  /// the same way.
  void detach(const Record& r) {
    const std::uint32_t c = cell_index_.find(r.key);
    std::vector<Entry>& entries = cells_[c].entries;
    if (r.slot + 1 != entries.size()) {
      entries[r.slot] = entries.back();
      records_[record_index_.find(entries[r.slot].id)].slot = r.slot;
    }
    entries.pop_back();
    if (!entries.empty()) return;
    if (c + 1 != cells_.size()) {
      std::swap(cells_[c], cells_.back());
      cell_index_.reassign(cells_[c].key, c);
    }
    cells_.pop_back();
    cell_index_.erase(r.key);
  }

  double cell_;
  /// Occupied cells, densely; cell_index_ maps packed coordinates here.
  std::vector<Cell> cells_;
  CellIndex cell_index_;
  /// Every participant, densely; record_index_ maps ids here.
  std::vector<Record> records_;
  RecordIndex record_index_;
};

}  // namespace coop::awareness
