// Uniform-cell spatial index over node positions.
//
// Built once per deployment, it answers "which nodes could lie within
// radius r of this point?" in time proportional to the local population
// instead of the network size. The PHY medium uses it to deliver frames to
// actual receivers rather than scanning all N radios per transmission, and
// DiscGraph builds its adjacency through it instead of the O(N^2)
// all-pairs pass.
//
// Queries return a *superset* restricted to the grid cells that intersect
// the disc; callers must still filter by exact distance. Candidates are
// produced in ascending NodeId order, so id-ordered iteration over them
// visits receivers exactly as the historical all-N scan did — this is what
// keeps event schedules (and hence golden traces) byte-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "topology/field.h"
#include "util/ids.h"

namespace lw::topo {

class SpatialIndex {
 public:
  /// Builds the grid over `positions` with square cells of `cell_size`
  /// meters (normally the radio range, making the common query touch at
  /// most 3x3 cells). cell_size must be positive.
  SpatialIndex(const std::vector<Position>& positions, double cell_size);

  /// Replaces `out` with every node whose cell intersects the closed disc
  /// (center, radius), in ascending NodeId order. The caller filters by
  /// exact distance; `out` is a reusable buffer to keep queries
  /// allocation-free at steady state.
  void query(const Position& center, double radius,
             std::vector<NodeId>& out) const;

  double cell_size() const { return cell_size_; }

 private:
  std::size_t column_of(double x) const;
  std::size_t row_of(double y) const;

  double cell_size_ = 0.0;
  double inv_cell_ = 0.0;
  double min_x_ = 0.0;
  double min_y_ = 0.0;
  std::size_t columns_ = 1;
  std::size_t rows_ = 1;
  /// CSR layout: node ids grouped by cell (row-major), ascending id inside
  /// each cell; cell_start_[c]..cell_start_[c+1] delimits cell c.
  std::vector<std::uint32_t> cell_start_;
  std::vector<NodeId> ids_;
};

}  // namespace lw::topo
