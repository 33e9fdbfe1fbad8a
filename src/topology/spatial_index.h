// Uniform-cell spatial index over node positions.
//
// Built once per deployment, it answers "which nodes could lie within
// radius r of this point?" in time proportional to the local population
// instead of the network size. DiscGraph builds its adjacency by walking
// the cells' row spans instead of the O(N^2) all-pairs pass; the PHY medium
// queries it only for frames whose disc is wider than the radio range (the
// high-power attacker), where the adjacency does not reach.
//
// Queries return a *superset* restricted to the grid cells that intersect
// the disc; callers must still filter by exact distance. Candidates are
// produced in ascending NodeId order, so id-ordered iteration over them
// visits receivers exactly as the historical all-N scan did — this is what
// keeps event schedules (and hence golden traces) byte-identical.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "topology/field.h"
#include "util/ids.h"

namespace lw::topo {

class SpatialIndex {
 public:
  /// Builds the grid over `positions` with square cells of `cell_size`
  /// meters (normally the radio range, making a range-sized disc touch at
  /// most 3x3 cells). cell_size must be positive.
  SpatialIndex(const std::vector<Position>& positions, double cell_size);

  /// Replaces `out` with every node whose cell intersects the closed disc
  /// (center, radius), in ascending NodeId order. The caller filters by
  /// exact distance; `out` is a reusable buffer to keep queries
  /// allocation-free at steady state.
  void query(const Position& center, double radius,
             std::vector<NodeId>& out) const;

  /// The same candidate set as query(), unsorted: calls visit(span) once
  /// per grid row the disc's bounding box touches, with that row's cells
  /// as one contiguous slice (ascending ids within each cell only).
  template <typename Visit>
  void for_each_row_span(const Position& center, double radius,
                         Visit&& visit) const {
    if (ids_.empty()) return;
    const std::size_t col_lo = column_of(center.x - radius);
    const std::size_t col_hi = column_of(center.x + radius);
    const std::size_t row_lo = row_of(center.y - radius);
    const std::size_t row_hi = row_of(center.y + radius);
    for (std::size_t row = row_lo; row <= row_hi; ++row) {
      const std::size_t first = cell_start_[row * columns_ + col_lo];
      const std::size_t last = cell_start_[row * columns_ + col_hi + 1];
      visit(std::span<const NodeId>(ids_.data() + first, last - first));
    }
  }

  double cell_size() const { return cell_size_; }

 private:
  std::size_t column_of(double x) const {
    return clamp_cell((x - min_x_) * inv_cell_, columns_);
  }
  std::size_t row_of(double y) const {
    return clamp_cell((y - min_y_) * inv_cell_, rows_);
  }
  static std::size_t clamp_cell(double offset, std::size_t cells) {
    if (offset <= 0.0) return 0;
    return std::min(static_cast<std::size_t>(offset), cells - 1);
  }

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
