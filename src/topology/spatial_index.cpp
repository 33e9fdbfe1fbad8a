#include "topology/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lw::topo {

SpatialIndex::SpatialIndex(const std::vector<Position>& positions,
                           double cell_size)
    : cell_size_(cell_size) {
  if (cell_size <= 0.0) {
    throw std::invalid_argument("cell size must be positive");
  }
  inv_cell_ = 1.0 / cell_size;

  double max_x = 0.0;
  double max_y = 0.0;
  if (!positions.empty()) {
    min_x_ = max_x = positions.front().x;
    min_y_ = max_y = positions.front().y;
    for (const Position& p : positions) {
      min_x_ = std::min(min_x_, p.x);
      max_x = std::max(max_x, p.x);
      min_y_ = std::min(min_y_, p.y);
      max_y = std::max(max_y, p.y);
    }
  }
  columns_ = static_cast<std::size_t>((max_x - min_x_) * inv_cell_) + 1;
  rows_ = static_cast<std::size_t>((max_y - min_y_) * inv_cell_) + 1;

  // Counting sort by cell; iterating ids in ascending order keeps each
  // cell's slice ascending, which query() relies on.
  cell_start_.assign(columns_ * rows_ + 1, 0);
  for (const Position& p : positions) {
    ++cell_start_[row_of(p.y) * columns_ + column_of(p.x) + 1];
  }
  for (std::size_t c = 1; c < cell_start_.size(); ++c) {
    cell_start_[c] += cell_start_[c - 1];
  }
  ids_.resize(positions.size());
  std::vector<std::uint32_t> cursor(cell_start_.begin(),
                                    cell_start_.end() - 1);
  for (NodeId id = 0; id < positions.size(); ++id) {
    const Position& p = positions[id];
    ids_[cursor[row_of(p.y) * columns_ + column_of(p.x)]++] = id;
  }
}

void SpatialIndex::query(const Position& center, double radius,
                         std::vector<NodeId>& out) const {
  out.clear();
  for_each_row_span(center, radius, [&out](std::span<const NodeId> row) {
    out.insert(out.end(), row.begin(), row.end());
  });
  // Rows are visited in order but ascending only within each cell; one
  // sort restores the global ascending-id contract.
  std::sort(out.begin(), out.end());
}

}  // namespace lw::topo
