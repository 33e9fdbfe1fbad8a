// Field placement and unit-disc graph properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "topology/disc_graph.h"
#include "topology/field.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace lw::topo {
namespace {

TEST(Field, SideForDensityMatchesFormula) {
  // N_B = pi r^2 N / side^2  =>  side = r sqrt(pi N / N_B).
  double side = field_side_for_density(100, 30.0, 8.0);
  EXPECT_NEAR(side, 30.0 * std::sqrt(kPi * 100 / 8.0), 1e-9);
  // Re-derive the target density from the side.
  double density = 100.0 / (side * side);
  EXPECT_NEAR(kPi * 30.0 * 30.0 * density, 8.0, 1e-9);
}

TEST(Field, SideScalesWithSqrtN) {
  double s20 = field_side_for_density(20, 30.0, 8.0);
  double s80 = field_side_for_density(80, 30.0, 8.0);
  EXPECT_NEAR(s80 / s20, 2.0, 1e-9);
}

TEST(Field, InvalidArgumentsThrow) {
  EXPECT_THROW(field_side_for_density(0, 30.0, 8.0), std::invalid_argument);
  EXPECT_THROW(field_side_for_density(10, -1.0, 8.0), std::invalid_argument);
  EXPECT_THROW(field_side_for_density(10, 30.0, 0.0), std::invalid_argument);
}

TEST(Field, UniformPlacementStaysInBounds) {
  Rng rng(3);
  Field field{120.0, 80.0};
  auto positions = place_uniform(field, 500, rng);
  ASSERT_EQ(positions.size(), 500u);
  for (const auto& p : positions) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LT(p.x, field.width);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LT(p.y, field.height);
  }
}

TEST(Field, GridPlacementRegular) {
  Field field{100.0, 100.0};
  auto positions = place_grid(field, 4, 4);
  ASSERT_EQ(positions.size(), 16u);
  EXPECT_DOUBLE_EQ(positions[0].x, 12.5);
  EXPECT_DOUBLE_EQ(positions[0].y, 12.5);
  EXPECT_DOUBLE_EQ(positions[5].x, 37.5);
  EXPECT_DOUBLE_EQ(positions[5].y, 37.5);
}

TEST(Field, LinePlacementSpacing) {
  auto positions = place_line(5, 25.0);
  ASSERT_EQ(positions.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(positions[i].x, 25.0 * static_cast<double>(i));
    EXPECT_DOUBLE_EQ(positions[i].y, 0.0);
  }
}

DiscGraph line_graph(std::size_t n, double spacing, double range) {
  return DiscGraph(place_line(n, spacing), range);
}

TEST(DiscGraph, AdjacencySymmetric) {
  Rng rng(5);
  Field field{150.0, 150.0};
  DiscGraph graph(place_uniform(field, 60, rng), 30.0);
  for (NodeId a = 0; a < graph.size(); ++a) {
    for (NodeId b : graph.neighbors(a)) {
      EXPECT_TRUE(graph.is_neighbor(b, a));
    }
  }
}

TEST(DiscGraph, AdjacencyMatchesDistance) {
  Rng rng(6);
  Field field{100.0, 100.0};
  DiscGraph graph(place_uniform(field, 40, rng), 25.0);
  for (NodeId a = 0; a < graph.size(); ++a) {
    for (NodeId b = 0; b < graph.size(); ++b) {
      if (a == b) continue;
      EXPECT_EQ(graph.is_neighbor(a, b), graph.distance(a, b) <= 25.0);
    }
  }
}

TEST(DiscGraph, LineChainStructure) {
  DiscGraph graph = line_graph(5, 20.0, 25.0);
  EXPECT_TRUE(graph.is_neighbor(0, 1));
  EXPECT_FALSE(graph.is_neighbor(0, 2));
  EXPECT_EQ(graph.degree(0), 1u);
  EXPECT_EQ(graph.degree(2), 2u);
  EXPECT_TRUE(graph.connected());
}

TEST(DiscGraph, HopDistanceOnChain) {
  DiscGraph graph = line_graph(6, 20.0, 25.0);
  EXPECT_EQ(graph.hop_distance(0, 5).value(), 5u);
  EXPECT_EQ(graph.hop_distance(0, 0).value(), 0u);
  EXPECT_EQ(graph.hop_distance(2, 4).value(), 2u);
}

TEST(DiscGraph, DisconnectedComponents) {
  std::vector<Position> positions = {{0, 0}, {10, 0}, {500, 0}, {510, 0}};
  DiscGraph graph(positions, 20.0);
  EXPECT_FALSE(graph.connected());
  EXPECT_FALSE(graph.hop_distance(0, 2).has_value());
  EXPECT_TRUE(graph.shortest_path(0, 2).empty());
}

TEST(DiscGraph, ShortestPathEndpoints) {
  DiscGraph graph = line_graph(6, 20.0, 25.0);
  auto path = graph.shortest_path(1, 4);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path.front(), 1u);
  EXPECT_EQ(path.back(), 4u);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_TRUE(graph.is_neighbor(path[i], path[i + 1]));
  }
}

TEST(DiscGraph, ShortestPathIsShortest) {
  // Random graph: BFS path length must equal hop_distance for all pairs.
  Rng rng(8);
  Field field{120.0, 120.0};
  DiscGraph graph(place_uniform(field, 30, rng), 35.0);
  for (NodeId a = 0; a < graph.size(); ++a) {
    for (NodeId b = 0; b < graph.size(); ++b) {
      auto hops = graph.hop_distance(a, b);
      auto path = graph.shortest_path(a, b);
      if (hops) {
        EXPECT_EQ(path.size(), *hops + 1);
      } else {
        EXPECT_TRUE(path.empty());
      }
    }
  }
}

TEST(DiscGraph, AverageDegreeNearTarget) {
  Rng rng(9);
  double side = field_side_for_density(400, 30.0, 8.0);
  Field field{side, side};
  DiscGraph graph(place_uniform(field, 400, rng), 30.0);
  // Border effects pull the average below the bulk target.
  EXPECT_GT(graph.average_degree(), 5.5);
  EXPECT_LT(graph.average_degree(), 9.5);
}

TEST(DiscGraph, GuardsOfLinkMatchDefinition) {
  Rng rng(10);
  Field field{100.0, 100.0};
  DiscGraph graph(place_uniform(field, 40, rng), 30.0);
  for (NodeId from = 0; from < graph.size(); ++from) {
    for (NodeId to : graph.neighbors(from)) {
      auto guards = graph.guards_of_link(from, to);
      // The sender guards its own outgoing link.
      EXPECT_NE(std::find(guards.begin(), guards.end(), from), guards.end());
      // The receiver never guards its own incoming link.
      EXPECT_EQ(std::find(guards.begin(), guards.end(), to), guards.end());
      for (NodeId g : guards) {
        if (g == from) continue;
        EXPECT_TRUE(graph.is_neighbor(g, from));
        EXPECT_TRUE(graph.is_neighbor(g, to));
      }
    }
  }
}

TEST(DiscGraph, GuardCountTracksLensArea) {
  // Statistical check of Section 5.1: the expected guard count of a random
  // link is ~0.51 N_B (allow a wide tolerance; border effects bite).
  Rng rng(11);
  double side = field_side_for_density(600, 30.0, 10.0);
  Field field{side, side};
  DiscGraph graph(place_uniform(field, 600, rng), 30.0);
  double total_guards = 0.0;
  std::size_t links = 0;
  for (NodeId from = 0; from < graph.size(); ++from) {
    for (NodeId to : graph.neighbors(from)) {
      // guards_of_link includes the sender; the analysis counts third
      // parties plus the sender as well (it guards its own link).
      total_guards += static_cast<double>(graph.guards_of_link(from, to).size());
      ++links;
    }
  }
  double avg_guards = total_guards / static_cast<double>(links);
  double nb = graph.average_degree();
  EXPECT_GT(avg_guards, 0.35 * nb);
  EXPECT_LT(avg_guards, 0.75 * nb);
}

TEST(DiscGraph, InvalidRangeThrows) {
  EXPECT_THROW(DiscGraph({{0, 0}}, 0.0), std::invalid_argument);
}

/// Checks the graph against the all-pairs O(N^2) answer of the repo's own
/// link predicate, dist2d(a, b) <= range: ascending neighbor ids, and each
/// stored link distance bit-equal to dist2d.
void expect_matches_predicate(const std::vector<Position>& positions,
                              double range, const std::string& label) {
  const DiscGraph graph(positions, range);
  std::size_t links = 0;
  for (NodeId a = 0; a < positions.size(); ++a) {
    std::vector<NodeId> expected;
    std::vector<double> expected_dist;
    for (NodeId b = 0; b < positions.size(); ++b) {
      if (b == a) continue;
      const double dist = dist2d(positions[a].x, positions[a].y,
                                 positions[b].x, positions[b].y);
      if (dist <= range) {
        expected.push_back(b);
        expected_dist.push_back(dist);
      }
    }
    const auto ids = graph.neighbors(a);
    const auto dists = graph.link_distances(a);
    EXPECT_EQ(std::vector<NodeId>(ids.begin(), ids.end()), expected)
        << label << " node " << a;
    ASSERT_EQ(dists.size(), expected_dist.size()) << label << " node " << a;
    for (std::size_t i = 0; i < dists.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(dists[i]),
                std::bit_cast<std::uint64_t>(expected_dist[i]))
          << label << " link " << a << "->" << ids[i];
    }
    links += expected.size();
  }
  EXPECT_DOUBLE_EQ(graph.average_degree() *
                       static_cast<double>(positions.size()),
                   static_cast<double>(links))
      << label;
}

TEST(SpatialIndex, GridAdjacencyMatchesBruteForceOnRandomFields) {
  // The spatial index is a pure accelerator: across many random
  // deployments (varying size, density, and aspect ratio) the grid-built
  // adjacency must equal the all-pairs answer exactly, in ascending id
  // order (the property the byte-identical delivery schedule rests on).
  Rng rng(20240806);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n =
        static_cast<std::size_t>(rng.uniform_int(2, 60));
    const double range = rng.uniform(5.0, 40.0);
    const Field field{rng.uniform(20.0, 300.0), rng.uniform(20.0, 300.0)};
    expect_matches_predicate(place_uniform(field, n, rng), range,
                             "trial " + std::to_string(trial) + " (n=" +
                                 std::to_string(n) + ", range=" +
                                 std::to_string(range) + ")");
  }
}

TEST(DiscGraph, AdversarialLayoutMatchesPredicate) {
  // Links exactly at the range and one ulp either side, points on cell
  // boundaries (the grid's origin is the minimum coordinate, 0 here), and
  // coincident points: every pair is decided by dist2d <= range alone.
  const double range = 30.0;
  std::vector<Position> positions;
  for (double base : {0.0, 200.0, 400.0}) {
    positions.push_back({base, 0.0});
    positions.push_back({base + range, 0.0});
    positions.push_back({std::nextafter(base + range, 1e9), 0.0});
    positions.push_back({std::nextafter(base + range, 0.0), 0.0});
    positions.push_back({base, range});
    positions.push_back({base, std::nextafter(range, 1e9)});
    positions.push_back({base + 18.0, 24.0});  // hypot(18, 24) == 30
  }
  for (double x : {60.0, 90.0, 120.0}) positions.push_back({x, 90.0});
  positions.push_back({90.0, 60.0});
  positions.push_back({90.0, 120.0});
  for (int i = 0; i < 3; ++i) positions.push_back({300.0, 300.0});
  expect_matches_predicate(positions, range, "layout");

  // A range that binary floating point cannot hold: lattice neighbors sit
  // within rounding of it, on the cell boundaries.
  std::vector<Position> lattice;
  for (int i = 0; i < 10; ++i) {
    for (int j = 0; j < 10; ++j) lattice.push_back({i * 0.1, j * 0.1});
  }
  expect_matches_predicate(lattice, 0.1, "lattice");
}

TEST(DiscGraph, ConnectedPrefix) {
  // 0 and 1 meet only through 2: the whole graph is connected, the prefix
  // {0, 1} is not; node 3 is isolated.
  const DiscGraph graph({{0, 0}, {40, 0}, {20, 0}, {500, 0}}, 25.0);
  EXPECT_FALSE(graph.connected());
  EXPECT_TRUE(graph.connected(3));
  EXPECT_FALSE(graph.connected(2));
  EXPECT_TRUE(graph.connected(1));
  EXPECT_TRUE(graph.connected(0));
  EXPECT_THROW((void)graph.connected(5), std::out_of_range);
}

TEST(SpatialIndex, QueryReturnsAscendingSuperset) {
  Rng rng(7);
  const Field field{150.0, 90.0};
  auto positions = place_uniform(field, 300, rng);
  SpatialIndex index(positions, 25.0);
  std::vector<NodeId> candidates;
  for (int probe = 0; probe < 100; ++probe) {
    const Position center{rng.uniform(-20.0, 170.0), rng.uniform(-20.0, 110.0)};
    const double radius = rng.uniform(0.0, 60.0);
    index.query(center, radius, candidates);
    EXPECT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
    EXPECT_TRUE(std::adjacent_find(candidates.begin(), candidates.end()) ==
                candidates.end())
        << "duplicate candidate";
    // Superset property: every node actually inside the disc is returned.
    for (NodeId id = 0; id < positions.size(); ++id) {
      const double dx = positions[id].x - center.x;
      const double dy = positions[id].y - center.y;
      if (std::sqrt(dx * dx + dy * dy) <= radius) {
        EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(),
                                       id))
            << "probe " << probe << " missed node " << id;
      }
    }
  }
}

TEST(DiscGraph, OutOfRangeNodeThrows) {
  DiscGraph graph = line_graph(3, 10.0, 15.0);
  EXPECT_THROW((void)graph.shortest_path(0, 7), std::out_of_range);
  EXPECT_THROW((void)graph.neighbors(3), std::out_of_range);
  EXPECT_THROW((void)graph.link_distances(7), std::out_of_range);
}

}  // namespace
}  // namespace lw::topo
