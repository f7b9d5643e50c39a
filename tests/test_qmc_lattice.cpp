/// Tests for the lattice substrate: adjacency, neighbours, distance classes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "fsi/qmc/dqmc.hpp"
#include "fsi/qmc/lattice.hpp"
#include "fsi/util/check.hpp"

namespace {

using namespace fsi;
using namespace fsi::qmc;

TEST(Lattice, ChainAdjacency) {
  Lattice lat = Lattice::chain(5);
  EXPECT_EQ(lat.num_sites(), 5);
  const Matrix& k = lat.adjacency();
  for (index_t i = 0; i < 5; ++i) {
    EXPECT_EQ(k(i, (i + 1) % 5), 1.0);
    EXPECT_EQ(k((i + 1) % 5, i), 1.0);
    EXPECT_EQ(k(i, i), 0.0);
    EXPECT_EQ(lat.neighbors(i).size(), 2u);
  }
  EXPECT_EQ(k(0, 2), 0.0);
}

TEST(Lattice, RectangleAdjacencyAndDegree) {
  Lattice lat = Lattice::rectangle(4, 4);
  EXPECT_EQ(lat.num_sites(), 16);
  const Matrix& k = lat.adjacency();
  for (index_t i = 0; i < 16; ++i) {
    EXPECT_EQ(lat.neighbors(i).size(), 4u) << "site " << i;
    double degree = 0;
    for (index_t j = 0; j < 16; ++j) {
      degree += k(i, j);
      EXPECT_EQ(k(i, j), k(j, i));  // symmetric
    }
    EXPECT_EQ(degree, 4.0);
  }
}

TEST(Lattice, PeriodicWrapAroundNeighbours) {
  Lattice lat = Lattice::rectangle(4, 3);
  // Site (0, 0) neighbours: (1,0), (3,0), (0,1), (0,2).
  const auto& nbr = lat.neighbors(lat.site(0, 0));
  EXPECT_EQ(nbr.size(), 4u);
  auto has = [&](index_t s) {
    return std::find(nbr.begin(), nbr.end(), s) != nbr.end();
  };
  EXPECT_TRUE(has(lat.site(1, 0)));
  EXPECT_TRUE(has(lat.site(3, 0)));
  EXPECT_TRUE(has(lat.site(0, 1)));
  EXPECT_TRUE(has(lat.site(0, 2)));
}

TEST(Lattice, TwoSiteChainCollapsesDuplicateNeighbours) {
  Lattice lat = Lattice::chain(2);
  EXPECT_EQ(lat.neighbors(0).size(), 1u);  // +1 and -1 are the same site
  EXPECT_EQ(lat.adjacency()(0, 1), 1.0);
}

TEST(Lattice, DistanceClassesAreSymmetricAndBounded) {
  Lattice lat = Lattice::rectangle(4, 6);
  const index_t dmax = lat.num_distance_classes();
  EXPECT_EQ(dmax, (4 / 2 + 1) * (6 / 2 + 1));
  for (index_t i = 0; i < lat.num_sites(); ++i)
    for (index_t j = 0; j < lat.num_sites(); ++j) {
      const index_t d = lat.distance_class(i, j);
      EXPECT_GE(d, 0);
      EXPECT_LT(d, dmax);
      EXPECT_EQ(d, lat.distance_class(j, i));
    }
  EXPECT_EQ(lat.distance_class(3, 3), 0);  // self-distance is class 0
}

TEST(Lattice, DistanceClassSizesSumToAllPairs) {
  Lattice lat = Lattice::rectangle(4, 4);
  index_t total = 0;
  for (index_t s : lat.distance_class_sizes()) total += s;
  EXPECT_EQ(total, lat.num_sites() * lat.num_sites());
}

TEST(Lattice, PeriodicDistanceFolding) {
  Lattice lat = Lattice::chain(6);
  // Sites 0 and 5 are distance 1 apart (periodic), not 5.
  EXPECT_EQ(lat.distance_class(0, 5), lat.distance_class(0, 1));
  // Max distance on a 6-chain is 3.
  EXPECT_EQ(lat.num_distance_classes(), 4);
}

TEST(Lattice, InvalidSizesThrow) {
  EXPECT_THROW(Lattice::chain(0), util::CheckError);
  EXPECT_THROW(Lattice::rectangle(0, 3), util::CheckError);
}

TEST(Lattice, ClassTableAndParityMatchTheFormulas) {
  // The tables read back what the folded-displacement and (-1)^(x+y)
  // formulas give, on odd and even extents.
  for (const Lattice& lat : {Lattice::chain(5), Lattice::rectangle(4, 4),
                             Lattice::rectangle(5, 3),
                             Lattice::rectangle(6, 6)}) {
    SCOPED_TRACE(std::to_string(lat.nx()) + "x" + std::to_string(lat.ny()));
    EXPECT_FALSE(lat.is_general_graph());
    EXPECT_EQ(lat.num_distance_classes(),
              (lat.nx() / 2 + 1) * (lat.ny() / 2 + 1));
    for (index_t j = 0; j < lat.num_sites(); ++j) {
      EXPECT_EQ(lat.parity(j),
                (lat.x_of(j) + lat.y_of(j)) % 2 == 0 ? 1 : -1);
      for (index_t i = 0; i < lat.num_sites(); ++i) {
        index_t dx = std::abs(lat.x_of(i) - lat.x_of(j));
        dx = std::min(dx, lat.nx() - dx);
        index_t dy = std::abs(lat.y_of(i) - lat.y_of(j));
        dy = std::min(dy, lat.ny() - dy);
        EXPECT_EQ(lat.distance_class(i, j), dx + dy * (lat.nx() / 2 + 1))
            << "i=" << i << " j=" << j;
      }
    }
  }
  EXPECT_TRUE(Lattice::from_edges(3, {{0, 1}, {1, 2}}).is_general_graph());
}

}  // namespace

namespace {

using fsi::qmc::Lattice;
using fsi::dense::index_t;

TEST(GeneralGraph, SquareRingMatchesChain) {
  // A 4-cycle given as an edge list behaves like chain(4).
  Lattice g = Lattice::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  Lattice c = Lattice::chain(4);
  EXPECT_TRUE(g.is_general_graph());
  for (index_t i = 0; i < 4; ++i) {
    EXPECT_EQ(g.neighbors(i).size(), 2u);
    for (index_t j = 0; j < 4; ++j) {
      EXPECT_EQ(g.adjacency()(i, j), c.adjacency()(i, j));
      EXPECT_EQ(g.distance_class(i, j), c.distance_class(i, j));
    }
  }
  // Bipartite ring: alternating parity.
  EXPECT_EQ(g.parity(0), -g.parity(1));
  EXPECT_EQ(g.parity(0), g.parity(2));
}

TEST(GeneralGraph, TriangleIsNotBipartite) {
  Lattice t = Lattice::from_edges(3, {{0, 1}, {1, 2}, {2, 0}});
  // Non-bipartite: parity falls back to all +1.
  EXPECT_EQ(t.parity(0), 1);
  EXPECT_EQ(t.parity(1), 1);
  EXPECT_EQ(t.parity(2), 1);
  EXPECT_EQ(t.num_distance_classes(), 2);  // distances 0, 1
}

TEST(GeneralGraph, StarGraphDistances) {
  // Star: center 0 connected to 1..4.
  Lattice s = Lattice::from_edges(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  EXPECT_EQ(s.neighbors(0).size(), 4u);
  EXPECT_EQ(s.distance_class(1, 2), 2);  // leaf to leaf via center
  EXPECT_EQ(s.distance_class(0, 3), 1);
  EXPECT_EQ(s.num_distance_classes(), 3);
  index_t total = 0;
  for (index_t v : s.distance_class_sizes()) total += v;
  EXPECT_EQ(total, 25);
}

TEST(GeneralGraph, DisconnectedPairsGetOwnClass) {
  Lattice g = Lattice::from_edges(4, {{0, 1}, {2, 3}});
  const index_t dmax = g.num_distance_classes();
  EXPECT_EQ(g.distance_class(0, 2), dmax - 1);
  EXPECT_EQ(g.distance_class(0, 1), 1);
}

TEST(GeneralGraph, RejectsBadEdges) {
  EXPECT_THROW(Lattice::from_edges(3, {{0, 3}}), fsi::util::CheckError);
  EXPECT_THROW(Lattice::from_edges(3, {{1, 1}}), fsi::util::CheckError);
}

TEST(GeneralGraph, DuplicateEdgesCollapse) {
  Lattice g = Lattice::from_edges(2, {{0, 1}, {1, 0}, {0, 1}});
  EXPECT_EQ(g.neighbors(0).size(), 1u);
  EXPECT_EQ(g.adjacency()(0, 1), 1.0);
}

TEST(GeneralGraph, DqmcRunsOnGeneralGeometry) {
  // Full pipeline on a non-bipartite geometry (triangle + tail).
  Lattice g = Lattice::from_edges(4, {{0, 1}, {1, 2}, {2, 0}, {2, 3}});
  fsi::qmc::HubbardParams p;
  p.u = 2.0;
  p.beta = 1.0;
  p.l = 8;
  fsi::qmc::HubbardModel model(g, p);
  fsi::qmc::DqmcOptions opt;
  opt.warmup_sweeps = 4;
  opt.measurement_sweeps = 8;
  opt.cluster_size = 4;
  opt.seed = 13;
  auto r = fsi::qmc::run_dqmc(model, opt);
  EXPECT_GT(r.acceptance_rate, 0.0);
  EXPECT_NEAR(r.measurements.density(), 1.0, 0.3);
}

}  // namespace
