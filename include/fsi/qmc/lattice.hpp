#pragma once
/// \file lattice.hpp
/// \brief Real-space lattices for the Hubbard model.
///
/// QUEST's default geometry is the two-dimensional periodic rectangular
/// lattice (paper Sec. I); a periodic chain is provided for cheap tests.
/// The lattice supplies the adjacency (hopping) matrix K of the kinetic
/// propagator e^{t dtau K} and the spatial-distance classification D(i, j)
/// used by the time-dependent measurements (paper Sec. IV).

#include <utility>
#include <vector>

#include "fsi/dense/matrix.hpp"

namespace fsi::qmc {

using dense::index_t;
using dense::Matrix;

/// Periodic lattice with nearest-neighbour hopping, or an arbitrary
/// hopping graph.
class Lattice {
 public:
  /// 1D periodic chain of \p nx sites.
  static Lattice chain(index_t nx);
  /// 2D periodic rectangle of nx * ny sites (QUEST's default geometry).
  static Lattice rectangle(index_t nx, index_t ny);
  /// Arbitrary undirected hopping graph on \p num_sites sites (QUEST-style
  /// "general geometry" input).  Distance classes become graph (BFS)
  /// distances; the staggering parity comes from a bipartite 2-colouring
  /// when one exists (all +1 on non-bipartite graphs, where S_AF is not a
  /// staggered observable anyway).
  static Lattice from_edges(index_t num_sites,
                            const std::vector<std::pair<index_t, index_t>>& edges);

  index_t num_sites() const { return nx_ * ny_; }
  index_t nx() const { return nx_; }
  index_t ny() const { return ny_; }
  bool is_chain() const { return ny_ == 1; }

  /// Adjacency matrix K: K(i, j) = 1 iff i and j are nearest neighbours
  /// (periodic).  Symmetric; diagonal is zero.
  const Matrix& adjacency() const { return k_; }

  /// Site index of lattice coordinates (x, y), periodic.
  index_t site(index_t x, index_t y) const;
  index_t x_of(index_t s) const { return s % nx_; }
  index_t y_of(index_t s) const { return s / nx_; }

  /// Nearest neighbours of site s (4 on the rectangle, 2 on the chain;
  /// duplicates collapse on tiny lattices).
  const std::vector<index_t>& neighbors(index_t s) const;

  /// Spatial distance class D(i, j): the canonical periodic displacement
  /// (|dx| and |dy| folded into [0, n/2]) enumerated as a single index
  /// (general graphs: the BFS distance).  This is the paper's mapping from
  /// entry index (i, j) to d; a table read, built once per lattice.
  index_t distance_class(index_t i, index_t j) const {
    FSI_ASSERT(i >= 0 && i < num_sites() && j >= 0 && j < num_sites());
    return class_table_[static_cast<std::size_t>(j) *
                            static_cast<std::size_t>(num_sites()) +
                        static_cast<std::size_t>(i)];
  }

  /// Number of distance classes d_max (the paper's "d_max ~ O(N)" second
  /// dimension of the SPXX matrix).
  index_t num_distance_classes() const { return num_classes_; }

  /// Sublattice parity (-1)^(x+y) of site \p s (general graphs: bipartite
  /// 2-colouring, or +1 when the graph is not bipartite) — the staggering
  /// sign of antiferromagnetic correlation functions.
  int parity(index_t s) const {
    FSI_ASSERT(s >= 0 && s < num_sites());
    return parity_[static_cast<std::size_t>(s)];
  }

  /// True if this lattice was built from an explicit edge list.
  bool is_general_graph() const { return general_graph_; }

  /// Number of (ordered) site pairs in each distance class; used to
  /// normalise correlation functions.
  const std::vector<index_t>& distance_class_sizes() const {
    return class_sizes_;
  }

 private:
  Lattice(index_t nx, index_t ny);
  Lattice(index_t num_sites,
          const std::vector<std::pair<index_t, index_t>>& edges);
  void build_class_sizes();

  index_t nx_ = 0, ny_ = 0;
  Matrix k_;
  std::vector<std::vector<index_t>> neighbors_;
  /// D(i, j) at j * n + i (column-major, like the Green's-function blocks
  /// the measurements sweep; D is symmetric either way).
  std::vector<index_t> class_table_;
  std::vector<int> parity_;  ///< staggering sign per site
  index_t num_classes_ = 0;
  std::vector<index_t> class_sizes_;
  bool general_graph_ = false;
};

}  // namespace fsi::qmc
