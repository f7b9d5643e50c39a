#include "fsi/qmc/lattice.hpp"

#include <algorithm>
#include <cstdlib>
#include <queue>

#include "fsi/util/check.hpp"

namespace fsi::qmc {

Lattice Lattice::chain(index_t nx) { return Lattice(nx, 1); }

Lattice Lattice::rectangle(index_t nx, index_t ny) { return Lattice(nx, ny); }

Lattice Lattice::from_edges(
    index_t num_sites, const std::vector<std::pair<index_t, index_t>>& edges) {
  return Lattice(num_sites, edges);
}

Lattice::Lattice(index_t num_sites,
                 const std::vector<std::pair<index_t, index_t>>& edges)
    : nx_(num_sites), ny_(1), general_graph_(true) {
  FSI_CHECK(num_sites >= 1, "Lattice: need at least one site");
  const index_t n = num_sites;
  k_ = Matrix(n, n);
  neighbors_.resize(static_cast<std::size_t>(n));
  for (const auto& [a, b] : edges) {
    FSI_CHECK(a >= 0 && a < n && b >= 0 && b < n,
              "Lattice::from_edges: site index out of range");
    FSI_CHECK(a != b, "Lattice::from_edges: self-loops are not allowed");
    if (k_(a, b) != 0.0) continue;  // duplicate edge
    k_(a, b) = k_(b, a) = 1.0;
    neighbors_[static_cast<std::size_t>(a)].push_back(b);
    neighbors_[static_cast<std::size_t>(b)].push_back(a);
  }

  // BFS distances (disconnected pairs get class dmax) and 2-colouring.
  // Column src of the table holds the distances from src (symmetric).
  class_table_.assign(static_cast<std::size_t>(n) * n, -1);
  parity_.assign(static_cast<std::size_t>(n), 1);
  std::vector<int> colour(static_cast<std::size_t>(n), -1);
  bool bipartite = true;
  index_t max_dist = 0;
  for (index_t src = 0; src < n; ++src) {
    std::queue<index_t> q;
    q.push(src);
    class_table_[static_cast<std::size_t>(src) * n + src] = 0;
    while (!q.empty()) {
      const index_t u = q.front();
      q.pop();
      const index_t du = class_table_[static_cast<std::size_t>(src) * n + u];
      for (index_t v : neighbors_[static_cast<std::size_t>(u)]) {
        auto& dv = class_table_[static_cast<std::size_t>(src) * n + v];
        if (dv < 0) {
          dv = du + 1;
          max_dist = std::max(max_dist, dv);
          q.push(v);
        }
      }
    }
    // Colouring from the first source's BFS only.
    if (src == 0) {
      for (index_t v = 0; v < n; ++v) {
        const index_t d = class_table_[static_cast<std::size_t>(v)];
        colour[static_cast<std::size_t>(v)] = (d < 0) ? 0 : (d % 2);
      }
    }
  }
  // Classes are 0..max_dist; disconnected pairs get their own final class.
  num_classes_ = max_dist + 1;
  bool has_disconnected = false;
  for (auto& d : class_table_)
    if (d < 0) {
      d = num_classes_;
      has_disconnected = true;
    }
  if (has_disconnected) ++num_classes_;

  // Bipartiteness check: no edge may connect same-coloured sites.
  for (index_t u = 0; u < n; ++u)
    for (index_t v : neighbors_[static_cast<std::size_t>(u)])
      if (colour[static_cast<std::size_t>(u)] ==
          colour[static_cast<std::size_t>(v)])
        bipartite = false;
  if (bipartite)
    for (index_t v = 0; v < n; ++v)
      parity_[static_cast<std::size_t>(v)] =
          (colour[static_cast<std::size_t>(v)] == 0) ? 1 : -1;

  build_class_sizes();
}

void Lattice::build_class_sizes() {
  class_sizes_.assign(static_cast<std::size_t>(num_distance_classes()), 0);
  const index_t n = num_sites();
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j)
      ++class_sizes_[static_cast<std::size_t>(distance_class(i, j))];
}

Lattice::Lattice(index_t nx, index_t ny) : nx_(nx), ny_(ny) {
  FSI_CHECK(nx >= 1 && ny >= 1, "Lattice: dimensions must be positive");
  FSI_CHECK(nx * ny >= 1, "Lattice: need at least one site");
  const index_t n = num_sites();
  k_ = Matrix(n, n);
  neighbors_.resize(static_cast<std::size_t>(n));

  for (index_t s = 0; s < n; ++s) {
    const index_t x = x_of(s), y = y_of(s);
    std::vector<index_t> nbr;
    if (nx_ > 1) {
      nbr.push_back(site(x + 1, y));
      nbr.push_back(site(x - 1 + nx_, y));
    }
    if (ny_ > 1) {
      nbr.push_back(site(x, y + 1));
      nbr.push_back(site(x, y - 1 + ny_));
    }
    // Collapse duplicates (nx == 2 makes +1 and -1 the same site) and
    // self-loops on degenerate sizes.
    std::sort(nbr.begin(), nbr.end());
    nbr.erase(std::unique(nbr.begin(), nbr.end()), nbr.end());
    nbr.erase(std::remove(nbr.begin(), nbr.end(), s), nbr.end());
    for (index_t t : nbr) k_(s, t) = 1.0;
    neighbors_[static_cast<std::size_t>(s)] = std::move(nbr);
  }

  // Distance classes: |dx| and |dy| folded into [0, n/2], enumerated
  // x-fastest; parity (-1)^(x+y).
  num_classes_ = (nx_ / 2 + 1) * (ny_ / 2 + 1);
  class_table_.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  parity_.resize(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    parity_[static_cast<std::size_t>(j)] =
        ((x_of(j) + y_of(j)) % 2 == 0) ? 1 : -1;
    for (index_t i = 0; i < n; ++i) {
      index_t dx = std::abs(x_of(i) - x_of(j));
      dx = std::min(dx, nx_ - dx);
      index_t dy = std::abs(y_of(i) - y_of(j));
      dy = std::min(dy, ny_ - dy);
      class_table_[static_cast<std::size_t>(j) * static_cast<std::size_t>(n) +
                   static_cast<std::size_t>(i)] = dx + dy * (nx_ / 2 + 1);
    }
  }
  build_class_sizes();
}

index_t Lattice::site(index_t x, index_t y) const {
  return (x % nx_) + (y % ny_) * nx_;
}

const std::vector<index_t>& Lattice::neighbors(index_t s) const {
  FSI_CHECK(s >= 0 && s < num_sites(), "Lattice: site out of range");
  return neighbors_[static_cast<std::size_t>(s)];
}

}  // namespace fsi::qmc
