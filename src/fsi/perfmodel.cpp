#include "fsi/selinv/perfmodel.hpp"

#include <algorithm>
#include <cmath>

#include "fsi/util/check.hpp"

namespace fsi::selinv {

double amdahl_speedup(double parallel_fraction, int threads) {
  FSI_CHECK(threads >= 1, "amdahl_speedup: need at least one thread");
  FSI_CHECK(parallel_fraction >= 0.0 && parallel_fraction <= 1.0,
            "amdahl_speedup: fraction must be in [0, 1]");
  return 1.0 / ((1.0 - parallel_fraction) +
                parallel_fraction / static_cast<double>(threads));
}

double mkl_parallel_fraction(dense::index_t n_block) {
  // Threaded dense kernels only help once blocks are large enough to keep a
  // team busy; ramp from ~0.25 at N=64 to ~0.60 at N=1024 (log scale).
  // The ~0.53 value near N=576 reproduces the paper's ~2x MKL speedup at
  // 12 threads (Fig. 8 bottom: "almost doubles").
  const double n = static_cast<double>(std::max<dense::index_t>(n_block, 1));
  const double x = std::log2(n / 64.0) / std::log2(1024.0 / 64.0);  // 0 @64, 1 @1024
  const double clamped = std::clamp(x, 0.0, 1.0);
  return 0.25 + clamped * (0.60 - 0.25);
}

double fsi_openmp_time(const StageTimes& serial, int threads, dense::index_t b) {
  FSI_CHECK(threads >= 1 && b >= 1, "fsi_openmp_time: invalid arguments");
  const double p = static_cast<double>(threads);
  // CLS: b independent cluster products.
  const double t_cls = serial.cls / std::min<double>(p, static_cast<double>(b));
  // BSOFI: the 2N x N panel chain is sequential, but it is only O(b N^3) of
  // BSOFI's ~7 b^2 N^3; the dominant R^-1 back-substitution is b-way
  // parallel and the Q applications are kernel-rich: ~85% parallel.
  const double t_bsofi = serial.bsofi / amdahl_speedup(0.85, threads);
  // WRP: b^2 independent seeds — essentially perfectly parallel for p <= b^2.
  const double t_wrap =
      serial.wrap / std::min<double>(p, static_cast<double>(b) * b);
  // Thread-team overhead (barriers, NUMA traffic): ~0.5% per extra thread,
  // matching the paper's "OpenMP overhead is negligible when the number of
  // threads is small".
  const double overhead = 1.0 + 0.005 * (p - 1.0);
  return (t_cls + t_bsofi + t_wrap) * overhead;
}

double mkl_style_time(const StageTimes& serial, int threads,
                      dense::index_t n_block) {
  FSI_CHECK(threads >= 1, "mkl_style_time: invalid arguments");
  return serial.total() / amdahl_speedup(mkl_parallel_fraction(n_block), threads);
}

double hybrid_rate(double single_core_flops_per_sec, int nodes,
                   int ranks_per_node, int threads_per_rank,
                   const StageTimes& serial_profile, dense::index_t b) {
  FSI_CHECK(nodes >= 1 && ranks_per_node >= 1 && threads_per_rank >= 1,
            "hybrid_rate: invalid configuration");
  // Each rank works on its own matrices (perfect MPI scaling over
  // independent Green's functions); within a rank, OpenMP efficiency is the
  // modeled FSI speedup divided by the thread count.
  const double serial_t = serial_profile.total();
  const double omp_speedup =
      serial_t / fsi_openmp_time(serial_profile, threads_per_rank, b);
  const double omp_efficiency = omp_speedup / threads_per_rank;
  const double cores =
      static_cast<double>(nodes) * ranks_per_node * threads_per_rank;
  return single_core_flops_per_sec * cores * omp_efficiency;
}

std::size_t fsi_rank_bytes(dense::index_t n, dense::index_t l, dense::index_t c,
                           pcyclic::Pattern pattern) {
  const std::size_t n2 = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  const std::size_t b = static_cast<std::size_t>(l / c);
  const std::size_t lblocks = static_cast<std::size_t>(l);

  std::size_t selected_blocks = 0;
  switch (pattern) {
    case pcyclic::Pattern::Diagonal:
    case pcyclic::Pattern::SubDiagonal:
      selected_blocks = b;
      break;
    case pcyclic::Pattern::Columns:
    case pcyclic::Pattern::Rows:
      selected_blocks = b * lblocks;
      break;
    case pcyclic::Pattern::AllDiagonals:
      selected_blocks = lblocks;
      break;
  }

  const std::size_t b_blocks = lblocks * n2;        // input B_1..B_L
  const std::size_t inv_blocks = lblocks * n2;      // stored B_1^-1..B_L^-1
  const std::size_t reduced = b * n2;               // clustered matrix
  const std::size_t gtilde = (b * b) * n2;          // dense reduced inverse
  const std::size_t selected = selected_blocks * n2;
  return (b_blocks + inv_blocks + reduced + gtilde + selected) * sizeof(double);
}

bool config_fits(int ranks_per_node, std::size_t bytes_per_rank,
                 const EdisonNode& node) {
  const double need_gb = static_cast<double>(ranks_per_node) *
                         static_cast<double>(bytes_per_rank) / (1024.0 * 1024.0 * 1024.0);
  return need_gb <= node.usable_gb();
}

}  // namespace fsi::selinv
