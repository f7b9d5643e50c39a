#pragma once
/// \file dqmc.hpp
/// \brief The full DQMC simulation driver (paper Alg. 4 / Fig. 7).
///
/// A simulation runs `warmup` sweeps to thermalise the Hubbard-Stratonovich
/// field, then `measurement` sweeps; after each measurement sweep it builds
/// the Hubbard matrices M^up/M^dn for the current field and computes the
/// Green's-function blocks that the physical measurements need — all L
/// diagonal blocks plus b block rows and b block columns (the Fig. 10
/// workload) — with one of two engines:
///
///   - GreensEngine::Fsi      : the paper's contribution — CLS + BSOFI once,
///                              then three wrapping passes share the reduced
///                              inverse; coarse-grain OpenMP over clusters /
///                              seeds / measurement loops.
///   - GreensEngine::MklStyle : the paper's comparator ("pure multi-threaded
///                              MKL"): identical linear algebra, but the only
///                              parallelism is inside the dense kernels;
///                              outer loops and measurements run serially,
///                              which is what flattens the MKL curves in
///                              Figs. 8 (bottom), 10 and 11.

#include <cstdint>

#include "fsi/qmc/greens.hpp"
#include "fsi/qmc/hubbard.hpp"
#include "fsi/qmc/measurements.hpp"

namespace fsi::qmc {

/// How the per-measurement Green's-function blocks are produced.
enum class GreensEngine {
  Fsi,       ///< FSI with coarse OpenMP + parallel measurements (paper mode)
  MklStyle,  ///< same algorithm, threaded kernels only, serial outer loops
             ///< and serial measurements — the paper's "pure MKL" comparator
};

/// Simulation options (paper Fig. 11 uses w=100, m=200, c=10).
struct DqmcOptions {
  index_t warmup_sweeps = 20;
  index_t measurement_sweeps = 40;
  /// FSI cluster size c; 0 picks the divisor of L closest to sqrt(L).
  index_t cluster_size = 0;
  /// Sweeps' Green's functions are recomputed (stabilised) after this many
  /// slice wraps.
  index_t wrap_interval = 8;
  /// Delayed-update depth of the sweep engines (0 = immediate rank-1
  /// updates; >0 accumulates that many updates per GEMM flush — the
  /// optimisation of the paper's ref. [23]).
  index_t delay_depth = 0;
  GreensEngine engine = GreensEngine::Fsi;
  /// How the sweep engines recompute G at stabilisation points; the default
  /// follows FSI_STAB (QrAccumulate when unset — pre-stab behavior, or the
  /// stab::StabilizedChain UDT path for large-beta runs).
  RecomputeMethod recompute = default_recompute_method();
  /// Also compute the SPXX time-dependent measurement (needs rows+columns).
  bool measure_time_dependent = true;
  std::uint64_t seed = 1234;
};

/// Wall-clock breakdown matching the paper's Fig. 10/11 profiles.
struct DqmcTimings {
  double warmup_seconds = 0.0;   ///< Metropolis sweeps (both phases)
  double greens_seconds = 0.0;   ///< selected-inversion computation
  double measure_seconds = 0.0;  ///< physical-measurement accumulation
  double total_seconds = 0.0;
};

/// Numerical-stability statistics of one simulation (both spin engines
/// combined).  The drift samples also stream into obs::health, where the
/// bounded per-recompute time series and the OK/WARN/FAIL classification
/// live; this struct carries the scalar summary alongside the result.
struct DqmcStats {
  index_t recomputes = 0;      ///< stabilised recomputes across both spins
  double last_drift = 0.0;     ///< worse spin's drift at the final recompute
  double max_drift = 0.0;      ///< largest drift over the whole simulation
};

struct DqmcResult {
  Measurements measurements;
  DqmcTimings timings;
  double acceptance_rate = 0.0;
  DqmcStats stats;
};

/// Choose the divisor of \p l closest to sqrt(l) (the paper's c ~ sqrt(L)).
index_t default_cluster_size(index_t l);

/// One full Metropolis sweep over all (slice, site) pairs, updating
/// \p field and the two Green's engines in lock-step.  Returns the number
/// of accepted flips; \p sign is multiplied by the sign of each accepted
/// ratio (tracking the Monte Carlo sign).
index_t metropolis_sweep(const HubbardModel& model, HsField& field,
                         EqualTimeGreens& g_up, EqualTimeGreens& g_dn,
                         util::Rng& rng, double& sign);

/// Run a full DQMC simulation.
DqmcResult run_dqmc(const HubbardModel& model, const DqmcOptions& options);

}  // namespace fsi::qmc
