#include "fsi/qmc/dqmc.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "fsi/obs/metrics.hpp"
#include "fsi/obs/trace.hpp"
#include "fsi/selinv/fsi.hpp"
#include "fsi/util/timer.hpp"

namespace fsi::qmc {

index_t default_cluster_size(index_t l) {
  FSI_CHECK(l >= 1, "default_cluster_size: L must be positive");
  const double target = std::sqrt(static_cast<double>(l));
  index_t best = 1;
  double best_dist = std::abs(1.0 - target);
  for (index_t c = 1; c <= l; ++c) {
    if (l % c != 0) continue;
    const double dist = std::abs(static_cast<double>(c) - target);
    if (dist < best_dist) {
      best = c;
      best_dist = dist;
    }
  }
  return best;
}

index_t metropolis_sweep(const HubbardModel& /*model*/, HsField& field,
                         EqualTimeGreens& g_up, EqualTimeGreens& g_dn,
                         util::Rng& rng, double& sign) {
  FSI_OBS_SPAN("dqmc.sweep");
  FSI_CHECK(g_up.slice() == g_dn.slice(),
            "metropolis_sweep: spin engines out of sync");
  const index_t l = field.num_slices();
  const index_t n = field.num_sites();
  index_t accepted = 0;

  for (index_t s = 0; s < l; ++s) {
    const index_t slice = g_up.slice();
    for (index_t i = 0; i < n; ++i) {
      // (1) propose h' = -h(l, i); (2) Metropolis ratio r = r_up * r_dn;
      // (3) accept with min(1, |r|) (paper Alg. 4, DQMC sweep box).
      const double a_up = g_up.flip_alpha(i);
      const double a_dn = g_dn.flip_alpha(i);
      const double r_up = g_up.flip_ratio(i, a_up);
      const double r_dn = g_dn.flip_ratio(i, a_dn);
      const double r = r_up * r_dn;
      if (rng.uniform() < std::min(1.0, std::fabs(r))) {
        g_up.apply_flip(i, a_up, r_up);
        g_dn.apply_flip(i, a_dn, r_dn);
        field.flip(slice, i);
        if (r < 0.0) sign = -sign;
        ++accepted;
      }
    }
    g_up.advance();
    g_dn.advance();
  }
  return accepted;
}

namespace {

/// Selected-inversion bundle for one spin: all diagonals (+ rows/cols when
/// the time-dependent measurement is on).
struct GreenBlocks {
  pcyclic::SelectedInversion diag;
  std::unique_ptr<pcyclic::SelectedInversion> rows;
  std::unique_ptr<pcyclic::SelectedInversion> cols;
};

GreenBlocks compute_green_blocks(const HubbardModel& model, const HsField& field,
                                 Spin spin, index_t c, index_t q,
                                 bool coarse_parallel, bool time_dependent) {
  FSI_OBS_SPAN("dqmc.greens");
  const pcyclic::PCyclicMatrix m = model.build_m(field, spin);
  const pcyclic::BlockOps ops(m, model.b_inverses(field, spin));

  // fsi_multi shares one CLS + BSOFI across all wrapping passes.  With
  // coarse_parallel on, Exec::Auto lowers the call onto the task-graph
  // executor (cluster products, BSOFI and seed walks as dependency-ordered
  // nodes on the persistent pool); coarse_parallel == false keeps the
  // strictly serial loop pipeline.  Either way the result is bit-identical.
  selinv::FsiOptions opts;
  opts.c = c;
  opts.q = q;
  opts.coarse_parallel = coarse_parallel;
  std::vector<pcyclic::Pattern> patterns{pcyclic::Pattern::AllDiagonals};
  if (time_dependent) {
    patterns.push_back(pcyclic::Pattern::Rows);
    patterns.push_back(pcyclic::Pattern::Columns);
  }
  util::Rng unused(0);  // q is fixed; the rng is not consulted
  auto blocks = selinv::fsi_multi(m, ops, patterns, opts, unused);

  GreenBlocks out{std::move(blocks[0]), nullptr, nullptr};
  if (time_dependent) {
    out.rows = std::make_unique<pcyclic::SelectedInversion>(std::move(blocks[1]));
    out.cols = std::make_unique<pcyclic::SelectedInversion>(std::move(blocks[2]));
  }
  return out;
}

}  // namespace

DqmcResult run_dqmc(const HubbardModel& model, const DqmcOptions& options) {
  const index_t l = model.params().l;
  const index_t c =
      (options.cluster_size > 0) ? options.cluster_size : default_cluster_size(l);
  FSI_CHECK(l % c == 0, "run_dqmc: cluster size must divide L");
  const bool coarse = (options.engine == GreensEngine::Fsi);

  util::Rng rng(options.seed);
  obs::metrics::set(obs::metrics::Gauge::WrapInterval,
                    static_cast<double>(options.wrap_interval));
  // Recompute seconds fold: the engines stream their stabilised-recompute
  // wall time into the shared registry; the delta over this simulation is
  // re-attributed from warmup_seconds to greens_seconds below.
  const double recompute_s0 =
      obs::metrics::seconds(obs::metrics::Accum::GreensRecompute);
  HsField field(l, model.num_sites(), rng);  // random +-1 initial config
  EqualTimeGreens g_up(model, field, Spin::Up, c, options.wrap_interval,
                       options.delay_depth, options.recompute);
  EqualTimeGreens g_dn(model, field, Spin::Down, c, options.wrap_interval,
                       options.delay_depth, options.recompute);

  DqmcResult result{
      Measurements(l, model.lattice().num_distance_classes()), {}, 0.0, {}};
  double sign = 1.0;
  index_t accepted = 0, attempted = 0;

  util::WallTimer total;

  // Warmup stage.
  util::WallTimer phase;
  for (index_t w = 0; w < options.warmup_sweeps; ++w) {
    accepted += metropolis_sweep(model, field, g_up, g_dn, rng, sign);
    attempted += l * model.num_sites();
  }
  result.timings.warmup_seconds = phase.seconds();

  // Measurement stage.
  for (index_t mstep = 0; mstep < options.measurement_sweeps; ++mstep) {
    phase.reset();
    accepted += metropolis_sweep(model, field, g_up, g_dn, rng, sign);
    attempted += l * model.num_sites();
    result.timings.warmup_seconds += phase.seconds();

    // Green's functions for this configuration (both spins share q so that
    // the SPXX mixed-spin products line up).
    phase.reset();
    const index_t q = static_cast<index_t>(rng.below(static_cast<std::uint64_t>(c)));
    GreenBlocks up = compute_green_blocks(model, field, Spin::Up, c, q, coarse,
                                          options.measure_time_dependent);
    GreenBlocks dn = compute_green_blocks(model, field, Spin::Down, c, q, coarse,
                                          options.measure_time_dependent);
    result.timings.greens_seconds += phase.seconds();

    // Physical measurements.
    phase.reset();
    FSI_OBS_SPAN("dqmc.measure");
    result.measurements.add_sample(sign);
    accumulate_equal_time(model.lattice(), up.diag, dn.diag, model.params().t,
                          sign, coarse, result.measurements);
    if (options.measure_time_dependent) {
      accumulate_spxx(model.lattice(), *up.rows, *up.cols, *dn.rows, *dn.cols,
                      sign, coarse, result.measurements);
      accumulate_pair_susceptibility(model.lattice(), *up.rows, *dn.rows,
                                     model.params().dtau(), sign, coarse,
                                     result.measurements);
    }
    result.timings.measure_seconds += phase.seconds();
  }

  // The stabilised recomputes inside the sweeps are Green's-function work;
  // report them under greens_seconds as the paper's profiles do.
  const double recompute_s =
      obs::metrics::seconds(obs::metrics::Accum::GreensRecompute) -
      recompute_s0;
  result.timings.warmup_seconds -= recompute_s;
  result.timings.greens_seconds += recompute_s;

  result.timings.total_seconds = total.seconds();
  result.acceptance_rate =
      attempted > 0 ? static_cast<double>(accepted) / attempted : 0.0;
  result.stats.recomputes = g_up.recomputes() + g_dn.recomputes();
  result.stats.last_drift = std::max(g_up.last_drift(), g_dn.last_drift());
  result.stats.max_drift = std::max(g_up.max_drift(), g_dn.max_drift());
  return result;
}

}  // namespace fsi::qmc
