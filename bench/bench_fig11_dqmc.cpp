/// \file bench_fig11_dqmc.cpp
/// \brief Paper Fig. 11 — runtime of a full DQMC simulation.
///
/// "Fig. 11 shows the total runtime of the DQMC with FSI ... FSI with
///  OpenMP gains a factor of 6.9 speedup from single-core to 12-core
///  execution.  In contrast, FSI with MKL only gains a factor of 1.3.
///  As a result, the full DQMC simulation reduces from three and a half
///  hours to forty minutes."
///
/// Paper workload: (N, L) = (400, 100), (w, m) = (100, 200), c = 10.
/// Default is scaled down for a quick run; --paper restores the paper's
/// shape (very long on one core).  Both engines are *measured* on one core
/// (they run the same Markov chain); the 6/12-thread rows are modeled.
///
///   ./bench_fig11_dqmc [--nx 6] [--ny 6] [--L 32] [--warmup 4] [--sweeps 8]

#include "common.hpp"

#include "fsi/util/fpenv.hpp"

#include "fsi/qmc/dqmc.hpp"

int main(int argc, char** argv) {
  fsi::util::enable_flush_to_zero();
  using namespace fsi;
  using namespace fsi::bench;
  util::Cli cli(argc, argv);
  init_trace(cli);
  obs::BenchTelemetry telemetry("bench_fig11_dqmc");
  const bool paper = cli.has("paper");
  const index_t nx = paper ? 20 : cli.get_int("nx", 6);
  const index_t ny = paper ? 20 : cli.get_int("ny", 6);
  const index_t l = paper ? 100 : cli.get_int("L", 32);
  const index_t warm = paper ? 100 : cli.get_int("warmup", 4);
  const index_t sweeps = paper ? 200 : cli.get_int("sweeps", 8);

  print_header("Fig. 11 — full DQMC simulation runtime",
               "FSI/OpenMP: 6.9x speedup 1->12 cores; FSI/MKL: only 1.3x; "
               "3.5 h -> 40 min on the paper's workload");
  print_host_note();

  qmc::HubbardParams params;
  params.t = 1.0;
  params.u = 2.0;
  params.beta = 1.0;
  params.l = l;
  qmc::HubbardModel model(qmc::Lattice::rectangle(nx, ny), params);
  std::printf("workload: %dx%d lattice (N=%d), L=%d, (w, m) = (%d, %d)\n\n",
              nx, ny, nx * ny, l, warm, sweeps);

  qmc::DqmcOptions opt;
  opt.warmup_sweeps = warm;
  opt.measurement_sweeps = sweeps;
  opt.seed = 3;

  // Both engines are measured at one thread: the OpenMP team and, through
  // it, run_dqmc's graph workers, which default to the team size.
  const auto measure = [&](qmc::GreensEngine engine) {
    OneThread one;
    opt.engine = engine;
    return qmc::run_dqmc(model, opt);
  };
  const qmc::DqmcResult fsi_r = measure(qmc::GreensEngine::Fsi);
  const qmc::DqmcResult mkl_r = measure(qmc::GreensEngine::MklStyle);

  util::Table meas({"engine (measured, 1 core)", "sweeps s", "Green's fn s",
                    "measurements s", "total s", "<n>", "acc."});
  auto row = [&](const char* name, const qmc::DqmcResult& r) {
    meas.add_row({name, util::Table::num(r.timings.warmup_seconds, 2),
                  util::Table::num(r.timings.greens_seconds, 2),
                  util::Table::num(r.timings.measure_seconds, 2),
                  util::Table::num(r.timings.total_seconds, 2),
                  util::Table::num(r.measurements.density(), 3),
                  util::Table::num(r.acceptance_rate, 2)});
  };
  row("FSI", fsi_r);
  row("MKL-style", mkl_r);
  meas.print();
  std::printf("(identical Markov chain: observables must match)\n\n");

  // Modeled multi-thread totals: the sweep part stays serial per matrix;
  // the Green's-function part follows the FSI-OpenMP / MKL-kernel models;
  // measurements parallelise with FSI only (the paper's observation).
  const index_t b2 = l / qmc::default_cluster_size(l);
  const double g = fsi_r.timings.greens_seconds;
  selinv::StageTimes st{0.2 * g, 0.4 * g, 0.4 * g};
  util::Table proj({"threads", "FSI/OpenMP total s (modeled)",
                    "MKL-style total s (modeled)", "FSI speedup",
                    "MKL speedup"});
  const double base = fsi_r.timings.total_seconds;
  for (int p : {1, 6, 12}) {
    const double fsi_total =
        fsi_r.timings.warmup_seconds / selinv::amdahl_speedup(0.55, p) +
        selinv::fsi_openmp_time(st, p, b2) +
        fsi_r.timings.measure_seconds /
            std::min<double>(p, static_cast<double>(b2));
    const double mkl_total =
        mkl_r.timings.warmup_seconds / selinv::amdahl_speedup(0.25, p) +
        selinv::mkl_style_time(st, p, nx * ny) +
        mkl_r.timings.measure_seconds * (p > 1 ? 1.1 : 1.0);
    proj.add_row({util::Table::num((long long)p),
                  util::Table::num(fsi_total, 2), util::Table::num(mkl_total, 2),
                  util::Table::num(base / fsi_total, 1),
                  util::Table::num(mkl_r.timings.total_seconds / mkl_total, 1)});
  }
  proj.print();
  std::printf(
      "\nshape check (paper): FSI/OpenMP ~6.9x at 12 threads, MKL ~1.3x;\n"
      "scaled to the paper's (N, L, w, m) this is the 3.5 h -> 40 min "
      "reduction.\n");
  telemetry.add_info("N", static_cast<double>(nx * ny));
  telemetry.add_info("L", static_cast<double>(l));
  telemetry.add_info("sweeps", static_cast<double>(sweeps));
  telemetry.add_metric("fsi_total_s", fsi_r.timings.total_seconds, "s", false,
                       /*higher_is_better=*/false);
  telemetry.add_metric("mkl_style_total_s", mkl_r.timings.total_seconds, "s",
                       false, /*higher_is_better=*/false);
  telemetry.add_metric("fsi_max_drift", fsi_r.stats.max_drift, "norm", false,
                       /*higher_is_better=*/false);
  telemetry.add_metric("acceptance_rate", fsi_r.acceptance_rate, "ratio");
  finish_bench(telemetry);
  return 0;
}
