/// \file bench_fig8_scaling.cpp
/// \brief Paper Fig. 8 (bottom) — OpenMP strong scaling of FSI vs the
/// "pure multi-threaded MKL" mode, 1..12 threads.
///
/// "We see that the former [FSI with OpenMP] is much closer to the ideal
///  scaling.  The OpenMP overhead is negligible when the number of OpenMP
///  threads per process is small."
///
/// SUBSTITUTION: the 1-thread stage profile is measured, at one OpenMP
/// thread whatever the process default, and the 2..12-thread points come
/// from the calibrated analytic model (perfmodel.hpp).  The model's two
/// parameters were fixed once against the paper's 12-thread endpoints and
/// are not fitted per run.
///
///   ./bench_fig8_scaling [--N 192] [--L 100] [--c 10] [--paper (N=576)]

#include "common.hpp"

#include "fsi/util/fpenv.hpp"

int main(int argc, char** argv) {
  fsi::util::enable_flush_to_zero();
  using namespace fsi;
  using namespace fsi::bench;
  util::Cli cli(argc, argv);
  const index_t n = cli.has("paper") ? 576 : cli.get_int("N", 192);
  const index_t l = cli.get_int("L", 100);
  const index_t c = cli.get_int("c", 10);
  const index_t b = l / c;
  init_trace(cli);
  obs::BenchTelemetry telemetry("bench_fig8_scaling");
  telemetry.add_info("N", static_cast<double>(n));
  telemetry.add_info("L", static_cast<double>(l));
  telemetry.add_info("c", static_cast<double>(c));

  print_header("Fig. 8 (bottom) — FSI scalability, OpenMP vs MKL-style",
               "FSI/OpenMP near ideal scaling; threaded-kernels-only (MKL) "
               "saturates around 2x at 12 threads");
  print_host_note();

  pcyclic::PCyclicMatrix m = make_hubbard(n, l);
  const StageProfile serial = [&] {
    OneThread one;
    return profile_fsi(m, c, pcyclic::Pattern::Columns, 2);
  }();
  const double t1 = serial.total_seconds();
  const double gf1 = serial.gflops(t1, serial.total_flops());
  std::printf("measured 1-thread profile at (N, L, c) = (%d, %d, %d):\n"
              "  CLS %.3fs  BSOFI %.3fs  WRP %.3fs  -> %.1f Gflops\n\n",
              n, l, c, serial.seconds.cls, serial.seconds.bsofi,
              serial.seconds.wrap, gf1);

  util::Table t({"threads", "ideal GF/s", "FSI/OpenMP GF/s (modeled)",
                 "MKL-style GF/s (modeled)", "FSI speedup", "MKL speedup"});
  for (int p : {1, 2, 4, 6, 8, 10, 12}) {
    const double t_fsi = selinv::fsi_openmp_time(serial.seconds, p, b);
    const double t_mkl = selinv::mkl_style_time(serial.seconds, p, n);
    t.add_row({util::Table::num((long long)p), util::Table::num(gf1 * p, 1),
               util::Table::num(gf1 * t1 / t_fsi, 1),
               util::Table::num(gf1 * t1 / t_mkl, 1),
               util::Table::num(t1 / t_fsi, 2), util::Table::num(t1 / t_mkl, 2)});
  }
  t.print();
  std::printf(
      "\nshape check (paper): FSI speedup at 12 threads ~%.0fx (near ideal),\n"
      "MKL-style ~2x ('FSI almost doubles the performance of pure\n"
      "multi-threaded MKL routines').\n",
      t1 / selinv::fsi_openmp_time(serial.seconds, 12, b));
  telemetry.add_metric("fsi_gflops_1thread", gf1, "gflops");
  telemetry.add_metric("modeled_speedup_12t",
                       t1 / selinv::fsi_openmp_time(serial.seconds, 12, b),
                       "ratio");
  finish_bench(telemetry);
  return 0;
}
