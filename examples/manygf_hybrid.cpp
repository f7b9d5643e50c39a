/// \file manygf_hybrid.cpp
/// \brief Parallel application of FSI to many Green's functions (paper
/// Alg. 3 / Fig. 5) on the persistent graph executor.
///
/// The caller generates random Hubbard-Stratonovich fields (Alg. 3's root);
/// each task builds its Hubbard matrices, runs FSI and accumulates its
/// physical measurements, and the per-task results are merged in task
/// order.  Every task's FSI stages are task-graph nodes spread over
/// --ranks workers, each with an OpenMP team of --threads.
///
///   ./manygf_hybrid [--matrices 8] [--ranks 2] [--threads 1]
///                   [--N 24] [--L 16] [--c 4]
///                   [--static] [--heavy-fraction 1.0]
///
/// --static pins every node to the worker owning its task (Alg. 3's
/// original contiguous distribution); --heavy-fraction < 1 skews the batch
/// so that only the leading fraction computes the Rows/Columns passes —
/// run both modes on a skewed batch to watch work stealing flatten the
/// balance.

#include <cstdio>

#include "fsi/util/fpenv.hpp"
#include "fsi/qmc/multi_gf.hpp"
#include "fsi/util/cli.hpp"
#include "fsi/util/table.hpp"

int main(int argc, char** argv) {
  fsi::util::enable_flush_to_zero();
  using namespace fsi;
  util::Cli cli(argc, argv);

  qmc::HubbardParams params;
  params.l = cli.get_int("L", 16);
  params.u = 2.0;
  params.beta = 1.0;
  qmc::HubbardModel model(qmc::Lattice::chain(cli.get_int("N", 24)), params);

  qmc::MultiGfOptions opt;
  opt.num_matrices = cli.get_int("matrices", 8);
  opt.num_ranks = cli.get_int("ranks", 2);
  opt.omp_threads_per_rank = cli.get_int("threads", 1);
  opt.cluster_size = cli.get_int("c", 4);
  opt.schedule =
      cli.has("static") ? qmc::Schedule::Static : qmc::Schedule::WorkStealing;
  opt.heavy_fraction = cli.get_double("heavy-fraction", 1.0);
  opt.seed = 2024;

  std::printf(
      "Alg. 3: selected inversions of %d Hubbard matrices on %d graph "
      "workers x %d OpenMP threads\n",
      opt.num_matrices, opt.num_ranks, opt.omp_threads_per_rank);

  qmc::MultiGfResult r = qmc::run_parallel_fsi(model, opt);

  util::Table t({"quantity", "value"});
  t.add_row({"matrices processed", util::Table::num((long long)r.global.samples())});
  t.add_row({"wall time (s)", util::Table::num(r.seconds, 3)});
  t.add_row({"dense-kernel flops", util::Table::num(double(r.flops), 0)});
  t.add_row({"aggregate Gflops", util::Table::num(r.gflops(), 2)});
  t.add_row({"global <n>", util::Table::num(r.global.density(), 4)});
  t.add_row({"global <n_up n_dn>", util::Table::num(r.global.double_occupancy(), 4)});
  t.add_row({"global SPXX(1, 0)", util::Table::num(r.global.spxx(1, 0), 5)});
  t.add_row({"schedule", opt.schedule == qmc::Schedule::Static
                             ? "static split"
                             : "work stealing"});
  t.add_row({"steal batches", util::Table::num((long long)r.sched.steal_batches)});
  t.add_row({"nodes migrated", util::Table::num((long long)r.sched.stolen_tasks)});
  t.add_row({"balance (max/mean busy)", util::Table::num(r.sched.balance(), 2)});
  t.print();
  return 0;
}
