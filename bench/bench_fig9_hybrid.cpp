/// \file bench_fig9_hybrid.cpp
/// \brief Paper Fig. 9 — hybrid MPI x OpenMP performance for multiple
/// Green's functions on 100 Edison nodes (2400 cores).
///
/// "Pure MPI execution reaches the highest performance, but it is only
///  applicable for block size N = 400.  When N = 576 the memory requirement
///  ... exceeds the available memory capacity ... the hybrid model exploits
///  the full usage of all available CPU cores and overcomes the memory
///  shortage to achieve the highest performance rate of 31 Tflops."
///
/// SUBSTITUTION: the 100-node run cannot execute on one machine, so this
/// bench (a) REPRODUCES the memory-feasibility boundary with the Edison
/// node model (which configs OOM, analytically, matching the paper's
/// 2.65 GB/rank arithmetic), (b) projects the aggregate Tflops for each
/// feasible configuration from a *measured* single-core FSI rate and the
/// scaling model, and (c) actually RUNS Alg. 3 on mini-MPI ranks at a
/// reduced size to demonstrate the scatter/FSI/reduce pipeline end-to-end.
///
///   ./bench_fig9_hybrid [--N 96] [--L 40] [--c 5] [--demo-ranks 4]

#include "common.hpp"

#include "fsi/util/fpenv.hpp"

#include <map>
#include <thread>

#include "fsi/mpi/edison_model.hpp"
#include "fsi/mpi/minimpi.hpp"
#include "fsi/qmc/multi_gf.hpp"
#include "fsi/sched/executor.hpp"

int main(int argc, char** argv) {
  fsi::util::enable_flush_to_zero();
  using namespace fsi;
  using namespace fsi::bench;
  util::Cli cli(argc, argv);
  init_trace(cli);
  obs::BenchTelemetry telemetry("bench_fig9_hybrid");

  print_header("Fig. 9 — hybrid MPI x OpenMP, 100 nodes x 24 cores",
               "pure MPI fastest when it fits; N >= 576 needs hybrid; "
               "20-31 Tflops across configurations");
  print_host_note();

  // (a) + (b): feasibility and projected rate per (config, N).
  const index_t l_paper = 100, c_paper = 10, b = l_paper / c_paper;
  const int nodes = 100;
  struct Config {
    int ranks_total, threads;
  };
  const Config configs[] = {{200, 12}, {400, 6}, {800, 3}, {1200, 2}, {2400, 1}};

  // Measured single-core rate on a moderate instance, used as the per-core
  // building block of the projection.
  const index_t n_meas = cli.get_int("N", 96);
  const index_t l_meas = cli.get_int("L", 40);
  const index_t c_meas = cli.get_int("c", 5);
  pcyclic::PCyclicMatrix m = make_hubbard(n_meas, l_meas);
  StageProfile prof = profile_fsi(m, c_meas, pcyclic::Pattern::Columns, 2);
  const double core_rate =
      static_cast<double>(prof.total_flops()) / prof.total_seconds();
  // FSI runs at a fixed fraction of the DGEMM rate (Fig. 8 top); project the
  // per-core rate to the paper's block sizes via the measured DGEMM curve.
  const double fsi_efficiency = core_rate / (dgemm_gflops(n_meas) * 1e9);
  std::printf("measured single-core FSI rate (N=%d, L=%d, c=%d): %.1f Gflops "
              "(%.0f%% of DGEMM)\n\n",
              n_meas, l_meas, c_meas, core_rate * 1e-9, 100 * fsi_efficiency);

  const mpi::EdisonNode node;
  std::map<index_t, double> rate_at_n;
  for (index_t n : {400, 576, 784, 1024})
    rate_at_n[n] = dgemm_gflops(n, 2) * 1e9 * fsi_efficiency;

  util::Table t([&] {
    std::vector<std::string> h{"ranks x threads"};
    for (index_t n : {400, 576, 784, 1024}) h.push_back("N=" + std::to_string(n));
    return h;
  }());
  for (const Config& cfg : configs) {
    std::vector<std::string> row{std::to_string(cfg.ranks_total) + " x " +
                                 std::to_string(cfg.threads)};
    for (index_t n : {400, 576, 784, 1024}) {
      const std::size_t bytes =
          mpi::fsi_rank_bytes(n, l_paper, c_paper, pcyclic::Pattern::Columns);
      const int ranks_per_node = cfg.ranks_total / nodes;
      if (!mpi::config_fits(ranks_per_node, bytes, node)) {
        row.push_back("OOM");
        continue;
      }
      const double rate = selinv::hybrid_rate(rate_at_n[n], nodes,
                                              ranks_per_node, cfg.threads,
                                              prof.seconds, b);
      row.push_back(util::Table::num(rate * 1e-12, 1) + " TF");
    }
    t.add_row(row);
  }
  std::printf("projected aggregate rate (modeled) and memory feasibility\n"
              "(64 GB Edison node, selected block columns, L=100, c=10):\n");
  t.print();
  std::printf(
      "shape check (paper): the 2400 x 1 pure-MPI row is fastest but OOMs for\n"
      "N >= 576 (paper: 12 ranks/socket x 2.65 GB = 31.8 GB > socket memory);\n"
      "hybrid rows stay feasible and deliver 20-31 Tflops.\n\n");

  // (c) functional demonstration of Alg. 3 on mini-MPI.
  const int demo_ranks = cli.get_int("demo-ranks", 4);
  qmc::HubbardParams params;
  params.l = l_meas;
  params.u = 2.0;
  qmc::HubbardModel model(qmc::Lattice::chain(cli.get_int("demo-N", 24)), params);
  qmc::MultiGfOptions opt;
  opt.num_matrices = demo_ranks * 2;
  opt.num_ranks = demo_ranks;
  opt.omp_threads_per_rank = 1;
  opt.cluster_size = c_meas;
  qmc::MultiGfResult r = qmc::run_parallel_fsi(model, opt);
  std::printf("mini-MPI demo (measured): %d matrices on %d ranks -> "
              "%.2f Gflops aggregate, <n> = %.3f, sign = %.1f\n",
              opt.num_matrices, demo_ranks, r.gflops(), r.global.density(),
              r.global.avg_sign());
  std::printf("  scheduler: %llu steal batches, %llu tasks migrated\n\n",
              static_cast<unsigned long long>(r.sched.steal_batches),
              static_cast<unsigned long long>(r.sched.stolen_tasks));

  // (d) scheduler A/B on a skewed batch: only the leading quarter of the
  // tasks computes the Rows/Columns passes, so the contiguous static split
  // overloads the low ranks.  One warmup batch first, so both timed runs
  // start with warm executor threads and caches.
  qmc::MultiGfOptions skew = opt;
  skew.num_matrices = demo_ranks * 4;
  skew.heavy_fraction = 0.25;
  skew.schedule = qmc::Schedule::WorkStealing;
  (void)qmc::run_parallel_fsi(model, skew);  // thread + cache warmup
  const qmc::MultiGfResult steal = qmc::run_parallel_fsi(model, skew);
  skew.schedule = qmc::Schedule::Static;
  const qmc::MultiGfResult stat = qmc::run_parallel_fsi(model, skew);

  util::Table ab({"schedule", "wall (s)", "balance max/mean", "steals"});
  ab.add_row({"static split", util::Table::num(stat.seconds, 3),
              util::Table::num(stat.sched.balance(), 2),
              util::Table::num((long long)stat.sched.stolen_tasks)});
  ab.add_row({"work stealing", util::Table::num(steal.seconds, 3),
              util::Table::num(steal.sched.balance(), 2),
              util::Table::num((long long)steal.sched.stolen_tasks)});
  std::printf("scheduler A/B on a skewed batch (%d matrices, heavy fraction "
              "%.2f, %d ranks):\n",
              skew.num_matrices, skew.heavy_fraction, demo_ranks);
  ab.print();

  // (e) batch-dispatch overhead: DQMC sweeps dispatch thousands of small
  // batches, so the per-batch cost of standing up the rank team matters.
  // The persistent executor pool wakes sleeping workers through a condition
  // variable; the old implementation spawned and joined one std::thread per
  // rank per batch.  Time both on empty rank bodies.
  const int dispatch_reps = cli.get_int("dispatch-reps", 200);
  auto empty_body = [](mpi::Communicator& comm) { comm.barrier(); };
  (void)sched::Executor::instance();  // pool already warm from (c)/(d)
  mpi::run(demo_ranks, empty_body, 1);
  util::WallTimer persist_timer;
  for (int i = 0; i < dispatch_reps; ++i) mpi::run(demo_ranks, empty_body, 1);
  const double dispatch_us_persistent =
      persist_timer.seconds() / dispatch_reps * 1e6;
  util::WallTimer spawn_timer;
  for (int i = 0; i < dispatch_reps; ++i) {
    std::vector<std::thread> team;
    team.reserve(static_cast<std::size_t>(demo_ranks));
    for (int rk = 0; rk < demo_ranks; ++rk) team.emplace_back([] {});
    for (std::thread& th : team) th.join();
  }
  const double dispatch_us_spawn = spawn_timer.seconds() / dispatch_reps * 1e6;
  const double dispatch_speedup =
      dispatch_us_persistent > 0 ? dispatch_us_spawn / dispatch_us_persistent
                                 : 1.0;
  std::printf("\nbatch-dispatch overhead (%d empty %d-rank batches):\n"
              "  persistent pool : %8.1f us/batch\n"
              "  spawn-per-batch : %8.1f us/batch  (%.1fx slower)\n",
              dispatch_reps, demo_ranks, dispatch_us_persistent,
              dispatch_us_spawn, dispatch_speedup);

  // Graph-granularity telemetry from the stealing run of section (d): node
  // count, critical path and per-stage busy seconds (zero when FSI_EXEC=0
  // forced the batch back onto the coarse BatchScheduler path).
  if (steal.sched.graph_nodes > 0) {
    std::printf("\ntask-graph telemetry (stealing run): %llu nodes, critical "
                "path %.3f s,\n  mean ready depth %.1f, stage busy s: build "
                "%.3f cls %.3f bsofi %.3f wrap %.3f measure %.3f\n",
                static_cast<unsigned long long>(steal.sched.graph_nodes),
                steal.sched.critical_path_seconds,
                steal.sched.ready_depth_mean, steal.sched.stage_build_seconds,
                steal.sched.stage_cls_seconds, steal.sched.stage_bsofi_seconds,
                steal.sched.stage_wrap_seconds,
                steal.sched.stage_measure_seconds);
  }

  telemetry.add_info("N", static_cast<double>(n_meas));
  telemetry.add_info("L", static_cast<double>(l_meas));
  telemetry.add_info("demo_ranks", static_cast<double>(demo_ranks));
  telemetry.add_metric("fsi_efficiency_vs_dgemm", fsi_efficiency, "ratio");
  telemetry.add_metric("demo_aggregate_gflops", r.gflops(), "gflops");
  telemetry.add_metric("sched_balance_static", stat.sched.balance(), "ratio",
                       false, false);
  telemetry.add_metric("sched_balance_stealing", steal.sched.balance(),
                       "ratio", true, false);
  telemetry.add_metric("sched_steal_batches",
                       static_cast<double>(steal.sched.steal_batches), "count");
  telemetry.add_metric("sched_wall_static_s", stat.seconds, "s", false, false);
  telemetry.add_metric("sched_wall_stealing_s", steal.seconds, "s", false,
                       false);
  telemetry.add_metric("dispatch_us_persistent", dispatch_us_persistent, "us",
                       false, false);
  telemetry.add_metric("dispatch_us_spawn", dispatch_us_spawn, "us", false,
                       false);
  telemetry.add_metric("dispatch_speedup_vs_spawn", dispatch_speedup, "ratio",
                       true, true);
  telemetry.add_metric("graph_nodes",
                       static_cast<double>(steal.sched.graph_nodes), "count");
  telemetry.add_metric("graph_critical_path_s",
                       steal.sched.critical_path_seconds, "s", false, false);
  telemetry.add_metric("graph_ready_depth_mean", steal.sched.ready_depth_mean,
                       "count");
  telemetry.add_metric("graph_stage_build_s", steal.sched.stage_build_seconds,
                       "s", false, false);
  telemetry.add_metric("graph_stage_cls_s", steal.sched.stage_cls_seconds, "s",
                       false, false);
  telemetry.add_metric("graph_stage_bsofi_s", steal.sched.stage_bsofi_seconds,
                       "s", false, false);
  telemetry.add_metric("graph_stage_wrap_s", steal.sched.stage_wrap_seconds,
                       "s", false, false);
  telemetry.add_metric("graph_stage_measure_s",
                       steal.sched.stage_measure_seconds, "s", false, false);
  finish_bench(telemetry);
  return 0;
}
