/// \file bench_dense.cpp
/// \brief Google-benchmark microbenchmarks of the dense substrate (the
/// reproduction's MKL stand-in): GEMM, LU, QR, TRSM, and the FSI building
/// blocks at DQMC-relevant sizes (N = 16 and 36 are the 4x4 and 6x6
/// Hubbard blocks the DQMC workloads run).  Context for every Gflops
/// number printed by the figure benches.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "fsi/dense/blas.hpp"
#include "fsi/dense/lu.hpp"
#include "fsi/dense/qr.hpp"
#include "fsi/obs/telemetry.hpp"
#include "fsi/pcyclic/adjacency.hpp"
#include "fsi/util/rng.hpp"

namespace {

using namespace fsi;
using dense::index_t;
using dense::Matrix;

Matrix random_square(index_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix a(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) a(i, j) = rng.uniform(-1, 1);
  return a;
}

void BM_Gemm(benchmark::State& state) {
  const index_t n = static_cast<index_t>(state.range(0));
  Matrix a = random_square(n, 1), b = random_square(n, 2), c(n, n);
  for (auto _ : state) {
    dense::gemm(dense::Trans::No, dense::Trans::No, 1.0, a, b, 0.0, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * n * n * n, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_Gemm)->Arg(16)->Arg(36)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_GemmTransA(benchmark::State& state) {
  const index_t n = static_cast<index_t>(state.range(0));
  Matrix a = random_square(n, 3), b = random_square(n, 4), c(n, n);
  for (auto _ : state) {
    dense::gemm(dense::Trans::Yes, dense::Trans::No, 1.0, a, b, 0.0, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * n * n * n, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_GemmTransA)->Arg(128)->Arg(256);

void BM_LuFactor(benchmark::State& state) {
  const index_t n = static_cast<index_t>(state.range(0));
  Matrix a = random_square(n, 5);
  for (auto _ : state) {
    Matrix work = a;
    std::vector<index_t> ipiv;
    dense::getrf(work, ipiv);
    benchmark::DoNotOptimize(work.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 / 3.0 * n * n * n, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_LuFactor)->Arg(128)->Arg(256)->Arg(512);

void BM_LuInverse(benchmark::State& state) {
  const index_t n = static_cast<index_t>(state.range(0));
  Matrix a = random_square(n, 6);
  for (auto _ : state) {
    Matrix inv = dense::inverse(a);
    benchmark::DoNotOptimize(inv.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * n * n * n, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_LuInverse)->Arg(128)->Arg(256);

void BM_QrPanel2NxN(benchmark::State& state) {
  // The BSOFI panel shape: 2N x N.
  const index_t n = static_cast<index_t>(state.range(0));
  util::Rng rng(7);
  Matrix a(2 * n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < 2 * n; ++i) a(i, j) = rng.uniform(-1, 1);
  for (auto _ : state) {
    Matrix work = a;
    std::vector<double> tau;
    dense::geqrf(work, tau);
    benchmark::DoNotOptimize(work.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * n * n * (2 * n - n / 3.0),
      benchmark::Counter::kIsIterationInvariantRate, benchmark::Counter::kIs1000);
}
BENCHMARK(BM_QrPanel2NxN)->Arg(128)->Arg(256);

void BM_TrsmLeftLower(benchmark::State& state) {
  const index_t n = static_cast<index_t>(state.range(0));
  Matrix a = random_square(n, 8);
  for (index_t i = 0; i < n; ++i) a(i, i) += 4.0;
  Matrix b = random_square(n, 9);
  for (auto _ : state) {
    Matrix x = b;
    dense::trsm(dense::Side::Left, dense::Uplo::Lower, dense::Trans::No,
                dense::Diag::NonUnit, 1.0, a, x);
    benchmark::DoNotOptimize(x.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      1.0 * n * n * n, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_TrsmLeftLower)->Arg(256);

void BM_Ger(benchmark::State& state) {
  // The DQMC rank-1 Green's-function update.
  const index_t n = static_cast<index_t>(state.range(0));
  Matrix a = random_square(n, 10);
  std::vector<double> x(n, 0.5), y(n, -0.25);
  for (auto _ : state) {
    dense::ger(1e-6, x.data(), y.data(), a);
    benchmark::DoNotOptimize(a.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * n * n, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_Ger)->Arg(400);

void BM_AdjacencyMove(benchmark::State& state) {
  // One WRP step, G(k-1, l) = B_k^-1 G(k, l) (up) or G(k+1, l) = B_{k+1}
  // G(k, l) (down), from a generic off-diagonal position.
  const index_t n = static_cast<index_t>(state.range(0));
  const bool up = state.range(1) == 0;
  util::Rng rng(11);
  const pcyclic::PCyclicMatrix m = pcyclic::PCyclicMatrix::random(n, 8, rng);
  const pcyclic::BlockOps ops(m);
  const Matrix g = random_square(n, 12);
  for (auto _ : state) {
    Matrix out = up ? ops.up(3, 5, g) : ops.down(3, 5, g);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(up ? "up" : "down");
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * n * n * n, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_AdjacencyMove)->ArgsProduct({{16, 36}, {0, 1}});

}  // namespace

// Like BENCHMARK_MAIN(), plus the repo-wide BENCH_<name>.json emitter.
// Per-kernel numbers live in google-benchmark's own reporters
// (--benchmark_format=json); the telemetry file records the build/health
// context shared with the figure benches.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  fsi::obs::BenchTelemetry telemetry("bench_dense");
  telemetry.add_info("metrics_note", "per-kernel rates via --benchmark_format=json");
  const std::string path = telemetry.write();
  if (!path.empty())
    std::printf("[bench] telemetry written to %s\n", path.c_str());
  return 0;
}
