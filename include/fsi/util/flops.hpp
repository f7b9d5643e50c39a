#pragma once
/// \file flops.hpp
/// \brief Thread-safe floating-point operation accounting.
///
/// The paper reports its results as performance rates (Gflops, Tflops) for
/// each stage of the FSI algorithm.  Instead of relying on hardware counters
/// (unavailable in this environment), every dense kernel in fsi::dense calls
/// fsi::util::flops::add() with the textbook operation count of the call
/// (e.g. 2*m*n*k for GEMM).  Benches then report measured-flops / wall-time,
/// exactly mirroring how the paper derives its Gflops figures from known
/// complexities.
///
/// The counter is thread-local with a global registry so that totals include
/// work done by OpenMP worker threads and graph-executor workers.  add() is
/// a single thread-local increment — cheap enough to keep enabled in release
/// builds.
///
/// Since ISSUE 1 this is a façade over the unified observability registry
/// (fsi/obs/metrics.hpp, Counter::Flops), so flop totals, byte counters and
/// trace spans all come from one place.

#include <cstdint>

namespace fsi::util::flops {

/// Add \p n floating point operations to the calling thread's counter.
void add(std::uint64_t n) noexcept;

/// Sum of all per-thread counters since the last reset().
/// Threads that have exited still contribute their counts.
std::uint64_t total() noexcept;

/// Reset all per-thread counters to zero.
void reset() noexcept;

/// RAII helper measuring the flops performed during its lifetime
/// *across all threads*.  Not reentrant with reset().
class Scope {
 public:
  Scope() : start_(total()) {}
  /// Flops accumulated (globally) since construction.
  std::uint64_t elapsed() const noexcept { return total() - start_; }

 private:
  std::uint64_t start_;
};

}  // namespace fsi::util::flops
