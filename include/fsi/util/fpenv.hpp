#pragma once
/// \file fpenv.hpp
/// \brief Floating-point environment control.
///
/// The kinetic propagator e^{t dtau K} has entries that decay exponentially
/// with lattice distance; for large N they reach the subnormal range, and
/// subnormal arithmetic runs ~10-100x slower on x86.  The paper's
/// environment (Intel compilers + MKL on Edison) runs with FTZ/DAZ
/// (flush-to-zero / denormals-are-zero) enabled by default, so the bench
/// binaries opt into the same mode for comparable throughput.  Tests keep
/// strict IEEE semantics (they never call this).

namespace fsi::util {

/// Enable FTZ + DAZ on this thread (x86 MXCSR bits 15 and 6).  No effect on
/// non-x86 builds.  Each OpenMP / graph-executor worker thread inherits the
/// mode only if it was set before thread creation, so call this first in
/// main().
/// Also records the mode in obs::metrics::Gauge::FlushToZero so telemetry
/// fingerprints carry the FP environment.
void enable_flush_to_zero() noexcept;

/// True when FTZ+DAZ are both set in the calling thread's MXCSR (always
/// false on non-x86 builds).
bool flush_to_zero_enabled() noexcept;

/// Accumulated IEEE exception flags of this thread, as a bitmask matching
/// <cfenv> (FE_INVALID | FE_DIVBYZERO | FE_OVERFLOW | FE_UNDERFLOW only —
/// FE_INEXACT is raised by essentially every operation and is masked out).
int fp_flags_raised() noexcept;

/// Clear the accumulated IEEE exception flags.
void clear_fp_flags() noexcept;

}  // namespace fsi::util
