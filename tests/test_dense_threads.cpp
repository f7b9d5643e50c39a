/// Serial gemm under threads: calls below kParallelFlopThreshold pack into
/// per-thread buffers that outlive the call, so a result must not depend on
/// what the thread ran before or on what other threads run at the same
/// time.  Every call is checked bit-for-bit against the same call made
/// first on a fresh thread, interleaved on one thread and concurrently on
/// four std::threads; a warm serial call must not allocate.  Only
/// std::thread and sub-threshold shapes are used, so no OpenMP region is
/// opened and the suite runs clean under ThreadSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>
#include <vector>

#include "fsi/dense/blas.hpp"
#include "testing.hpp"

namespace {

thread_local std::size_t t_allocations = 0;

}  // namespace

// Count this thread's heap allocations (the whole binary routes through
// these; the count is per thread, so other threads do not disturb it).
void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace fsi;
using namespace fsi::dense;

struct Shape {
  index_t m, n, k;
};
constexpr Shape kShapes[] = {{36, 36, 36}, {7, 5, 3}, {128, 32, 16}, {1, 1, 1}};

/// One gemm call with its own operands; run() leaves C untouched.
template <typename T>
struct Call {
  Trans ta, tb;
  T alpha, beta;
  BasicMatrix<T> a, b, c;

  BasicMatrix<T> run() const {
    BasicMatrix<T> out = c;
    gemm(ta, tb, alpha, a, b, beta, out);
    return out;
  }
};

/// Every shape with all four transpose pairs, with reproducible operands.
template <typename T>
std::vector<Call<T>> make_calls() {
  std::vector<Call<T>> calls;
  std::uint64_t stream = 0;
  for (const Shape& s : kShapes) {
    EXPECT_LT(2ull * s.m * s.n * s.k, kParallelFlopThreshold);
    for (Trans ta : {Trans::No, Trans::Yes}) {
      for (Trans tb : {Trans::No, Trans::Yes}) {
        util::Rng rng(47, ++stream);
        Call<T> call{ta, tb, T(0.75), T(-0.5), {}, {}, {}};
        call.a = (ta == Trans::No)
                     ? fsi::testing::random_matrix_t<T>(s.m, s.k, rng)
                     : fsi::testing::random_matrix_t<T>(s.k, s.m, rng);
        call.b = (tb == Trans::No)
                     ? fsi::testing::random_matrix_t<T>(s.k, s.n, rng)
                     : fsi::testing::random_matrix_t<T>(s.n, s.k, rng);
        call.c = fsi::testing::random_matrix_t<T>(s.m, s.n, rng);
        calls.push_back(std::move(call));
      }
    }
  }
  return calls;
}

/// Each call's result when it is the first call on a new thread.
template <typename T>
std::vector<BasicMatrix<T>> fresh_thread_results(
    const std::vector<Call<T>>& calls) {
  std::vector<BasicMatrix<T>> refs(calls.size());
  for (std::size_t i = 0; i < calls.size(); ++i) {
    std::thread([&, i] { refs[i] = calls[i].run(); }).join();
  }
  return refs;
}

template <typename T>
bool bit_identical(const BasicMatrix<T>& x, const BasicMatrix<T>& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(),
                     sizeof(T) * static_cast<std::size_t>(x.rows()) *
                         static_cast<std::size_t>(x.cols())) == 0;
}

/// Run every call \p rounds times in an order rotated by \p offset (large
/// and small shapes alternate, so each call finds buffers a different call
/// grew) and count results that differ from \p refs.
template <typename T>
int mismatches(const std::vector<Call<T>>& calls,
               const std::vector<BasicMatrix<T>>& refs, std::size_t offset,
               int rounds) {
  int bad = 0;
  const std::size_t n = calls.size();
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t step = 0; step < n; ++step) {
      const std::size_t i =
          (offset + step * 5 + static_cast<std::size_t>(r)) % n;
      if (!bit_identical(calls[i].run(), refs[i])) ++bad;
    }
  }
  return bad;
}

template <typename T>
class DenseThreads : public ::testing::Test {};
using Scalars = ::testing::Types<double, float>;
TYPED_TEST_SUITE(DenseThreads, Scalars);

TYPED_TEST(DenseThreads, InterleavedCallsOnOneThreadAreBitIdentical) {
  using T = TypeParam;
  const auto calls = make_calls<T>();
  const auto refs = fresh_thread_results(calls);
  int bad = -1;
  std::thread([&] { bad = mismatches(calls, refs, 0, 4); }).join();
  EXPECT_EQ(bad, 0);
}

TYPED_TEST(DenseThreads, ConcurrentCallsOnFourThreadsAreBitIdentical) {
  using T = TypeParam;
  const auto calls = make_calls<T>();
  const auto refs = fresh_thread_results(calls);
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] { bad += mismatches(calls, refs, 3 * t, 8); });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
}

TYPED_TEST(DenseThreads, WarmSerialCallsDoNotAllocate) {
  using T = TypeParam;
  const auto calls = make_calls<T>();
  std::vector<BasicMatrix<T>> outs;
  for (const auto& call : calls) outs.push_back(call.c);
  std::size_t allocations = 0;
  std::thread([&] {
    for (std::size_t i = 0; i < calls.size(); ++i)  // warm up this thread
      gemm(calls[i].ta, calls[i].tb, calls[i].alpha, calls[i].a, calls[i].b,
           calls[i].beta, outs[i]);
    const std::size_t before = t_allocations;
    for (std::size_t i = 0; i < calls.size(); ++i)
      gemm(calls[i].ta, calls[i].tb, calls[i].alpha, calls[i].a, calls[i].b,
           calls[i].beta, outs[i]);
    allocations = t_allocations - before;
  }).join();
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
