#include "fsi/sched/workspace_pool.hpp"

#include <algorithm>
#include <utility>

#include "fsi/obs/env.hpp"
#include "fsi/obs/metrics.hpp"

namespace fsi::sched {

WorkspacePool::WorkspacePool(bool enabled, std::size_t max_bytes)
    : enabled_(enabled), max_bytes_(max_bytes) {}

WorkspacePool& WorkspacePool::global() {
  // Leaked on purpose: destructors of pooled consumers (e.g. thread-local
  // state torn down at exit) may still recycle, so the pool must outlive
  // every static object.
  static WorkspacePool* pool = new WorkspacePool(
      obs::env_flag("FSI_SCHED_POOL", true),
      static_cast<std::size_t>(
          std::max(0L, obs::env_long("FSI_SCHED_POOL_MAX_MB", 512)))
          << 20);
  return *pool;
}

template <typename T>
dense::BasicMatrix<T> WorkspacePool::acquire(index_t rows, index_t cols) {
  const std::size_t count =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  if (enabled_ && count > 0) {
    Shard<T>& s = shard_for(shards<T>(), count);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.free.find(count);
    if (it != s.free.end() && !it->second.empty()) {
      std::vector<T> buf = std::move(it->second.back());
      it->second.pop_back();
      s.bytes -= count * sizeof(T);
      hits_.fetch_add(1, std::memory_order_relaxed);
      obs::metrics::add(obs::metrics::Counter::PoolHits, 1);
      return dense::BasicMatrix<T>(rows, cols, std::move(buf));
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  obs::metrics::add(obs::metrics::Counter::PoolMisses, 1);
  return dense::BasicMatrix<T>(rows, cols);
}

template dense::Matrix WorkspacePool::acquire<double>(index_t, index_t);
template dense::MatrixF WorkspacePool::acquire<float>(index_t, index_t);

template <typename T>
void WorkspacePool::recycle_impl(dense::BasicMatrix<T>&& m) {
  if (m.empty()) return;
  std::vector<T> buf = m.release_storage();
  if (!enabled_) return;  // buf frees here
  const std::size_t count = buf.size();
  Shard<T>& s = shard_for(shards<T>(), count);
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.bytes + count * sizeof(T) > max_bytes_ / kShards) return;
  s.bytes += count * sizeof(T);
  s.free[count].push_back(std::move(buf));
}

dense::Matrix WorkspacePool::acquire_copy(dense::ConstMatrixView src) {
  dense::Matrix out = acquire<double>(src.rows(), src.cols());
  dense::copy(src, out.view());
  return out;
}

dense::MatrixF WorkspacePool::acquire_copy(dense::ConstMatrixViewF src) {
  dense::MatrixF out = acquire<float>(src.rows(), src.cols());
  dense::copy(src, out.view());
  return out;
}

void WorkspacePool::recycle(dense::Matrix&& m) { recycle_impl(std::move(m)); }

void WorkspacePool::recycle(dense::MatrixF&& m) { recycle_impl(std::move(m)); }

double WorkspacePool::hit_rate() const {
  const std::uint64_t h = hits(), m = misses();
  return (h + m) > 0 ? static_cast<double>(h) / static_cast<double>(h + m)
                     : 0.0;
}

std::size_t WorkspacePool::cached_bytes() const {
  std::size_t total = 0;
  for (const Shard<double>& s : shards_) {
    std::lock_guard<std::mutex> lock(const_cast<Shard<double>&>(s).mu);
    total += s.bytes;
  }
  for (const Shard<float>& s : shards_f_) {
    std::lock_guard<std::mutex> lock(const_cast<Shard<float>&>(s).mu);
    total += s.bytes;
  }
  return total;
}

std::size_t WorkspacePool::cached_buffers() const {
  std::size_t total = 0;
  for (const Shard<double>& s : shards_) {
    std::lock_guard<std::mutex> lock(const_cast<Shard<double>&>(s).mu);
    for (const auto& [count, list] : s.free) total += list.size();
  }
  for (const Shard<float>& s : shards_f_) {
    std::lock_guard<std::mutex> lock(const_cast<Shard<float>&>(s).mu);
    for (const auto& [count, list] : s.free) total += list.size();
  }
  return total;
}

void WorkspacePool::clear() {
  for (Shard<double>& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.free.clear();
    s.bytes = 0;
  }
  for (Shard<float>& s : shards_f_) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.free.clear();
    s.bytes = 0;
  }
}

}  // namespace fsi::sched
