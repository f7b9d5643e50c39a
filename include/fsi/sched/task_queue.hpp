#pragma once
/// \file task_queue.hpp
/// \brief Per-worker task deque with steal-half semantics.
///
/// Each graph worker owns one deque, preloaded with its static share of
/// the ready nodes.  The owner pops from the front (preserving the preload
/// order); an idle thief takes the *back half* in one locked operation, so
/// a single steal rebalances a large backlog instead of migrating tasks one
/// by one.  A plain mutex + std::deque is deliberate: FSI tasks cost
/// milliseconds to seconds of dense linear algebra, so queue-operation
/// latency is noise and the simple structure is trivially correct under the
/// owner/thief race (unlike Chase-Lev, there is nothing lock-free to get
/// subtly wrong).

#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

namespace fsi::sched {

class TaskDeque {
 public:
  /// Append a task at the back (preload, or re-queue of stolen work).
  void push(std::uint32_t task) {
    std::lock_guard<std::mutex> lock(mu_);
    q_.push_back(task);
  }

  /// Prepend a task at the front.  The graph executor pushes newly-ready
  /// successors here so the owner continues depth-first (bounding the live
  /// intermediates of a task chain) while thieves still take the coarse
  /// future work from the back.
  void push_front(std::uint32_t task) {
    std::lock_guard<std::mutex> lock(mu_);
    q_.push_front(task);
  }

  /// Owner pop from the front.  Returns false when the deque is empty.
  bool pop(std::uint32_t& task) {
    std::lock_guard<std::mutex> lock(mu_);
    if (q_.empty()) return false;
    task = q_.front();
    q_.pop_front();
    return true;
  }

  /// Thief: move the back ceil(size/2) tasks into \p out (front-to-back
  /// order preserved).  Returns the number of tasks taken (0 if empty).
  std::size_t steal_half(std::vector<std::uint32_t>& out) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t take = (q_.size() + 1) / 2;
    for (std::size_t i = 0; i < take; ++i) {
      out.push_back(q_[q_.size() - take + i]);
    }
    q_.erase(q_.end() - static_cast<std::ptrdiff_t>(take), q_.end());
    return take;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return q_.size();
  }

 private:
  mutable std::mutex mu_;
  std::deque<std::uint32_t> q_;
};

}  // namespace fsi::sched
