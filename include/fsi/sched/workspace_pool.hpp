#pragma once
/// \file workspace_pool.hpp
/// \brief No-op stand-in for the deleted workspace pool.
///
/// FSI buffers are plain dense::BasicMatrix values freed by their
/// destructors; nothing caches them.  This header remains only until a
/// benchmark PR drops perfbench's pool calls: global().clear() in its
/// set-up and global().cached_bytes() in its per-layer ledger.

#include <cstddef>

namespace fsi::sched {

struct WorkspacePool {
  static WorkspacePool& global() {
    static WorkspacePool pool;
    return pool;
  }
  void clear() {}
  std::size_t cached_bytes() const { return 0; }
};

}  // namespace fsi::sched
