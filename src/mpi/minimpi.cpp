#include "fsi/mpi/minimpi.hpp"

#include <exception>

#include <omp.h>

#include "fsi/obs/metrics.hpp"
#include "fsi/obs/trace.hpp"
#include "fsi/sched/executor.hpp"

namespace fsi::mpi {

namespace detail {

/// Shared state of one run(): a generation barrier, a typed mailbox, and a
/// per-rank slot table for collectives.
struct Context {
  explicit Context(int n) : num_ranks(n), slots(static_cast<std::size_t>(n)) {}

  const int num_ranks;

  // --- generation barrier --------------------------------------------------
  std::mutex barrier_mutex;
  std::condition_variable barrier_cv;
  int barrier_waiting = 0;
  std::uint64_t barrier_generation = 0;
  /// A rank threw: barriers stop waiting, including ones a surviving rank
  /// reaches only after the failure (it would otherwise wait forever).
  bool aborted = false;

  void barrier() {
    std::unique_lock<std::mutex> lock(barrier_mutex);
    if (aborted) return;
    const std::uint64_t gen = barrier_generation;
    if (++barrier_waiting == num_ranks) {
      barrier_waiting = 0;
      ++barrier_generation;
      barrier_cv.notify_all();
    } else {
      barrier_cv.wait(lock, [&] { return barrier_generation != gen; });
    }
  }

  // --- point-to-point mailbox ----------------------------------------------
  struct Key {
    int src, dst, tag;
    bool operator<(const Key& o) const {
      if (src != o.src) return src < o.src;
      if (dst != o.dst) return dst < o.dst;
      return tag < o.tag;
    }
  };
  std::mutex mail_mutex;
  std::condition_variable mail_cv;
  std::map<Key, std::vector<std::vector<double>>> mailbox;  // FIFO per key

  // --- collective slots ----------------------------------------------------
  // Each rank parks a pointer to its local buffer, the relevant rank(s)
  // consume between two barriers.
  std::vector<const std::vector<double>*> slots;
  const std::vector<double>* root_buffer = nullptr;
  std::vector<double> collective_result;
};

}  // namespace detail

using detail::Context;

int Communicator::size() const { return ctx_->num_ranks; }

void Communicator::send(int dest, int tag, std::vector<double> data) {
  FSI_OBS_SPAN("mpi.send");
  FSI_CHECK(dest >= 0 && dest < size(), "send: invalid destination rank");
  obs::metrics::add(obs::metrics::Counter::MpiMessages, 1);
  obs::metrics::add(obs::metrics::Counter::MpiBytes,
                    data.size() * sizeof(double));
  {
    std::lock_guard<std::mutex> lock(ctx_->mail_mutex);
    ctx_->mailbox[{rank_, dest, tag}].push_back(std::move(data));
  }
  ctx_->mail_cv.notify_all();
}

std::vector<double> Communicator::recv(int source, int tag) {
  // The recv span includes the blocking wait, so sender/receiver imbalance
  // shows up as long mpi.recv spans in the trace.
  FSI_OBS_SPAN("mpi.recv");
  FSI_CHECK(source >= 0 && source < size(), "recv: invalid source rank");
  std::unique_lock<std::mutex> lock(ctx_->mail_mutex);
  const Context::Key key{source, rank_, tag};
  ctx_->mail_cv.wait(lock, [&] {
    auto it = ctx_->mailbox.find(key);
    return it != ctx_->mailbox.end() && !it->second.empty();
  });
  auto& queue = ctx_->mailbox[key];
  std::vector<double> out = std::move(queue.front());
  queue.erase(queue.begin());
  return out;
}

void Communicator::barrier() { ctx_->barrier(); }

void Communicator::bcast(std::vector<double>& data, int root) {
  FSI_CHECK(root >= 0 && root < size(), "bcast: invalid root");
  if (rank_ == root) ctx_->root_buffer = &data;
  ctx_->barrier();  // root buffer published
  if (rank_ != root) data = *ctx_->root_buffer;
  ctx_->barrier();  // all copies done before root's buffer may change
}

std::vector<double> Communicator::scatter(const std::vector<double>& sendbuf,
                                          std::size_t count, int root) {
  FSI_CHECK(root >= 0 && root < size(), "scatter: invalid root");
  if (rank_ == root) {
    FSI_CHECK(sendbuf.size() == count * static_cast<std::size_t>(size()),
              "scatter: send buffer must hold size() * count elements");
    ctx_->root_buffer = &sendbuf;
  }
  ctx_->barrier();
  const double* base = ctx_->root_buffer->data() +
                       count * static_cast<std::size_t>(rank_);
  std::vector<double> chunk(base, base + count);
  ctx_->barrier();
  return chunk;
}

std::vector<double> Communicator::reduce_sum(const std::vector<double>& local,
                                             int root) {
  FSI_CHECK(root >= 0 && root < size(), "reduce_sum: invalid root");
  ctx_->slots[static_cast<std::size_t>(rank_)] = &local;
  ctx_->barrier();  // all contributions published
  std::vector<double> out;
  if (rank_ == root) {
    out.assign(local.size(), 0.0);
    for (int r = 0; r < size(); ++r) {
      const auto& contrib = *ctx_->slots[static_cast<std::size_t>(r)];
      FSI_CHECK(contrib.size() == out.size(),
                "reduce_sum: all ranks must contribute equal-sized buffers");
      for (std::size_t i = 0; i < out.size(); ++i) out[i] += contrib[i];
    }
  }
  ctx_->barrier();  // locals stay alive until the root has summed
  return out;
}

std::vector<double> Communicator::allreduce_sum(const std::vector<double>& local) {
  ctx_->slots[static_cast<std::size_t>(rank_)] = &local;
  ctx_->barrier();
  if (rank_ == 0) {
    auto& result = ctx_->collective_result;
    result.assign(local.size(), 0.0);
    for (int r = 0; r < size(); ++r) {
      const auto& contrib = *ctx_->slots[static_cast<std::size_t>(r)];
      FSI_CHECK(contrib.size() == result.size(),
                "allreduce_sum: all ranks must contribute equal-sized buffers");
      for (std::size_t i = 0; i < result.size(); ++i) result[i] += contrib[i];
    }
  }
  ctx_->barrier();  // result ready
  std::vector<double> out = ctx_->collective_result;
  ctx_->barrier();  // all copies taken before result may be reused
  return out;
}

std::vector<double> Communicator::gather(const std::vector<double>& local,
                                         int root) {
  FSI_CHECK(root >= 0 && root < size(), "gather: invalid root");
  ctx_->slots[static_cast<std::size_t>(rank_)] = &local;
  ctx_->barrier();
  std::vector<double> out;
  if (rank_ == root) {
    out.reserve(local.size() * static_cast<std::size_t>(size()));
    for (int r = 0; r < size(); ++r) {
      const auto& contrib = *ctx_->slots[static_cast<std::size_t>(r)];
      FSI_CHECK(contrib.size() == local.size(),
                "gather: all ranks must contribute equal-sized buffers");
      out.insert(out.end(), contrib.begin(), contrib.end());
    }
  }
  ctx_->barrier();
  return out;
}

void run(int num_ranks, const std::function<void(Communicator&)>& body,
         int omp_threads_per_rank) {
  FSI_CHECK(num_ranks > 0, "run: need at least one rank");
  Context ctx(num_ranks);

  // Ranks run on the persistent executor pool instead of freshly spawned
  // threads: a DQMC run dispatches one rank batch per measurement sweep, and
  // re-creating OS threads (plus their OpenMP teams) between sweeps was pure
  // overhead.  The executor dispatches all num_ranks bodies concurrently —
  // required, since ranks block on each other's barriers — and restores each
  // worker's OMP team size afterwards.
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(num_ranks));
  sched::Executor::instance().run_ranks(
      num_ranks,
      [&](int r) {
        try {
          Communicator comm(ctx, r);
          body(comm);
        } catch (...) {
          errors[static_cast<std::size_t>(r)] = std::current_exception();
          // A failed rank must not deadlock the others at a barrier; there
          // is no recovery story (like real MPI's abort-on-error default),
          // so terminate the run.
          std::lock_guard<std::mutex> lock(ctx.barrier_mutex);
          ctx.aborted = true;
          ctx.barrier_waiting = 0;
          ++ctx.barrier_generation;
          ctx.barrier_cv.notify_all();
        }
      },
      omp_threads_per_rank);
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace fsi::mpi
