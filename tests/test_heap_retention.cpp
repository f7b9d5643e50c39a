// Nothing outlives an FSI call: every entry point that runs the pipeline
// frees its buffers before it returns.  After a warm-up call on a 2x2
// lattice (so executor threads and per-thread buffers exist), one call on
// a 4x4 lattice (L = 40, c = 5, 2 workers) may leave the heap in use
// (mallinfo2 uordblks + hblkhd) less than one bN x bN reduced inverse
// above its level before the call — 128 x 128 doubles, 131 KB.  A cache
// of freed FSI buffers would keep megabytes.

#include <gtest/gtest.h>
#include <malloc.h>
#include <omp.h>

#include <cstddef>
#include <cstdlib>
#include <ostream>
#include <string>
#include <vector>

#include "fsi/qmc/dqmc.hpp"
#include "fsi/qmc/multi_gf.hpp"
#include "fsi/selinv/fsi.hpp"

namespace {

using namespace fsi;
using dense::index_t;

constexpr index_t kL = 40;
constexpr index_t kC = 5;
constexpr int kWorkers = 2;

/// Bytes of one bN x bN reduced inverse at the measured shape (N = 16).
constexpr std::size_t kReducedInverseBytes =
    sizeof(double) * (kL / kC * 16) * (kL / kC * 16);

struct HeapInUse {
  std::size_t bytes;
  bool measurable;  ///< false under ASan, whose allocator zeroes mallinfo2
};

HeapInUse heap_in_use() {
  const struct mallinfo2 m = mallinfo2();
  return {m.uordblks + m.hblkhd, m.uordblks != 0 || m.hblkhd != 0};
}

enum class Entry {
  FsiMultiGraph,
  FsiMultiOmpLoops,
  BatchFp64,
  BatchMixed,
  ParallelFsi,
  Dqmc,
};

const char* entry_name(Entry e) {
  switch (e) {
    case Entry::FsiMultiGraph: return "FsiMultiGraph";
    case Entry::FsiMultiOmpLoops: return "FsiMultiOmpLoops";
    case Entry::BatchFp64: return "BatchFp64";
    case Entry::BatchMixed: return "BatchMixed";
    case Entry::ParallelFsi: return "ParallelFsi";
    case Entry::Dqmc: return "Dqmc";
  }
  return "?";
}

void PrintTo(Entry e, std::ostream* os) { *os << entry_name(e); }

qmc::HubbardModel square_model(index_t side) {
  qmc::HubbardParams p;
  p.l = kL;
  return qmc::HubbardModel(qmc::Lattice::rectangle(side, side), p);
}

void fsi_multi_call(const qmc::HubbardModel& model,
                    selinv::FsiOptions::Exec exec) {
  util::Rng rng(7);
  const qmc::HsField field(kL, model.num_sites(), rng);
  const pcyclic::PCyclicMatrix m = model.build_m(field, qmc::Spin::Up);
  const pcyclic::BlockOps ops(m);
  selinv::FsiOptions opts;
  opts.c = kC;
  opts.q = 2;
  opts.exec = exec;
  opts.precision = Precision::Fp64;
  (void)selinv::fsi_multi(m, ops,
                          {pcyclic::Pattern::AllDiagonals,
                           pcyclic::Pattern::Rows, pcyclic::Pattern::Columns},
                          opts, rng);
}

void batch_call(const qmc::HubbardModel& model, Precision precision) {
  std::vector<qmc::FsiBatchTask> tasks;
  util::Rng rng(11);
  for (index_t t = 0; t < 4; ++t)
    tasks.push_back(
        qmc::FsiBatchTask{qmc::HsField(kL, model.num_sites(), rng), t % kC});
  qmc::FsiBatchOptions opts;
  opts.num_workers = kWorkers;
  opts.omp_threads_per_worker = 1;
  opts.cluster_size = kC;
  opts.precision = precision;
  (void)qmc::run_fsi_batch(model, tasks, opts);
}

void call(Entry entry, const qmc::HubbardModel& model) {
  switch (entry) {
    case Entry::FsiMultiGraph:
      fsi_multi_call(model, selinv::FsiOptions::Exec::Graph);
      return;
    case Entry::FsiMultiOmpLoops:
      fsi_multi_call(model, selinv::FsiOptions::Exec::OmpLoops);
      return;
    case Entry::BatchFp64:
      batch_call(model, Precision::Fp64);
      return;
    case Entry::BatchMixed:
      batch_call(model, Precision::Mixed);
      return;
    case Entry::ParallelFsi: {
      qmc::MultiGfOptions opts;
      opts.num_matrices = 3;
      opts.num_ranks = kWorkers;
      opts.omp_threads_per_rank = 1;
      opts.cluster_size = kC;
      (void)qmc::run_parallel_fsi(model, opts);
      return;
    }
    case Entry::Dqmc: {
      qmc::DqmcOptions opts;
      opts.warmup_sweeps = 1;
      opts.measurement_sweeps = 1;
      opts.cluster_size = kC;
      (void)qmc::run_dqmc(model, opts);
      return;
    }
  }
}

/// Two graph workers, each with a one-thread OpenMP team, so every thread
/// a call uses exists after the warm-up wherever a stolen node lands.  (A
/// wider team starts an OpenMP thread the first time a worker opens a
/// parallel region, and that thread's own buffers would count as retained.)
class HeapRetention : public ::testing::TestWithParam<Entry> {
 protected:
  void SetUp() override {
    saved_threads_ = omp_get_max_threads();
    omp_set_num_threads(1);
    ASSERT_EQ(setenv("FSI_EXEC_WORKERS", std::to_string(kWorkers).c_str(), 1),
              0);
  }
  void TearDown() override {
    unsetenv("FSI_EXEC_WORKERS");
    omp_set_num_threads(saved_threads_);
  }

 private:
  int saved_threads_ = 1;
};

TEST_P(HeapRetention, CallLeavesNoBufferBehind) {
  const qmc::HubbardModel warm = square_model(2);
  const qmc::HubbardModel model = square_model(4);
  call(GetParam(), warm);

  const HeapInUse before = heap_in_use();
  if (!before.measurable)
    GTEST_SKIP() << "mallinfo2 reads 0 (sanitizer allocator)";
  call(GetParam(), model);
  const HeapInUse after = heap_in_use();

  const std::size_t retained =
      after.bytes > before.bytes ? after.bytes - before.bytes : 0;
  EXPECT_LT(retained, kReducedInverseBytes)
      << entry_name(GetParam()) << " kept " << retained
      << " bytes after returning";
}

INSTANTIATE_TEST_SUITE_P(
    EntryPoints, HeapRetention,
    ::testing::Values(Entry::FsiMultiGraph, Entry::FsiMultiOmpLoops,
                      Entry::BatchFp64, Entry::BatchMixed,
                      Entry::ParallelFsi, Entry::Dqmc),
    [](const ::testing::TestParamInfo<Entry>& info) {
      return std::string(entry_name(info.param));
    });

}  // namespace
