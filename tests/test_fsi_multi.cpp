/// Tests for the multi-pattern FSI driver.

#include <gtest/gtest.h>

#include <limits>

#include "fsi/dense/norms.hpp"
#include "fsi/obs/metrics.hpp"
#include "fsi/selinv/fsi.hpp"
#include "testing.hpp"

namespace {

using namespace fsi;
using dense::index_t;
using dense::Matrix;
using fsi::testing::expect_close;
using pcyclic::PCyclicMatrix;

TEST(FsiMulti, MatchesSinglePatternRuns) {
  util::Rng rng(91);
  PCyclicMatrix m = PCyclicMatrix::random(5, 12, rng);
  pcyclic::BlockOps ops(m);
  selinv::FsiOptions opts;
  opts.c = 4;
  opts.q = 2;

  const std::vector<pcyclic::Pattern> patterns{
      pcyclic::Pattern::AllDiagonals, pcyclic::Pattern::Rows,
      pcyclic::Pattern::Columns, pcyclic::Pattern::SubDiagonal};
  selinv::FsiStats stats;
  auto multi = selinv::fsi_multi(m, ops, patterns, opts, rng, &stats);
  ASSERT_EQ(multi.size(), patterns.size());
  EXPECT_EQ(stats.q, 2);

  for (std::size_t p = 0; p < patterns.size(); ++p) {
    selinv::FsiOptions single = opts;
    single.pattern = patterns[p];
    auto ref = selinv::fsi(m, ops, single, opts.q >= 0 ? rng : rng);
    ASSERT_EQ(multi[p].size(), ref.size());
    for (const auto& [k, col] : ref.keys())
      expect_close(multi[p].at(k, col), ref.at(k, col), 0.0,
                   pcyclic::pattern_name(patterns[p]));
  }
}

TEST(FsiMulti, SharedReductionCostsOneClsAndBsofi) {
  util::Rng rng(92);
  PCyclicMatrix m = PCyclicMatrix::random(8, 12, rng);
  pcyclic::BlockOps ops(m);
  selinv::FsiOptions opts;
  opts.c = 3;
  opts.q = 0;

  selinv::FsiStats one, three;
  (void)selinv::fsi_multi(m, ops, {pcyclic::Pattern::Diagonal}, opts, rng, &one);
  (void)selinv::fsi_multi(m, ops,
                          {pcyclic::Pattern::Diagonal, pcyclic::Pattern::Rows,
                           pcyclic::Pattern::Columns},
                          opts, rng, &three);
  // CLS and BSOFI flops must be identical — they are shared, not repeated.
  EXPECT_EQ(one.flops_cls, three.flops_cls);
  EXPECT_EQ(one.flops_bsofi, three.flops_bsofi);
  EXPECT_GT(three.flops_wrap, one.flops_wrap);
}

TEST(FsiMulti, GraphExecutorBitIdenticalToOmpLoops) {
  util::Rng rng(96);
  PCyclicMatrix m = PCyclicMatrix::random(5, 12, rng);
  pcyclic::BlockOps ops(m);
  const std::vector<pcyclic::Pattern> patterns{
      pcyclic::Pattern::AllDiagonals, pcyclic::Pattern::Rows,
      pcyclic::Pattern::Columns};

  selinv::FsiOptions loops;
  loops.c = 4;
  loops.exec = selinv::FsiOptions::Exec::OmpLoops;
  util::Rng rng_loops(7);
  selinv::FsiStats stats_loops;
  const auto ref =
      selinv::fsi_multi(m, ops, patterns, loops, rng_loops, &stats_loops);

  selinv::FsiOptions graph = loops;
  graph.exec = selinv::FsiOptions::Exec::Graph;
  util::Rng rng_graph(7);
  selinv::FsiStats stats_graph;
  const auto got =
      selinv::fsi_multi(m, ops, patterns, graph, rng_graph, &stats_graph);

  // Same rng stream -> same wrapping offset q, and every entry must agree
  // to the last bit: graph nodes run the identical serial kernel sequences
  // on disjoint outputs.
  EXPECT_EQ(stats_graph.q, stats_loops.q);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    ASSERT_EQ(got[p].size(), ref[p].size());
    for (const auto& [k, col] : ref[p].keys())
      expect_close(got[p].at(k, col), ref[p].at(k, col), 0.0,
                   pcyclic::pattern_name(patterns[p]));
  }
  // Graph-mode stage seconds come from node-span sums and must be populated.
  EXPECT_GT(stats_graph.seconds_cls, 0.0);
  EXPECT_GT(stats_graph.seconds_bsofi, 0.0);
  EXPECT_GT(stats_graph.seconds_wrap, 0.0);
  EXPECT_EQ(stats_graph.flops_cls, stats_loops.flops_cls);
  EXPECT_EQ(stats_graph.flops_bsofi, stats_loops.flops_bsofi);
  EXPECT_EQ(stats_graph.flops_wrap, stats_loops.flops_wrap);
}

TEST(FsiMulti, MixedGraphExecutorBitIdenticalToOmpLoops) {
  // A Mixed call runs the same templated pipeline at T = float in either
  // execution shape, and on default options it takes the graph executor.
  const selinv::MixedGate saved = selinv::mixed_gate();
  selinv::set_mixed_gate({std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::infinity()});
  util::Rng rng(96);
  PCyclicMatrix m = PCyclicMatrix::random(5, 12, rng);
  pcyclic::BlockOps ops(m);
  const std::vector<pcyclic::Pattern> patterns{
      pcyclic::Pattern::AllDiagonals, pcyclic::Pattern::Rows,
      pcyclic::Pattern::Columns};

  selinv::FsiOptions loops;
  loops.c = 4;
  loops.precision = Precision::Mixed;
  loops.exec = selinv::FsiOptions::Exec::OmpLoops;
  util::Rng rng_loops(7);
  selinv::FsiStats stats_loops;
  const auto ref =
      selinv::fsi_multi(m, ops, patterns, loops, rng_loops, &stats_loops);

  selinv::FsiOptions defaults = loops;
  defaults.exec = selinv::FsiOptions::Exec::Auto;
  const auto nodes_before =
      obs::metrics::total(obs::metrics::Counter::ExecNodes);
  util::Rng rng_graph(7);
  selinv::FsiStats stats_graph;
  const auto got =
      selinv::fsi_multi(m, ops, patterns, defaults, rng_graph, &stats_graph);
  EXPECT_GT(obs::metrics::total(obs::metrics::Counter::ExecNodes),
            nodes_before);
  selinv::set_mixed_gate(saved);

  EXPECT_EQ(stats_loops.precision_used, Precision::Mixed);
  EXPECT_EQ(stats_graph.precision_used, Precision::Mixed);
  EXPECT_EQ(stats_graph.q, stats_loops.q);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    ASSERT_EQ(got[p].size(), ref[p].size());
    for (const auto& [k, col] : ref[p].keys())
      expect_close(got[p].at(k, col), ref[p].at(k, col), 0.0,
                   pcyclic::pattern_name(patterns[p]));
  }
  EXPECT_EQ(stats_graph.flops_cls, stats_loops.flops_cls);
  EXPECT_EQ(stats_graph.flops_bsofi, stats_loops.flops_bsofi);
  EXPECT_EQ(stats_graph.flops_wrap, stats_loops.flops_wrap);
}

TEST(FsiMulti, SinglePatternGraphMatchesLoops) {
  util::Rng rng(97);
  PCyclicMatrix m = PCyclicMatrix::random(4, 10, rng);
  pcyclic::BlockOps ops(m);
  selinv::FsiOptions opts;
  opts.c = 5;
  opts.q = 3;
  opts.pattern = pcyclic::Pattern::Columns;

  opts.exec = selinv::FsiOptions::Exec::OmpLoops;
  const auto ref = selinv::fsi(m, ops, opts, rng);
  opts.exec = selinv::FsiOptions::Exec::Graph;
  const auto got = selinv::fsi(m, ops, opts, rng);
  ASSERT_EQ(got.size(), ref.size());
  for (const auto& [k, col] : ref.keys())
    expect_close(got.at(k, col), ref.at(k, col), 0.0, "columns");
}

TEST(FsiMulti, EmptyPatternListThrows) {
  util::Rng rng(93);
  PCyclicMatrix m = PCyclicMatrix::random(3, 4, rng);
  pcyclic::BlockOps ops(m);
  selinv::FsiOptions opts;
  opts.c = 2;
  EXPECT_THROW(selinv::fsi_multi(m, ops, {}, opts, rng), util::CheckError);
}

}  // namespace
