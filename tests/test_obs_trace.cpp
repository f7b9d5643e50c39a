/// Tests for the fsi::obs subsystem: span recording and nesting, thread
/// attribution, counter merge across threads, disabled-mode no-op, and a
/// schema validation of the exported chrome://tracing JSON for a real FSI
/// run (it must parse and contain the CLS/BSOFI/WRP stage spans).

#include <gtest/gtest.h>

#include <stdlib.h>

#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fsi/obs/metrics.hpp"
#include "fsi/obs/report.hpp"
#include "fsi/obs/trace.hpp"
#include "fsi/selinv/fsi.hpp"
#include "fsi/util/flops.hpp"

#include "json_checker.hpp"

namespace {

using namespace fsi;
using fsi::testing::JsonChecker;

/// RAII: enable tracing on a clean slate, restore disabled + clean on exit.
struct TraceSession {
  TraceSession() {
    obs::clear();
    obs::set_enabled(true);
  }
  ~TraceSession() {
    obs::set_enabled(false);
    obs::clear();
  }
};

TEST(ObsTrace, DisabledModeRecordsNothing) {
  obs::set_enabled(false);
  obs::clear();
  {
    obs::Span outer("noop.outer");
    FSI_OBS_SPAN("noop.inner");
  }
  EXPECT_TRUE(obs::summary().empty());
  EXPECT_EQ(obs::total_seconds("noop.outer"), 0.0);
  // The exported document is still valid JSON, just with no events.
  JsonChecker checker(obs::chrome_trace_json());
  EXPECT_TRUE(checker.parse());
}

TEST(ObsTrace, SpanNestingAndSummary) {
  TraceSession session;
  {
    obs::Span outer("nest.outer");
    for (int i = 0; i < 3; ++i) {
      FSI_OBS_SPAN("nest.inner");
    }
  }
  const auto stats = obs::summary();
  ASSERT_EQ(stats.size(), 2u);
  double outer_total = 0.0, inner_total = 0.0;
  std::uint64_t inner_count = 0;
  for (const auto& s : stats) {
    if (s.name == "nest.outer") outer_total = s.total_s;
    if (s.name == "nest.inner") {
      inner_total = s.total_s;
      inner_count = s.count;
      EXPECT_LE(s.min_s, s.p50_s);
      EXPECT_LE(s.p50_s, s.max_s);
    }
  }
  EXPECT_EQ(inner_count, 3u);
  // The outer span encloses all inner spans.
  EXPECT_GE(outer_total, inner_total);
  EXPECT_DOUBLE_EQ(obs::total_seconds("nest.outer"), outer_total);
}

TEST(ObsTrace, ThreadAttribution) {
  TraceSession session;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t)
    workers.emplace_back([] { FSI_OBS_SPAN("attr.worker"); });
  for (auto& w : workers) w.join();

  const auto stats = obs::summary();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].count, 4u);

  // Each std::thread records under its own tid in the chrome export.
  const std::string json = obs::chrome_trace_json();
  JsonChecker checker(json);
  ASSERT_TRUE(checker.parse()) << json;
  EXPECT_EQ(checker.numbers_for("tid").size(), 4u);
}

TEST(ObsTrace, CounterMergeAcrossThreads) {
  namespace m = obs::metrics;
  // ServeRequests: no other code in this binary (no serve layer) adds to it.
  m::reset(m::Counter::ServeRequests);
  m::Scope scope(m::Counter::ServeRequests);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t)
    workers.emplace_back([] { m::add(m::Counter::ServeRequests, 25); });
  for (auto& w : workers) w.join();
  m::add(m::Counter::ServeRequests, 1);
  EXPECT_EQ(scope.elapsed(), 101u);

  // The flops façade feeds the same registry.
  util::flops::reset();
  util::flops::add(42);
  EXPECT_EQ(m::total(m::Counter::Flops), 42u);
  EXPECT_EQ(util::flops::total(), 42u);

  // snapshot() covers every counter with a stable name.
  const auto snap = m::snapshot();
  ASSERT_EQ(snap.size(), static_cast<std::size_t>(m::Counter::kCount));
  EXPECT_STREQ(snap[0].first, "flops");
}

TEST(ObsTrace, TraceIdTagsExportedEvents) {
  TraceSession session;
  obs::record_interval("tagged.op", 1000, 2000, /*trace_id=*/48879);
  obs::record_interval("plain.op", 3000, 4000);
  const std::string json = obs::chrome_trace_json();
  JsonChecker checker(json);
  ASSERT_TRUE(checker.parse()) << json;
  // The tagged event exports its correlation id in args; the untagged one
  // stays clean (exactly one trace_id key in the document).
  EXPECT_NE(json.find("\"trace_id\":48879"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"trace_id\":0"), std::string::npos) << json;

  // The process-wide active trace tags 3-arg intervals (the executor-span
  // correlation path the serve batcher uses).
  obs::set_active_trace(1234);
  obs::record_interval("active.op", 5000, 6000);
  obs::set_active_trace(0);
  EXPECT_EQ(obs::active_trace(), 0u);
  EXPECT_NE(obs::chrome_trace_json().find("\"trace_id\":1234"),
            std::string::npos);
}

TEST(ObsTrace, ExportedFsiTraceIsValidAndContainsStageSpans) {
  TraceSession session;

  util::Rng rng(7);
  const dense::index_t n = 4, l = 12, c = 3;
  pcyclic::PCyclicMatrix m = pcyclic::PCyclicMatrix::random(n, l, rng);
  pcyclic::BlockOps ops(m);
  selinv::FsiOptions opts;
  opts.c = c;
  opts.q = 1;
  selinv::FsiStats stats;
  (void)selinv::fsi(m, ops, opts, rng, &stats);

  const std::string json = obs::chrome_trace_json();
  JsonChecker checker(json);
  ASSERT_TRUE(checker.parse()) << json;

  // Schema: the CLS/BSOFI/WRP stage spans and their per-iteration children
  // must be present by name.
  const auto& names = checker.strings_for("name");
  EXPECT_TRUE(names.count("fsi.cls")) << json;
  EXPECT_TRUE(names.count("fsi.bsofi")) << json;
  EXPECT_TRUE(names.count("fsi.wrap")) << json;
  EXPECT_TRUE(names.count("cls.cluster"));
  EXPECT_TRUE(names.count("wrp.seed"));
  EXPECT_TRUE(names.count("bsofi.factor"));
  // Chrome requires ph/ts/dur on complete events; all ours are "X".
  EXPECT_TRUE(checker.strings_for("ph").count("X"));

  // The span-derived stage time matches the FsiStats measurement.
  EXPECT_NEAR(obs::total_seconds("fsi.cls"), stats.seconds_cls,
              0.2 * stats.seconds_cls + 1e-4);

  // Model-vs-measured report joins cleanly and prices the stages.
  selinv::ComplexityModel cm{n, l, c};
  obs::Report report =
      obs::make_fsi_report(stats, cm, pcyclic::Pattern::Columns, 10.0);
  ASSERT_EQ(report.rows().size(), 3u);
  EXPECT_EQ(report.rows()[0].name, "CLS");
  EXPECT_DOUBLE_EQ(report.rows()[0].predicted_flops, cm.cls_flops());
  EXPECT_GT(report.total().measured_flops, 0.0);
  JsonChecker report_checker(report.json());
  EXPECT_TRUE(report_checker.parse()) << report.json();
}

TEST(ObsTrace, TraceArtifactsRouteThroughArtifactDir) {
  TraceSession session;
  { FSI_OBS_SPAN("route.me"); }

  char dir_template[] = "/tmp/fsi_trace_route_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string dir(dir_template);

  const char* old_bench = std::getenv("FSI_BENCH_DIR");
  const std::string saved_bench = old_bench != nullptr ? old_bench : "";
  const char* old_file = std::getenv("FSI_TRACE_FILE");
  const std::string saved_file = old_file != nullptr ? old_file : "";
  ::unsetenv("FSI_TRACE_FILE");
  ::setenv("FSI_BENCH_DIR", dir.c_str(), 1);

  // A bare basename lands under artifact_dir(), next to BENCH_*.json.
  const std::string routed = obs::write_trace_if_enabled("routing_check");
  EXPECT_EQ(routed, dir + "/routing_check.trace.json");
  EXPECT_TRUE(std::filesystem::exists(routed));

  // An explicit path (contains '/') is honoured verbatim.
  const std::string verbatim = obs::write_trace_if_enabled(dir + "/verbatim");
  EXPECT_EQ(verbatim, dir + "/verbatim.trace.json");
  EXPECT_TRUE(std::filesystem::exists(verbatim));

  // $FSI_TRACE_FILE overrides both.
  const std::string forced = dir + "/forced.json";
  ::setenv("FSI_TRACE_FILE", forced.c_str(), 1);
  EXPECT_EQ(obs::write_trace_if_enabled("ignored_basename"), forced);
  EXPECT_TRUE(std::filesystem::exists(forced));

  if (saved_file.empty())
    ::unsetenv("FSI_TRACE_FILE");
  else
    ::setenv("FSI_TRACE_FILE", saved_file.c_str(), 1);
  if (saved_bench.empty())
    ::unsetenv("FSI_BENCH_DIR");
  else
    ::setenv("FSI_BENCH_DIR", saved_bench.c_str(), 1);
  std::filesystem::remove_all(dir);
}

TEST(ObsTrace, ClearResetsEventsButNotCounters) {
  TraceSession session;
  namespace m = obs::metrics;
  m::reset(m::Counter::KernelCalls);
  m::add(m::Counter::KernelCalls, 5);
  { FSI_OBS_SPAN("clear.me"); }
  EXPECT_FALSE(obs::summary().empty());
  obs::clear();
  EXPECT_TRUE(obs::summary().empty());
  EXPECT_EQ(m::total(m::Counter::KernelCalls), 5u);
}

}  // namespace
