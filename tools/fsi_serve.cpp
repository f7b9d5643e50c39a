/// \file fsi_serve.cpp
/// \brief The inversion daemon: bind a socket, serve batched selected
/// inversions until SIGINT/SIGTERM, then print statistics and write the
/// telemetry artifacts.
///
/// Usage:
///   fsi_serve --socket unix:/tmp/fsi.sock [--queue 64] [--window-us 2000]
///             [--max-batch 8] [--retry-after-ms 50] [--deadline-ms 0]
///             [--workers 0] [--trace] [--log access.jsonl]
///             [--metrics tcp:127.0.0.1:9464] [--replicas 1] [--quota 0]
///             [--no-adaptive] [--version]
///
/// The flags are the daemon's whole configuration; docs/serving.md lists
/// them.  A negative integer flag, or a value the Server rejects (a zero
/// --queue, --max-batch or --replicas), logs serve.fatal and exits 1.
/// --metrics opens an HTTP scrape endpoint answering GET /metrics in
/// OpenMetrics format and GET /healthz.
///
/// --replicas N runs N Server instances in this process sharing one TCP
/// port via SO_REUSEPORT (requires a tcp: endpoint when N > 1): the kernel
/// spreads incoming connections across the replicas' accept loops, and
/// each replica batches its own admission queue independently — see
/// docs/tuning.md for when that beats a single queue.  --quota caps the
/// queue slots one connection may hold (per replica); --no-adaptive pins
/// the batching policy to the static --window-us/--max-batch knobs.

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fsi/obs/build.hpp"
#include "fsi/obs/flight.hpp"
#include "fsi/obs/log.hpp"
#include "fsi/obs/metrics.hpp"
#include "fsi/obs/telemetry.hpp"
#include "fsi/obs/trace.hpp"
#include "fsi/serve/metrics_http.hpp"
#include "fsi/serve/server.hpp"
#include "fsi/util/check.hpp"
#include "fsi/util/cli.hpp"

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;

void handle_signal(int) { g_stop_requested = 1; }

/// Integer flag --name (\p fallback when absent), rejected when negative
/// so that no caller casts a negative value to an unsigned option.
int non_negative_flag(const fsi::util::Cli& cli, const std::string& name,
                      long long fallback) {
  const int v = cli.get_int(name, static_cast<int>(fallback));
  FSI_CHECK(v >= 0, "--" + name + " must be >= 0, got " + std::to_string(v));
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fsi;
  const util::Cli cli(argc, argv);
  if (cli.has("version")) {
    std::fputs(obs::version_line("fsi_serve").c_str(), stdout);
    return 0;
  }
  obs::flight::install_crash_handlers();
  if (cli.has("trace")) obs::set_enabled(true);

  serve::ServerOptions options;
  std::vector<std::unique_ptr<serve::Server>> servers;
  try {
    options.endpoint = serve::Endpoint::parse(
        cli.get_string("socket", options.endpoint.describe()));
    options.queue_depth = static_cast<std::size_t>(
        non_negative_flag(cli, "queue", options.queue_depth));
    options.batch_window_us =
        non_negative_flag(cli, "window-us", options.batch_window_us);
    options.max_batch = static_cast<std::size_t>(
        non_negative_flag(cli, "max-batch", options.max_batch));
    options.retry_after_ms = static_cast<std::uint32_t>(
        non_negative_flag(cli, "retry-after-ms", options.retry_after_ms));
    options.default_deadline_ms =
        non_negative_flag(cli, "deadline-ms", options.default_deadline_ms);
    options.batch.num_workers =
        non_negative_flag(cli, "workers", options.batch.num_workers);
    options.access_log = cli.get_string("log", options.access_log);
    options.metrics_endpoint =
        cli.get_string("metrics", options.metrics_endpoint);
    options.replicas = static_cast<std::size_t>(
        non_negative_flag(cli, "replicas", options.replicas));
    options.client_quota = static_cast<std::size_t>(
        non_negative_flag(cli, "quota", options.client_quota));
    if (cli.has("adaptive")) options.adaptive.enabled = true;
    if (cli.has("no-adaptive")) options.adaptive.enabled = false;
    if (options.replicas > 1) {
      FSI_CHECK(!options.endpoint.is_unix,
                "--replicas > 1 requires a tcp: endpoint");
      options.reuse_port = true;
    }

    // Replica 0 binds first (resolving port 0 if asked); the siblings then
    // bind the *resolved* endpoint so all replicas share one port.
    servers.push_back(std::make_unique<serve::Server>(options));
    servers.front()->start();
    options.endpoint = servers.front()->endpoint();
    for (std::size_t r = 1; r < options.replicas; ++r) {
      servers.push_back(std::make_unique<serve::Server>(options));
      servers.back()->start();
    }
  } catch (const std::exception& e) {
    FSI_LOG_ERROR("serve.fatal", {"reason", e.what()});
    return 1;
  }
  serve::Server& server = *servers.front();

  std::unique_ptr<serve::MetricsExporter> metrics_http;
  if (!options.metrics_endpoint.empty()) {
    try {
      metrics_http = std::make_unique<serve::MetricsExporter>(
          serve::Endpoint::parse(options.metrics_endpoint));
      metrics_http->start();
      std::printf("fsi_serve: metrics on http://%s/metrics\n",
                  metrics_http->endpoint().describe().c_str());
    } catch (const std::exception& e) {
      FSI_LOG_ERROR("serve.fatal",
                    {"reason", std::string("metrics endpoint: ") + e.what()});
      return 1;
    }
  }
  std::printf("fsi_serve: listening on %s (queue %zu, window %lld us, "
              "max batch %zu, replicas %zu)\n",
              server.endpoint().describe().c_str(), options.queue_depth,
              static_cast<long long>(options.batch_window_us),
              options.max_batch, options.replicas);
  std::fflush(stdout);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (g_stop_requested == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  if (metrics_http != nullptr) metrics_http->stop();
  for (auto& s : servers) s->stop();

  // Aggregate counters across replicas (one queue + batcher each).
  serve::ServerStats stats;
  for (const auto& s : servers) {
    const serve::ServerStats r = s->stats();
    stats.connections += r.connections;
    stats.admitted += r.admitted;
    stats.served_ok += r.served_ok;
    stats.rejected_full += r.rejected_full;
    stats.rejected_quota += r.rejected_quota;
    stats.deadline_miss += r.deadline_miss;
    stats.cancelled += r.cancelled;
    stats.malformed += r.malformed;
    stats.errors += r.errors;
    stats.shed_shutdown += r.shed_shutdown;
    stats.batches += r.batches;
    stats.batched_requests += r.batched_requests;
    stats.models_built += r.models_built;
    stats.model_cache_hits += r.model_cache_hits;
    stats.model_cache_size += r.model_cache_size;
    stats.queue_high_water = std::max(stats.queue_high_water,
                                      r.queue_high_water);
  }
  std::printf(
      "fsi_serve: %llu connections, %llu admitted, %llu ok, %llu retry-after "
      "(%llu over-quota), %llu deadline-miss, %llu cancelled, %llu malformed, "
      "%llu errors\n",
      static_cast<unsigned long long>(stats.connections),
      static_cast<unsigned long long>(stats.admitted),
      static_cast<unsigned long long>(stats.served_ok),
      static_cast<unsigned long long>(stats.rejected_full),
      static_cast<unsigned long long>(stats.rejected_quota),
      static_cast<unsigned long long>(stats.deadline_miss),
      static_cast<unsigned long long>(stats.cancelled),
      static_cast<unsigned long long>(stats.malformed),
      static_cast<unsigned long long>(stats.errors));
  std::printf("fsi_serve: %llu batches, mean occupancy %.2f, queue high water "
              "%zu, latency p50/p95/p99 = %.3f/%.3f/%.3f ms\n",
              static_cast<unsigned long long>(stats.batches),
              stats.batch_occupancy_mean(), stats.queue_high_water,
              server.latency_quantile(0.50) * 1e3,
              server.latency_quantile(0.95) * 1e3,
              server.latency_quantile(0.99) * 1e3);

  // Telemetry artifact: the serve histograms (latency, queue wait, batch
  // occupancy) land in the "hists" section; the explicit percentiles are
  // exported as metrics.  Both under obs::artifact_dir().
  obs::BenchTelemetry telemetry("fsi_serve");
  telemetry.add_info("endpoint", server.endpoint().describe());
  telemetry.add_metric("served_ok", static_cast<double>(stats.served_ok),
                       "requests");
  telemetry.add_metric("rejected_full",
                       static_cast<double>(stats.rejected_full), "requests",
                       false, false);
  telemetry.add_metric("deadline_miss",
                       static_cast<double>(stats.deadline_miss), "requests",
                       false, false);
  telemetry.add_metric("latency_p50_ms", server.latency_quantile(0.50) * 1e3,
                       "ms", false, false);
  telemetry.add_metric("latency_p95_ms", server.latency_quantile(0.95) * 1e3,
                       "ms", false, false);
  telemetry.add_metric("latency_p99_ms", server.latency_quantile(0.99) * 1e3,
                       "ms", false, false);
  telemetry.add_metric("batch_occupancy_mean", stats.batch_occupancy_mean(),
                       "requests");
  const std::string telemetry_path = telemetry.write();
  if (!telemetry_path.empty())
    std::printf("fsi_serve: telemetry written to %s\n", telemetry_path.c_str());
  const std::string trace_path = obs::write_trace_if_enabled("fsi_serve");
  if (!trace_path.empty())
    std::printf("fsi_serve: trace written to %s\n", trace_path.c_str());
  return 0;
}
