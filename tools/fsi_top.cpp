/// \file fsi_top.cpp
/// \brief Live terminal dashboard for a running fsi_serve daemon.
///
/// Usage:
///   fsi_top --socket unix:/tmp/fsi.sock [--interval-ms 1000] [--count 0]
///           [--json]
///
/// Polls the daemon's StatsRequest endpoint and redraws a one-screen
/// summary: uptime, request rate, queue depth against capacity, lifetime
/// counters, the rolling-window latency / queue-wait percentiles, batch
/// occupancy and model-cache hit rate.  --json suppresses the
/// dashboard and prints one snapshot as a single JSON object (machine
/// consumption: the CI smoke test and scripts), then exits.  --count N
/// stops after N polls (0 = until interrupted).
///
/// A daemon restart does not kill the dashboard: on a failed poll (or a
/// failed connect) fsi_top shows a "disconnected" banner and retries with
/// bounded exponential backoff (250 ms doubling to 5 s) until the daemon
/// returns or the user interrupts.  --json keeps the old fail-fast exit so
/// scripts see a dead daemon as a nonzero status.

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <optional>
#include <string>

#include <thread>

#include "fsi/obs/build.hpp"
#include "fsi/serve/client.hpp"
#include "fsi/util/cli.hpp"

namespace {

using namespace fsi;

volatile std::sig_atomic_t g_stop_requested = 0;

void handle_signal(int) { g_stop_requested = 1; }

void print_window(const char* label, const serve::WindowStat& w,
                  double scale, const char* unit) {
  std::printf("  %-12s n=%-6llu mean %8.3f  p50 %8.3f  p95 %8.3f  "
              "p99 %8.3f %s\n",
              label, static_cast<unsigned long long>(w.count),
              w.mean * scale, w.p50 * scale, w.p95 * scale, w.p99 * scale,
              unit);
}

std::string policy_rows_json(const serve::StatsResponse& s) {
  std::string out = "[";
  for (std::size_t i = 0; i < s.policy_rows.size(); ++i) {
    const serve::PolicyKeyRow& r = s.policy_rows[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"key_hash\":\"%016llx\",\"window_us\":%lld,"
                  "\"max_batch\":%llu,\"bypass\":%s,\"speedup\":%.4f}",
                  i == 0 ? "" : ",",
                  static_cast<unsigned long long>(r.key_hash),
                  static_cast<long long>(r.window_us),
                  static_cast<unsigned long long>(r.max_batch),
                  r.bypass ? "true" : "false", r.speedup);
    out += buf;
  }
  out += "]";
  return out;
}

void print_json(const serve::StatsResponse& s) {
  const auto win = [](const serve::WindowStat& w) {
    static char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"count\":%llu,\"mean\":%.9g,\"p50\":%.9g,"
                  "\"p95\":%.9g,\"p99\":%.9g}",
                  static_cast<unsigned long long>(w.count), w.mean, w.p50,
                  w.p95, w.p99);
    return std::string(buf);
  };
  std::printf(
      "{\"uptime_s\":%.3f,"
      "\"connections\":%llu,\"admitted\":%llu,\"served_ok\":%llu,"
      "\"rejected_full\":%llu,\"deadline_miss\":%llu,\"cancelled\":%llu,"
      "\"malformed\":%llu,\"errors\":%llu,\"shed_shutdown\":%llu,"
      "\"batches\":%llu,\"batched_requests\":%llu,"
      "\"models_built\":%llu,\"model_cache_hits\":%llu,"
      "\"model_cache_size\":%llu,\"model_cache_hit_rate\":%.4f,"
      "\"queue_depth\":%llu,\"queue_high_water\":%llu,"
      "\"queue_capacity\":%llu,"
      "\"rejected_quota\":%llu,\"replicas\":%llu,"
      "\"adaptive_enabled\":%s,\"policy_keys\":%llu,"
      "\"policy_window_us\":%lld,\"policy_max_batch\":%llu,"
      "\"policy_bypass\":%s,\"policy_speedup\":%.4f,"
      "\"bypass_enters\":%llu,\"bypass_exits\":%llu,"
      "\"mixed_runs\":%llu,\"mixed_fallbacks\":%llu,"
      "\"policy_rows\":%s,"
      "\"latency_s\":%s,\"queue_wait_s\":%s,\"occupancy\":%s}\n",
      static_cast<double>(s.uptime_ns) * 1e-9,
      static_cast<unsigned long long>(s.connections),
      static_cast<unsigned long long>(s.admitted),
      static_cast<unsigned long long>(s.served_ok),
      static_cast<unsigned long long>(s.rejected_full),
      static_cast<unsigned long long>(s.deadline_miss),
      static_cast<unsigned long long>(s.cancelled),
      static_cast<unsigned long long>(s.malformed),
      static_cast<unsigned long long>(s.errors),
      static_cast<unsigned long long>(s.shed_shutdown),
      static_cast<unsigned long long>(s.batches),
      static_cast<unsigned long long>(s.batched_requests),
      static_cast<unsigned long long>(s.models_built),
      static_cast<unsigned long long>(s.model_cache_hits),
      static_cast<unsigned long long>(s.model_cache_size),
      s.model_cache_hit_rate(),
      static_cast<unsigned long long>(s.queue_depth),
      static_cast<unsigned long long>(s.queue_high_water),
      static_cast<unsigned long long>(s.queue_capacity),
      static_cast<unsigned long long>(s.rejected_quota),
      static_cast<unsigned long long>(s.replicas),
      s.adaptive_enabled ? "true" : "false",
      static_cast<unsigned long long>(s.policy_keys),
      static_cast<long long>(s.policy_window_us),
      static_cast<unsigned long long>(s.policy_max_batch),
      s.policy_bypass ? "true" : "false", s.policy_speedup,
      static_cast<unsigned long long>(s.bypass_enters),
      static_cast<unsigned long long>(s.bypass_exits),
      static_cast<unsigned long long>(s.mixed_runs),
      static_cast<unsigned long long>(s.mixed_fallbacks),
      policy_rows_json(s).c_str(),
      win(s.latency_s).c_str(), win(s.queue_wait_s).c_str(),
      win(s.occupancy).c_str());
}

void print_dashboard(const std::string& endpoint,
                     const serve::StatsResponse& s, double req_per_s) {
  // Home + clear-to-end keeps the redraw flicker-free on a normal terminal.
  std::printf("\x1b[H\x1b[J");
  std::printf("fsi_top — %s   uptime %.1f s\n\n", endpoint.c_str(),
              static_cast<double>(s.uptime_ns) * 1e-9);
  std::printf("  rate         %.1f ok/s   queue %llu / %llu (high water "
              "%llu)\n",
              req_per_s, static_cast<unsigned long long>(s.queue_depth),
              static_cast<unsigned long long>(s.queue_capacity),
              static_cast<unsigned long long>(s.queue_high_water));
  std::printf("  lifetime     conn %llu  admitted %llu  ok %llu  "
              "retry-after %llu  deadline-miss %llu\n",
              static_cast<unsigned long long>(s.connections),
              static_cast<unsigned long long>(s.admitted),
              static_cast<unsigned long long>(s.served_ok),
              static_cast<unsigned long long>(s.rejected_full),
              static_cast<unsigned long long>(s.deadline_miss));
  std::printf("               cancelled %llu  malformed %llu  errors %llu  "
              "shed %llu\n",
              static_cast<unsigned long long>(s.cancelled),
              static_cast<unsigned long long>(s.malformed),
              static_cast<unsigned long long>(s.errors),
              static_cast<unsigned long long>(s.shed_shutdown));
  std::printf("  batching     %llu batches carrying %llu requests "
              "(lifetime mean %.2f/batch)\n",
              static_cast<unsigned long long>(s.batches),
              static_cast<unsigned long long>(s.batched_requests),
              s.batches > 0 ? static_cast<double>(s.batched_requests) /
                                  static_cast<double>(s.batches)
                            : 0.0);
  std::printf("  model cache  %llu built, %llu hits (%.0f%%), %llu "
              "resident\n",
              static_cast<unsigned long long>(s.models_built),
              static_cast<unsigned long long>(s.model_cache_hits),
              s.model_cache_hit_rate() * 100.0,
              static_cast<unsigned long long>(s.model_cache_size));
  // Adaptive-policy line: the active key's live tuning state —
  // docs/tuning.md walks an operator through reading it.
  if (!s.adaptive_enabled) {
    std::printf("  policy       static (adaptive off)  replicas %llu  "
                "over-quota %llu\n",
                static_cast<unsigned long long>(s.replicas),
                static_cast<unsigned long long>(s.rejected_quota));
  } else {
    std::printf("  policy       window %lld us  max-batch %llu  %s  "
                "speedup %.2f  keys %llu\n",
                static_cast<long long>(s.policy_window_us),
                static_cast<unsigned long long>(s.policy_max_batch),
                s.policy_bypass ? "BYPASS" : "coalesce", s.policy_speedup,
                static_cast<unsigned long long>(s.policy_keys));
    std::printf("               bypass enters %llu / exits %llu  "
                "replicas %llu  over-quota %llu\n",
                static_cast<unsigned long long>(s.bypass_enters),
                static_cast<unsigned long long>(s.bypass_exits),
                static_cast<unsigned long long>(s.replicas),
                static_cast<unsigned long long>(s.rejected_quota));
  }
  // Mixed-precision line: attempts and health-gate fallbacks.
  if (s.mixed_runs > 0) {
    std::printf("  precision    mixed runs %llu  fp64 fallbacks %llu "
                "(%.1f%%)\n",
                static_cast<unsigned long long>(s.mixed_runs),
                static_cast<unsigned long long>(s.mixed_fallbacks),
                100.0 * static_cast<double>(s.mixed_fallbacks) /
                    static_cast<double>(s.mixed_runs));
  }
  // Per-key policy table, most recently dispatched first.
  if (!s.policy_rows.empty()) {
    std::printf("\n  per-key policy (%zu tracked):\n", s.policy_rows.size());
    std::printf("    %-18s %10s %10s %9s %8s\n", "key", "window_us",
                "max_batch", "mode", "speedup");
    const std::size_t shown = std::min<std::size_t>(s.policy_rows.size(), 8);
    for (std::size_t i = 0; i < shown; ++i) {
      const serve::PolicyKeyRow& r = s.policy_rows[i];
      std::printf("    %016llx %10lld %10llu %9s %8.2f\n",
                  static_cast<unsigned long long>(r.key_hash),
                  static_cast<long long>(r.window_us),
                  static_cast<unsigned long long>(r.max_batch),
                  r.bypass ? "BYPASS" : "coalesce", r.speedup);
    }
    if (shown < s.policy_rows.size())
      std::printf("    ... %zu more\n", s.policy_rows.size() - shown);
  }
  std::printf("\n  rolling window (last ~10 s):\n");
  print_window("latency", s.latency_s, 1e3, "ms");
  print_window("queue wait", s.queue_wait_s, 1e3, "ms");
  print_window("occupancy", s.occupancy, 1.0, "");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  if (cli.has("version")) {
    std::fputs(obs::version_line("fsi_top").c_str(), stdout);
    return 0;
  }
  const std::string socket_spec =
      cli.get_string("socket", "unix:fsi_serve.sock");
  const bool json = cli.has("json");
  const int interval_ms = cli.get_int("interval-ms", 1000);
  const int count = cli.get_int("count", json ? 1 : 0);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  constexpr int kBackoffMinMs = 250;
  constexpr int kBackoffMaxMs = 5000;

  std::optional<serve::Client> client;
  std::uint64_t last_ok = 0;
  std::uint64_t last_uptime_ns = 0;
  int polls = 0;
  int backoff_ms = kBackoffMinMs;
  bool was_disconnected = false;

  while (g_stop_requested == 0) {
    try {
      if (!client.has_value())
        client.emplace(serve::Endpoint::parse(socket_spec));
      const serve::StatsResponse s = client->stats();
      backoff_ms = kBackoffMinMs;
      if (json) {
        print_json(s);
      } else {
        // Rate from the served_ok delta over the daemon's own clock, so a
        // slow poll doesn't inflate it.  A restarted daemon's uptime runs
        // backwards past ours — treat that as a fresh baseline.
        double req_per_s = 0.0;
        if (polls > 0 && !was_disconnected && s.uptime_ns > last_uptime_ns &&
            s.served_ok >= last_ok)
          req_per_s = static_cast<double>(s.served_ok - last_ok) /
                      (static_cast<double>(s.uptime_ns - last_uptime_ns) *
                       1e-9);
        print_dashboard(socket_spec, s, req_per_s);
        last_ok = s.served_ok;
        last_uptime_ns = s.uptime_ns;
      }
      was_disconnected = false;
      ++polls;
      if (count > 0 && polls >= count) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    } catch (const std::exception& e) {
      // The daemon is gone (restart, crash, not yet up).  A dashboard
      // outlives it: drop the connection, show the outage, retry with
      // bounded backoff.  --json keeps the legacy fail-fast contract.
      if (json) {
        std::fprintf(stderr, "fsi_top: %s\n", e.what());
        return 1;
      }
      client.reset();
      if (!was_disconnected) std::printf("\x1b[H\x1b[J");
      was_disconnected = true;
      std::printf("\x1b[Hfsi_top — %s   [disconnected: %s; retrying in "
                  "%d ms]\x1b[K\n",
                  socket_spec.c_str(), e.what(), backoff_ms);
      std::fflush(stdout);
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, kBackoffMaxMs);
    }
  }
  return 0;
}
