#pragma once
/// \file exporter.hpp
/// \brief OpenMetrics text exposition of the whole metrics registry.
///
/// Renders every counter, gauge, accumulator and histogram from
/// metrics.hpp in the OpenMetrics text format (the format Prometheus
/// scrapes), so a standard monitoring stack can watch a live daemon with
/// zero custom glue:
///
///   - counters        -> `fsi_<name>` counter families (`_total` samples)
///   - gauges          -> `fsi_<name>` gauge families
///   - accumulators    -> `fsi_<name>` counter families (seconds, monotone)
///   - lifetime hists  -> `fsi_<name>` histogram families: cumulative
///                        `_bucket{le="..."}` series over the decade
///                        buckets, plus `_sum` and `_count`
///   - windowed hists  -> `fsi_<name>_window_{p50,p95,p99,count}` gauges
///                        (the rolling last-10-seconds percentiles)
///   - build info      -> `fsi_build_info{version=...,git_sha=...} 1`
///
/// The document ends with the mandatory `# EOF` terminator.  Two
/// transports consume this renderer: write_openmetrics() (textfile-
/// collector mode, e.g. node_exporter's textfile directory) and the
/// embedded HTTP listener in fsi::serve (serve/metrics_http.hpp), which
/// answers `GET /metrics` on `fsi_serve --metrics`.

#include <string>

namespace fsi::obs {

/// MIME type a compliant scrape endpoint must answer with.
inline constexpr const char* kOpenMetricsContentType =
    "application/openmetrics-text; version=1.0.0; charset=utf-8";

/// The full registry rendered as one OpenMetrics text document
/// (terminated by "# EOF\n").  Thread-safe; merges slots on read.
std::string openmetrics();

/// Write openmetrics() to \p path atomically enough for textfile
/// collectors (write to "<path>.tmp", then rename).  Returns false on any
/// I/O error.
bool write_openmetrics(const std::string& path);

}  // namespace fsi::obs
