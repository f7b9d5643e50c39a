#include "fsi/obs/exporter.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "fsi/obs/build.hpp"
#include "fsi/obs/metrics.hpp"

namespace fsi::obs {
namespace {

using metrics::Accum;
using metrics::Counter;
using metrics::Gauge;
using metrics::Hist;

/// One-line HELP text per family.  OpenMetrics requires HELP/TYPE before
/// any sample of the family, each family contiguous.
const char* counter_help(Counter c) {
  switch (c) {
    case Counter::Flops: return "Floating point operations (textbook counts)";
    case Counter::BytesMoved: return "Bytes read+written by dense kernels";
    case Counter::KernelCalls: return "Dense kernel invocations";
    case Counter::PoolHits: return "Always 0 (workspace pool deleted)";
    case Counter::PoolMisses: return "Always 0 (workspace pool deleted)";
    case Counter::ExecNodes: return "Task-graph nodes executed";
    case Counter::ExecSteals: return "Graph-executor steal-half operations";
    case Counter::ServeRequests: return "Inversion requests admitted";
    case Counter::ServeBatches: return "Coalesced batches dispatched";
    case Counter::ServeRejected: return "Requests shed with RETRY-AFTER";
    case Counter::ServeDeadlineMiss: return "Requests past deadline on dispatch";
    case Counter::ServeCancelled: return "Requests dropped on disconnect";
    case Counter::ServeErrors: return "Requests answered Malformed or Error";
    case Counter::ServeQuotaRejected: return "Requests shed: client over quota";
    case Counter::ServeBypassEnter: return "Adaptive-policy bypass entries";
    case Counter::ServeBypassExit: return "Adaptive-policy bypass exits";
    case Counter::MixedRuns: return "FSI runs attempted in mixed precision";
    case Counter::MixedFallbacks: return "Mixed runs gated back to fp64";
    case Counter::StabQrp: return "Pivoted-QR steps in UDT chains";
    case Counter::StabRecombine: return "UDT recombination inversions";
    case Counter::GreensRecomputes: return "Stabilised Greens recomputes";
    case Counter::kCount: break;
  }
  return "";
}

const char* hist_help(Hist h) {
  switch (h) {
    case Hist::WrapDrift: return "Wrap-vs-recompute drift per stabilisation";
    case Hist::Cond1Reduced: return "1-norm condition estimate, reduced matrix";
    case Hist::SelResidual: return "Sampled selected-inverse residual";
    case Hist::ReadyDepth: return "Own-deque depth at graph-executor pop";
    case Hist::NodeSeconds: return "Per-node wall seconds, graph executor";
    case Hist::ServeLatency: return "Serve request latency seconds";
    case Hist::ServeQueueWait: return "Serve admission-queue wait seconds";
    case Hist::ServeBatchOccupancy: return "Dispatched batch size / max_batch";
    case Hist::kCount: break;
  }
  return "";
}

const char* gauge_help(Gauge g) {
  switch (g) {
    case Gauge::WrapInterval: return "DQMC stabilisation interval in effect";
    case Gauge::FlushToZero: return "1 when FTZ/DAZ enabled on main thread";
    case Gauge::HealthSampleEvery: return "Residual spot-check period (0=off)";
    case Gauge::ExecPoolWorkers: return "Threads in persistent executor pool";
    case Gauge::ServeQueueDepth: return "Serve admission-queue depth";
    case Gauge::ServePolicyWindowUs: return "Adaptive window of active key, us";
    case Gauge::ServePolicyMaxBatch: return "Adaptive max batch of active key";
    case Gauge::ServePolicyBypass: return "1 when active key is in bypass";
    case Gauge::ServeReplicas: return "Daemon replicas on this endpoint";
    case Gauge::StabScaleSpread: return "log10(dmax/dmin) of last UDT chain";
    case Gauge::GreensLastDrift: return "Most recent wrap-drift sample";
    case Gauge::GreensMaxDrift: return "Worst wrap-drift since reset";
    case Gauge::kCount: break;
  }
  return "";
}

const char* accum_help(Accum a) {
  switch (a) {
    case Accum::GreensRecompute: return "Seconds in stabilised recomputes";
    case Accum::HealthCheck: return "Seconds in health-layer estimators";
    case Accum::kCount: break;
  }
  return "";
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

/// OpenMetrics sample values are floats; %.9g round-trips everything the
/// registry produces while staying compact.  Non-finite values are spelled
/// the OpenMetrics way (+Inf/-Inf/NaN).
void append_double(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "NaN";
    return;
  }
  if (std::isinf(v)) {
    out += v > 0 ? "+Inf" : "-Inf";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

void append_family_header(std::string& out, const std::string& family,
                          const char* type, const char* help) {
  out += "# HELP " + family + " ";
  out += (help != nullptr && help[0] != '\0') ? help : "(no description)";
  out += '\n';
  out += "# TYPE " + family + " ";
  out += type;
  out += '\n';
}

/// Escape a label value: backslash, quote and newline per the spec.
void append_label_value(std::string& out, const char* s) {
  out += '"';
  for (; *s != '\0'; ++s) {
    switch (*s) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += *s;
    }
  }
  out += '"';
}

/// Upper bound of decade bucket \p i as OpenMetrics float text ("1e-17").
/// Bucket i holds values in [10^(min+i), 10^(min+i+1)); the last bucket is
/// unbounded above, so its cumulative series is the +Inf one.
void append_le(std::string& out, int i) {
  if (i >= metrics::kHistBuckets - 1) {
    out += "+Inf";
    return;
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%.0e",
                std::pow(10.0, metrics::kHistMinDecade + i + 1));
  out += buf;
}

}  // namespace

std::string openmetrics() {
  std::string out;
  out.reserve(8192);

  // Build-info pseudo-gauge: the standard "info" pattern — constant 1,
  // provenance in the labels — so dashboards can join metrics to binaries.
  append_family_header(out, "fsi_build", "info", "Build provenance");
  const BuildInfo& b = build_info();
  out += "fsi_build_info{version=";
  append_label_value(out, b.version);
  out += ",git_sha=";
  append_label_value(out, b.git_sha);
  out += ",build_type=";
  append_label_value(out, b.build_type);
  out += "} 1\n";

  for (int c = 0; c < static_cast<int>(Counter::kCount); ++c) {
    const auto counter = static_cast<Counter>(c);
    const std::string family = std::string("fsi_") + metrics::name(counter);
    append_family_header(out, family, "counter", counter_help(counter));
    out += family + "_total ";
    append_u64(out, metrics::total(counter));
    out += '\n';
  }

  for (int g = 0; g < static_cast<int>(Gauge::kCount); ++g) {
    const auto gauge = static_cast<Gauge>(g);
    const std::string family = std::string("fsi_") + metrics::name(gauge);
    append_family_header(out, family, "gauge", gauge_help(gauge));
    out += family + ' ';
    append_double(out, metrics::get(gauge));
    out += '\n';
  }

  // Accumulators are monotone seconds totals — counters in exposition
  // terms.  Their registry names already end in "_s" (a seconds unit).
  for (int a = 0; a < static_cast<int>(Accum::kCount); ++a) {
    const auto accum = static_cast<Accum>(a);
    const std::string family = std::string("fsi_") + metrics::name(accum);
    append_family_header(out, family, "counter", accum_help(accum));
    out += family + "_total ";
    append_double(out, metrics::seconds(accum));
    out += '\n';
  }

  for (int h = 0; h < static_cast<int>(Hist::kCount); ++h) {
    const auto hist = static_cast<Hist>(h);
    const std::string family = std::string("fsi_") + metrics::name(hist);
    const metrics::HistSnapshot snap = metrics::hist(hist);

    append_family_header(out, family, "histogram", hist_help(hist));
    std::uint64_t cumulative = 0;
    for (int i = 0; i < metrics::kHistBuckets; ++i) {
      cumulative += snap.buckets[i];
      out += family + "_bucket{le=\"";
      append_le(out, i);
      out += "\"} ";
      append_u64(out, cumulative);
      out += '\n';
    }
    out += family + "_sum ";
    append_double(out, snap.sum);
    out += '\n';
    out += family + "_count ";
    append_u64(out, snap.count);
    out += '\n';

    // Rolling-window percentiles ride along as gauges: a percentile of the
    // last 10 seconds is a point-in-time reading, not a cumulative series.
    const metrics::WindowSnapshot win = metrics::window(hist);
    const struct { const char* suffix; double value; } gauges[] = {
        {"_window_p50", win.p50},
        {"_window_p95", win.p95},
        {"_window_p99", win.p99},
        {"_window_count", static_cast<double>(win.count)},
    };
    for (const auto& g : gauges) {
      const std::string wfamily = family + g.suffix;
      append_family_header(out, wfamily, "gauge", "Rolling 10s window");
      out += wfamily + ' ';
      append_double(out, g.value);
      out += '\n';
    }
  }

  out += "# EOF\n";
  return out;
}

bool write_openmetrics(const std::string& path) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = openmetrics();
  const bool wrote = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace fsi::obs
