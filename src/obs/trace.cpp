#include "fsi/obs/trace.hpp"

#include <omp.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

#include "fsi/obs/env.hpp"
#include "fsi/obs/flight.hpp"
#include "fsi/obs/telemetry.hpp"

namespace fsi::obs {

namespace detail {
// env_flag honours every falsy spelling (FSI_TRACE=0/false/off/no/""), not
// just "0" — any other set value enables tracing.
std::atomic<bool> g_trace_enabled{env_flag("FSI_TRACE", false)};
}  // namespace detail

namespace {

/// One recorded span.
struct Event {
  const char* name;
  std::int64_t t0_ns;
  std::int64_t dur_ns;
  std::uint64_t trace_id;  ///< correlation id (0 = untagged)
  std::int32_t omp_tid;    ///< omp_get_thread_num() at span close
};

/// The process-wide correlation id (see set_active_trace in the header).
std::atomic<std::uint64_t> g_active_trace{0};

/// Bounded per-thread event buffer.  The owning thread appends; exporters
/// read entries [0, size) after an acquire load of size, so no entry is ever
/// written and read concurrently.  On overflow new events are dropped (and
/// counted) rather than wrapping, which would let the writer race readers.
struct ThreadBuffer {
  static constexpr std::size_t kCapacity = 1 << 16;

  explicit ThreadBuffer(int tid) : tid(tid), events(new Event[kCapacity]) {}

  const int tid;  ///< stable registration-order thread id
  Event* const events;
  std::atomic<std::size_t> size{0};

  void push(const Event& e, std::atomic<std::uint64_t>& dropped) noexcept {
    const std::size_t n = size.load(std::memory_order_relaxed);
    if (n >= kCapacity) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    events[n] = e;
    size.store(n + 1, std::memory_order_release);
  }
};

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

/// Every thread's buffer, kept for the life of the process.  Leaked on
/// purpose, like the buffers it points to: a registry destroyed at exit
/// would leave them unreachable, which leak checkers report.
std::vector<ThreadBuffer*>& registry() {
  static auto* r = new std::vector<ThreadBuffer*>();
  return *r;
}

std::atomic<std::uint64_t>& dropped_counter() {
  static std::atomic<std::uint64_t> d{0};
  return d;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buf = [] {
    std::lock_guard<std::mutex> lock(registry_mutex());
    auto* b = new ThreadBuffer(static_cast<int>(registry().size()));
    registry().push_back(b);
    return b;
  }();
  return *buf;
}

std::chrono::steady_clock::time_point process_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

// Touch the epoch at static-init time so timestamps are process-relative.
const auto g_epoch_init = process_epoch();

void json_escape(std::string& out, const char* s) {
  for (; *s; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
}

}  // namespace

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - process_epoch())
      .count();
}

void record_interval(const char* name, std::int64_t t0_ns,
                     std::int64_t t1_ns) noexcept {
  record_interval(name, t0_ns, t1_ns,
                  g_active_trace.load(std::memory_order_relaxed));
}

void record_interval(const char* name, std::int64_t t0_ns, std::int64_t t1_ns,
                     std::uint64_t trace_id) noexcept {
  // The flight recorder sees every span close, trace enabled or not — its
  // ring is what the crash handler dumps (flight.hpp).
  flight::record(name, t0_ns, t1_ns - t0_ns, trace_id, omp_get_thread_num());
  if (!enabled()) return;
  local_buffer().push(
      {name, t0_ns, t1_ns - t0_ns, trace_id, omp_get_thread_num()},
      dropped_counter());
}

void set_active_trace(std::uint64_t trace_id) noexcept {
  g_active_trace.store(trace_id, std::memory_order_relaxed);
}

std::uint64_t active_trace() noexcept {
  return g_active_trace.load(std::memory_order_relaxed);
}

void set_enabled(bool on) noexcept {
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

void clear() noexcept {
  std::lock_guard<std::mutex> lock(registry_mutex());
  // Only safe when the owning threads are not concurrently recording (same
  // contract as metrics::reset); sizes drop to zero, storage is reused.
  for (ThreadBuffer* b : registry()) b->size.store(0, std::memory_order_relaxed);
  dropped_counter().store(0, std::memory_order_relaxed);
}

std::uint64_t dropped_events() noexcept {
  return dropped_counter().load(std::memory_order_relaxed);
}

namespace {

/// Copy out a consistent snapshot of every thread's recorded events.
std::vector<std::pair<int, Event>> snapshot_events() {
  std::lock_guard<std::mutex> lock(registry_mutex());
  std::vector<std::pair<int, Event>> out;
  for (const ThreadBuffer* b : registry()) {
    const std::size_t n = b->size.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) out.emplace_back(b->tid, b->events[i]);
  }
  return out;
}

}  // namespace

std::vector<SpanStats> summary() {
  std::map<std::string, std::vector<double>> durations;
  for (const auto& [tid, e] : snapshot_events())
    durations[e.name].push_back(static_cast<double>(e.dur_ns) * 1e-9);

  std::vector<SpanStats> out;
  out.reserve(durations.size());
  for (auto& [name, ds] : durations) {
    std::sort(ds.begin(), ds.end());
    SpanStats s;
    s.name = name;
    s.count = ds.size();
    for (double d : ds) s.total_s += d;
    s.min_s = ds.front();
    s.max_s = ds.back();
    s.p50_s = ds[ds.size() / 2];
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(), [](const SpanStats& a, const SpanStats& b) {
    return a.total_s > b.total_s;
  });
  return out;
}

double total_seconds(const std::string& name) {
  double total = 0.0;
  for (const auto& [tid, e] : snapshot_events())
    if (name == e.name) total += static_cast<double>(e.dur_ns) * 1e-9;
  return total;
}

std::string summary_str() {
  std::string out =
      "span                          count   total s     min s     p50 s     "
      "max s\n";
  char line[160];
  for (const SpanStats& s : summary()) {
    std::snprintf(line, sizeof line, "%-28s %6llu %9.4f %9.6f %9.6f %9.6f\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.count),
                  s.total_s, s.min_s, s.p50_s, s.max_s);
    out += line;
  }
  if (const std::uint64_t d = dropped_events())
    out += "(" + std::to_string(d) + " events dropped: buffer full)\n";
  return out;
}

std::string chrome_trace_json() {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (const auto& [tid, e] : snapshot_events()) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    json_escape(out, e.name);
    // Complete ("X") events; chrome expects microsecond timestamps.  Tagged
    // events carry their correlation id so a stitched client+server serve
    // timeline can be filtered by args.trace_id in the viewer.
    std::snprintf(buf, sizeof buf,
                  "\",\"cat\":\"fsi\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":0,\"tid\":%d,\"args\":{\"omp_tid\":%d",
                  static_cast<double>(e.t0_ns) * 1e-3,
                  static_cast<double>(e.dur_ns) * 1e-3, tid, e.omp_tid);
    out += buf;
    if (e.trace_id != 0) {
      std::snprintf(buf, sizeof buf, ",\"trace_id\":%llu",
                    static_cast<unsigned long long>(e.trace_id));
      out += buf;
    }
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

bool write_chrome_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = chrome_trace_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

std::string write_trace_if_enabled(const std::string& basename) {
  if (!enabled()) return "";
  const char* env = std::getenv("FSI_TRACE_FILE");
  // A bare basename (no '/') lands under artifact_dir(), next to the
  // BENCH_*.json telemetry; an explicit path is honoured verbatim.
  std::string path;
  if (env != nullptr && env[0] != '\0') {
    path = env;
  } else if (basename.find('/') == std::string::npos) {
    path = artifact_dir() + "/" + basename + ".trace.json";
  } else {
    path = basename + ".trace.json";
  }
  if (!write_chrome_trace(path)) {
    std::fprintf(stderr, "[fsi.obs] could not write trace to %s\n",
                 path.c_str());
    return "";
  }
  return path;
}

}  // namespace fsi::obs
