#include "fsi/obs/log.hpp"

#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "fsi/obs/env.hpp"
#include "fsi/obs/trace.hpp"

namespace fsi::obs::log {

std::atomic<int> g_level{static_cast<int>(Level::Info)};

namespace {

std::atomic<int> g_format{static_cast<int>(Format::Logfmt)};
std::atomic<std::uint32_t> g_site_limit{50};
std::atomic<std::uint64_t> g_lines{0};

// Sink state: the mutex serialises format+write so records never interleave;
// g_owned is the FILE* opened by set_file (closed on replacement).
std::mutex g_sink_mu;
std::FILE* g_sink = nullptr;  // nullptr = stderr
std::FILE* g_owned = nullptr;

/// One-time env init, run on the first gate check via the ODR-safe trick of
/// touching this struct from level()/should() callers through g_level's
/// initial value.  We do it eagerly instead: a namespace-scope initialiser
/// ordered before main for the common (static-init-safe) pattern of tools
/// logging from main only.
struct EnvInit {
  EnvInit() {
    if (const char* v = std::getenv("FSI_LOG_LEVEL")) {
      Level lv;
      if (parse_level(v, lv)) g_level.store(static_cast<int>(lv),
                                            std::memory_order_relaxed);
    }
    if (const char* v = std::getenv("FSI_LOG_FORMAT")) {
      if (std::strcmp(v, "json") == 0 || std::strcmp(v, "jsonl") == 0)
        g_format.store(static_cast<int>(Format::Jsonl),
                       std::memory_order_relaxed);
      else if (std::strcmp(v, "logfmt") == 0)
        g_format.store(static_cast<int>(Format::Logfmt),
                       std::memory_order_relaxed);
    }
    if (const char* v = std::getenv("FSI_LOG_FILE")) {
      if (*v != '\0') set_file(v);
    }
  }
};
EnvInit g_env_init;

/// ts=2026-08-09T12:34:56.789Z — wall clock, UTC, millisecond resolution.
void append_timestamp(std::string& out) {
  using namespace std::chrono;
  const auto now = system_clock::now();
  const std::time_t secs = system_clock::to_time_t(now);
  const auto ms =
      duration_cast<milliseconds>(now.time_since_epoch()).count() % 1000;
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &secs);
#else
  gmtime_r(&secs, &tm);
#endif
  // Sized for the widest expansion of the format with unconstrained int
  // fields (78 bytes), not just for real dates (24), so it never truncates.
  char buf[80];
  std::snprintf(buf, sizeof buf, "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(ms));
  out += buf;
}

/// Escape for a double-quoted string in either format (logfmt quoting is a
/// JSON-compatible subset, so one escaper serves both).
void append_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

bool needs_quotes(const std::string& v) {
  if (v.empty()) return true;
  for (const char c : v)
    if (c == ' ' || c == '"' || c == '=' || c == '\\' ||
        static_cast<unsigned char>(c) < 0x21)
      return true;
  return false;
}

void append_logfmt_value(std::string& out, const Field& f) {
  if (f.is_string && needs_quotes(f.value)) {
    out += '"';
    append_escaped(out, f.value.c_str());
    out += '"';
  } else if (f.is_string) {
    out += f.value;  // bare token, no quoting needed
  } else {
    out += f.value;
  }
}

void append_json_value(std::string& out, const Field& f) {
  if (f.is_string) {
    out += '"';
    append_escaped(out, f.value.c_str());
    out += '"';
  } else {
    out += f.value;
  }
}

}  // namespace

const char* level_name(Level lv) noexcept {
  switch (lv) {
    case Level::Debug: return "debug";
    case Level::Info: return "info";
    case Level::Warn: return "warn";
    case Level::Error: return "error";
    case Level::Off: return "off";
  }
  return "?";
}

bool parse_level(const char* s, Level& out) noexcept {
  if (s == nullptr) return false;
  char lowered[8] = {};
  std::size_t n = 0;
  for (; s[n] != '\0' && n + 1 < sizeof lowered; ++n)
    lowered[n] =
        static_cast<char>(std::tolower(static_cast<unsigned char>(s[n])));
  if (s[n] != '\0') return false;
  if (std::strcmp(lowered, "debug") == 0) { out = Level::Debug; return true; }
  if (std::strcmp(lowered, "info") == 0) { out = Level::Info; return true; }
  if (std::strcmp(lowered, "warn") == 0 ||
      std::strcmp(lowered, "warning") == 0) { out = Level::Warn; return true; }
  if (std::strcmp(lowered, "error") == 0) { out = Level::Error; return true; }
  if (std::strcmp(lowered, "off") == 0 ||
      std::strcmp(lowered, "none") == 0) { out = Level::Off; return true; }
  return false;
}

Level level() noexcept {
  return static_cast<Level>(g_level.load(std::memory_order_relaxed));
}

void set_level(Level lv) noexcept {
  g_level.store(static_cast<int>(lv), std::memory_order_relaxed);
}

Format format() noexcept {
  return static_cast<Format>(g_format.load(std::memory_order_relaxed));
}

void set_format(Format f) noexcept {
  g_format.store(static_cast<int>(f), std::memory_order_relaxed);
}

bool set_file(const std::string& path) {
  if (path.empty()) {
    set_stream(nullptr);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_sink_mu);
  if (g_owned != nullptr) std::fclose(g_owned);
  g_owned = f;
  g_sink = f;
  return true;
}

void set_stream(std::FILE* stream) noexcept {
  std::lock_guard<std::mutex> lock(g_sink_mu);
  if (g_owned != nullptr) {
    std::fclose(g_owned);
    g_owned = nullptr;
  }
  g_sink = stream;
}

Field::Field(const char* k, const char* v)
    : key(k), value(v != nullptr ? v : ""), is_string(true) {}

Field::Field(const char* k, const std::string& v)
    : key(k), value(v), is_string(true) {}

Field::Field(const char* k, long long v) : key(k), is_string(false) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%lld", v);
  value = buf;
}

Field::Field(const char* k, unsigned long long v) : key(k), is_string(false) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", v);
  value = buf;
}

Field::Field(const char* k, double v) : key(k), is_string(false) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  // JSON has no inf/nan literals; quote them so jsonl output stays parseable.
  if (std::strchr(buf, 'n') != nullptr || std::strchr(buf, 'i') != nullptr)
    is_string = true;
  value = buf;
}

Field::Field(const char* k, bool v)
    : key(k), value(v ? "true" : "false"), is_string(false) {}

std::uint32_t site_limit() noexcept {
  return g_site_limit.load(std::memory_order_relaxed);
}

void set_site_limit(std::uint32_t per_second) noexcept {
  g_site_limit.store(per_second > 0 ? per_second : 1,
                     std::memory_order_relaxed);
}

bool admit(Site& site) noexcept {
  const std::int64_t now = obs::now_ns();
  constexpr std::int64_t kWindowNs = 1'000'000'000;
  std::int64_t start = site.window_start_ns.load(std::memory_order_relaxed);
  if (now - start >= kWindowNs) {
    // New window.  One thread wins the CAS and resets the counter; losers
    // fall through and count against the fresh window.
    if (site.window_start_ns.compare_exchange_strong(
            start, now, std::memory_order_relaxed))
      site.emitted_in_window.store(0, std::memory_order_relaxed);
  }
  const std::uint32_t n =
      site.emitted_in_window.fetch_add(1, std::memory_order_relaxed);
  if (n < g_site_limit.load(std::memory_order_relaxed)) return true;
  site.suppressed.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void write(Level lv, const char* event, Site* site,
           std::initializer_list<Field> fields) {
  const Format fmt = format();
  const std::uint64_t trace = obs::active_trace();
  std::uint64_t suppressed = 0;
  if (site != nullptr)
    suppressed = site->suppressed.exchange(0, std::memory_order_relaxed);

  std::string line;
  line.reserve(128);
  if (fmt == Format::Jsonl) {
    line += "{\"ts\":\"";
    append_timestamp(line);
    line += "\",\"level\":\"";
    line += level_name(lv);
    line += "\",\"event\":\"";
    append_escaped(line, event);
    line += '"';
    if (trace != 0) {
      char buf[32];
      std::snprintf(buf, sizeof buf, ",\"trace\":%" PRIu64, trace);
      line += buf;
    }
    for (const Field& f : fields) {
      line += ",\"";
      append_escaped(line, f.key);
      line += "\":";
      append_json_value(line, f);
    }
    if (suppressed != 0) {
      char buf[40];
      std::snprintf(buf, sizeof buf, ",\"suppressed\":%" PRIu64, suppressed);
      line += buf;
    }
    line += "}\n";
  } else {
    line += "ts=";
    append_timestamp(line);
    line += " level=";
    line += level_name(lv);
    line += " event=";
    line += event;
    if (trace != 0) {
      char buf[32];
      std::snprintf(buf, sizeof buf, " trace=%" PRIu64, trace);
      line += buf;
    }
    for (const Field& f : fields) {
      line += ' ';
      line += f.key;
      line += '=';
      append_logfmt_value(line, f);
    }
    if (suppressed != 0) {
      char buf[40];
      std::snprintf(buf, sizeof buf, " suppressed=%" PRIu64, suppressed);
      line += buf;
    }
    line += '\n';
  }

  std::lock_guard<std::mutex> lock(g_sink_mu);
  std::FILE* out = g_sink != nullptr ? g_sink : stderr;
  std::fwrite(line.data(), 1, line.size(), out);
  std::fflush(out);
  g_lines.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t lines_written() noexcept {
  return g_lines.load(std::memory_order_relaxed);
}

}  // namespace fsi::obs::log
