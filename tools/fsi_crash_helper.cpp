/// \file fsi_crash_helper.cpp
/// \brief Deliberately-crashing helper exercising the crash flight recorder
/// end to end: record spans, bump counters, then die by the requested
/// signal.  The flight-recorder test (and the CI post-mortem flow) runs it,
/// waits for the signal exit, and parses the crash-<pid>.fsi.json dump the
/// handler wrote.
///
/// Usage:
///   fsi_crash_helper [--signal segv|abrt|fpe|none] [--spans 64] [--dump X]
///                    [--version]
///
/// --signal none records and exits 0 without crashing (the control case:
/// no dump may appear).  --dump overrides the dump path directly via
/// flight::write_dump — used to test the writer without taking a fault.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "fsi/obs/build.hpp"
#include "fsi/obs/flight.hpp"
#include "fsi/obs/metrics.hpp"
#include "fsi/obs/trace.hpp"
#include "fsi/util/cli.hpp"

namespace {

// The null pointer lives in a volatile global so the optimizer cannot prove
// the store traps and quietly delete it (a deleted store means no SIGSEGV
// and a very confusing test failure).
volatile int* g_null = nullptr;
volatile int g_zero = 0;

// The deliberate fault.  Not UBSan-instrumented: in a sanitizer build the
// null-store check would abort before the SIGSEGV the crash handler is
// there to catch.
__attribute__((no_sanitize_undefined)) void store_through_null() {
  *g_null = g_zero;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fsi;
  const util::Cli cli(argc, argv);
  if (cli.has("version")) {
    std::fputs(obs::version_line("fsi_crash_helper").c_str(), stdout);
    return 0;
  }
  obs::flight::install_crash_handlers();

  const std::string sig = cli.get_string("signal", "segv");
  const int spans = cli.get_int("spans", 64);
  const std::string dump_to = cli.get_string("dump", "");

  // Leave recognisable breadcrumbs for the post-mortem: a few named spans
  // per "phase" plus counter traffic, so the dump has both rings and a
  // non-trivial counter section.
  for (int i = 0; i < spans; ++i) {
    FSI_OBS_SPAN(i % 2 == 0 ? "helper.compute" : "helper.io");
    obs::metrics::add(obs::metrics::Counter::KernelCalls, 1);
  }
  {
    const std::int64_t t = obs::now_ns();
    obs::flight::record("helper.final_span", t, 1000, 0xfeedbeef, 0);
  }
  std::printf("fsi_crash_helper: %llu spans recorded, dump path %s\n",
              static_cast<unsigned long long>(obs::flight::recorded()),
              obs::flight::crash_dump_path());
  std::fflush(stdout);

  if (!dump_to.empty()) {
    // Direct writer test: no fault, just the dump.
    const bool ok = obs::flight::write_dump("TEST", dump_to.c_str());
    std::printf("fsi_crash_helper: write_dump -> %s\n", ok ? "ok" : "FAILED");
    return ok ? 0 : 1;
  }

  if (sig == "none") return 0;
  if (sig == "abrt") std::abort();
  if (sig == "fpe") {
    std::raise(SIGFPE);  // portable: integer division traps are ISA-specific
    return 1;
  }
  store_through_null();  // segv (default)
  return 1;              // unreachable
}
