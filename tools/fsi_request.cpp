/// \file fsi_request.cpp
/// \brief CLI client for the fsi_serve daemon: submit inversion requests,
/// optionally verify the responses bit-for-bit against an in-process
/// selinv::fsi run of the same fields.
///
/// Usage:
///   fsi_request --socket unix:/tmp/fsi.sock [--lx 4 --ly 1 --L 8 --c 0]
///               [--t 1 --u 2 --beta 1] [--count 4] [--seed 7]
///               [--deadline-us 0] [--equal-time-only]
///               [--precision fp64|mixed] [--verify] [--verify-tol 1e-3]
///               [--expect-status ok] [--trace]
///
/// --count N pipelines N requests over one connection (fields seeded
/// seed, seed+1, ...), so concurrent fsi_request processes exercise the
/// server's batch coalescing.  --verify recomputes every inversion
/// in-process through qmc::run_fsi_batch — always at fp64 — and fails
/// unless the serve-path measurements match bit-for-bit (fp64 requests)
/// or element-wise within --verify-tol relative error (--precision mixed:
/// the fp32 CLS+WRP stages are not bit-reproducible against fp64, the
/// health gate only bounds their error).  --expect-status makes a
/// rejection the *expected* outcome (e.g. --deadline-us -1
/// --expect-status deadline-miss in the CI smoke test).  Every Ok response
/// prints the server's timing breakdown.  --trace enables obs tracing:
/// every request gets a trace_id, and a chrome://tracing artifact with the
/// stitched client+server spans is written at exit.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "fsi/obs/build.hpp"
#include "fsi/obs/trace.hpp"
#include "fsi/qmc/multi_gf.hpp"
#include "fsi/serve/client.hpp"
#include "fsi/util/cli.hpp"

namespace {

using namespace fsi;

/// In-process reference: the same field and wrap offset through the same
/// batch engine the server uses, pinned to fp64.  For fp64 requests
/// bit-identity holds regardless of the server-side batch composition
/// because each task's sub-graph and its measurement accumulation are
/// independent and deterministic; for mixed requests this is the accuracy
/// baseline the response is compared against within tolerance.
std::vector<double> reference_measurements(const serve::InvertRequest& req) {
  const qmc::Lattice lat =
      req.ly == 1 ? qmc::Lattice::chain(static_cast<qmc::index_t>(req.lx))
                  : qmc::Lattice::rectangle(static_cast<qmc::index_t>(req.lx),
                                            static_cast<qmc::index_t>(req.ly));
  qmc::HubbardParams params;
  params.t = req.t;
  params.u = req.u;
  params.beta = req.beta;
  params.l = static_cast<qmc::index_t>(req.l);
  const qmc::HubbardModel model(lat, params);

  const qmc::index_t c = serve::effective_cluster(req);
  std::vector<qmc::FsiBatchTask> tasks;
  tasks.push_back(qmc::FsiBatchTask{
      qmc::HsField::deserialize(static_cast<qmc::index_t>(req.l),
                                model.num_sites(), req.field.data(),
                                req.field.size()),
      serve::resolve_q(req, c), req.time_dependent});
  qmc::FsiBatchOptions opts;
  opts.cluster_size = c;
  opts.precision = Precision::Fp64;
  return qmc::run_fsi_batch(model, tasks, opts).front().serialize();
}

/// Element-wise |got - ref| <= tol * (1 + |ref|) — the mixed-precision
/// acceptance check (absolute near zero, relative for O(1) observables).
bool within_tolerance(const std::vector<double>& got,
                      const std::vector<double>& ref, double tol) {
  if (got.size() != ref.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i)
    if (!(std::abs(got[i] - ref[i]) <= tol * (1.0 + std::abs(ref[i]))))
      return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  if (cli.has("version")) {
    std::fputs(obs::version_line("fsi_request").c_str(), stdout);
    return 0;
  }

  const std::string socket_spec =
      cli.get_string("socket", "unix:fsi_serve.sock");
  const int count = cli.get_int("count", 1);
  const std::string expect =
      cli.get_string("expect-status", "ok");
  const bool verify = cli.has("verify");
  const bool trace = cli.has("trace");
  if (trace) obs::set_enabled(true);

  serve::InvertRequest base;
  base.lx = static_cast<std::uint32_t>(cli.get_int("lx", 4));
  base.ly = static_cast<std::uint32_t>(cli.get_int("ly", 1));
  base.l = static_cast<std::uint32_t>(cli.get_int("L", 8));
  base.c = static_cast<std::uint32_t>(cli.get_int("c", 0));
  base.q = cli.get_int("q", -1);
  base.t = cli.get_double("t", 1.0);
  base.u = cli.get_double("u", 2.0);
  base.beta = cli.get_double("beta", 1.0);
  base.deadline_us = cli.get_int("deadline-us", 0);
  base.time_dependent = !cli.has("equal-time-only");
  const std::string precision_text = cli.get_string("precision", "fp64");
  Precision precision = Precision::Fp64;
  if (!parse_precision(precision_text, precision)) {
    std::fprintf(stderr, "fsi_request: unknown --precision '%s' "
                 "(fp64 or mixed)\n", precision_text.c_str());
    return 1;
  }
  base.precision = static_cast<std::uint32_t>(precision);
  const double verify_tol = cli.get_double("verify-tol", 1e-3);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 7));

  int failures = 0;
  try {
    serve::Client client(serve::Endpoint::parse(socket_spec));

    // Pipeline all requests before collecting, so the server can coalesce.
    std::vector<serve::InvertRequest> requests;
    std::vector<std::future<serve::InvertResponse>> futures;
    for (int i = 0; i < count; ++i) {
      serve::InvertRequest req = base;
      req.seed = seed + static_cast<std::uint64_t>(i);
      req.field = serve::random_field(req.lx, req.ly, req.l, req.seed);
      futures.push_back(client.submit(req));
      requests.push_back(std::move(req));
    }

    for (int i = 0; i < count; ++i) {
      const serve::InvertResponse resp = futures[static_cast<std::size_t>(i)].get();
      const std::string got = serve::status_name(resp.status);
      if (got != expect) {
        std::fprintf(stderr,
                     "fsi_request: request %d: status %s (expected %s)%s%s\n",
                     i, got.c_str(), expect.c_str(),
                     resp.message.empty() ? "" : ": ",
                     resp.message.c_str());
        ++failures;
        continue;
      }
      if (resp.status == serve::Status::Ok) {
        std::printf("fsi_request: request %d ok: batch %u, %zu measurement "
                    "doubles\n",
                    i, resp.batch_size, resp.measurements.size());
        std::printf(
            "fsi_request: request %d breakdown: trace %llx, queue "
            "%.3f ms, batch wait %.3f ms, exec %.3f ms, occupancy %.2f\n",
            i, static_cast<unsigned long long>(resp.trace_id),
            static_cast<double>(resp.queue_wait_ns) * 1e-6,
            static_cast<double>(resp.batch_wait_ns) * 1e-6,
            static_cast<double>(resp.exec_ns) * 1e-6, resp.batch_occupancy);
        if (precision == Precision::Mixed) {
          std::printf("fsi_request: request %d precision: %s%s\n", i,
                      resp.precision_used ==
                              static_cast<std::uint32_t>(Precision::Mixed)
                          ? "mixed"
                          : "fp64",
                      resp.mixed_fallback ? " (batch had fp64 fallback)" : "");
        }
        if (verify) {
          const std::vector<double> expected =
              reference_measurements(requests[static_cast<std::size_t>(i)]);
          if (precision == Precision::Mixed) {
            // Mixed results are health-gated, not bit-reproducible: accept
            // within tolerance of the fp64 reference.
            if (!within_tolerance(resp.measurements, expected, verify_tol)) {
              std::fprintf(stderr,
                           "fsi_request: request %d: mixed measurements "
                           "outside %.1e tolerance of fp64 reference\n",
                           i, verify_tol);
              ++failures;
            } else {
              std::printf("fsi_request: request %d verified within %.1e of "
                          "fp64 in-process selected inversion\n",
                          i, verify_tol);
            }
          } else {
            const bool same =
                expected.size() == resp.measurements.size() &&
                std::memcmp(expected.data(), resp.measurements.data(),
                            expected.size() * sizeof(double)) == 0;
            if (!same) {
              std::fprintf(stderr,
                           "fsi_request: request %d: serve-path measurements "
                           "differ from the in-process reference\n", i);
              ++failures;
            } else {
              std::printf("fsi_request: request %d verified bit-identical to "
                          "in-process selected inversion\n", i);
            }
          }
        }
      } else {
        std::printf("fsi_request: request %d: %s as expected%s%s\n", i,
                    got.c_str(), resp.message.empty() ? "" : ": ",
                    resp.message.c_str());
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fsi_request: %s\n", e.what());
    return 1;
  }
  const std::string trace_path = obs::write_trace_if_enabled("fsi_request");
  if (!trace_path.empty())
    std::printf("fsi_request: trace written to %s\n", trace_path.c_str());
  return failures == 0 ? 0 : 1;
}
