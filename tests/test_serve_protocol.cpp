// Protocol, admission-queue and server-robustness tests of fsi::serve.
//
// Everything here is deliberately OpenMP-free: models are tiny (every gemm
// stays under kParallelFlopThreshold, i.e. serial) and the server tests
// substitute a stub Engine, so this binary can run under the ThreadSanitizer
// CI job alongside the scheduler/executor suites (suite names carry the
// Serve prefix the TSan ctest regex selects).  The end-to-end numerical
// tests — real engine, OpenMP inside — live in test_serve.cpp.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "fsi/io/wire.hpp"
#include "fsi/obs/build.hpp"
#include "fsi/obs/metrics.hpp"
#include "fsi/obs/trace.hpp"
#include "fsi/serve/client.hpp"
#include "fsi/serve/metrics_http.hpp"
#include "fsi/serve/protocol.hpp"
#include "fsi/serve/queue.hpp"
#include "fsi/serve/server.hpp"
#include "fsi/serve/socket.hpp"
#include "fsi/util/check.hpp"
#include "fsi/util/rng.hpp"
#include "openmetrics_checker.hpp"

namespace {

using namespace fsi;
using namespace fsi::serve;

InvertRequest tiny_request(std::uint64_t id = 1) {
  InvertRequest r;
  r.id = id;
  r.lx = 2;
  r.ly = 1;
  r.l = 2;
  r.c = 1;
  r.q = 0;
  r.seed = 3;
  r.field = random_field(r.lx, r.ly, r.l, r.seed);
  return r;
}

std::string test_socket_path(const char* tag) {
  return "unix:/tmp/fsi_serve_test_" + std::to_string(::getpid()) + "_" +
         tag + ".sock";
}

// ---------------------------------------------------------------------------
// Wire protocol

TEST(ServeProtocol, RequestRoundTrip) {
  InvertRequest r = tiny_request(42);
  r.deadline_us = 12345;
  r.time_dependent = false;
  const auto payload = encode_request(r);
  std::uint32_t stamped = 0;
  std::memcpy(&stamped, payload.data(), sizeof stamped);
  EXPECT_EQ(stamped, kSchemaVersion);
  const Decoded d = decode_payload(payload.data(), payload.size());
  ASSERT_EQ(d.type, MsgType::InvertRequest);
  EXPECT_EQ(d.request.id, 42u);
  EXPECT_EQ(d.request.lx, r.lx);
  EXPECT_EQ(d.request.ly, r.ly);
  EXPECT_EQ(d.request.l, r.l);
  EXPECT_EQ(d.request.c, r.c);
  EXPECT_EQ(d.request.q, r.q);
  EXPECT_EQ(d.request.seed, r.seed);
  EXPECT_EQ(d.request.t, r.t);
  EXPECT_EQ(d.request.u, r.u);
  EXPECT_EQ(d.request.beta, r.beta);
  EXPECT_EQ(d.request.deadline_us, r.deadline_us);
  EXPECT_EQ(d.request.time_dependent, r.time_dependent);
  EXPECT_EQ(d.request.field, r.field);
}

TEST(ServeProtocol, ResponseRoundTrip) {
  InvertResponse r;
  r.id = 7;
  r.status = Status::Ok;
  r.retry_after_ms = 25;
  r.q_used = 3;
  r.deadline_exceeded = true;
  r.queue_wait_ns = 100000;
  r.batch_wait_ns = 150000;
  r.exec_ns = 200000;
  r.batch_size = 4;
  r.l = 8;
  r.dmax = 2;
  r.measurements = {1.0, -2.5, 3.25};
  r.message = "all good";
  const auto payload = encode_response(r);
  const Decoded d = decode_payload(payload.data(), payload.size());
  ASSERT_EQ(d.type, MsgType::InvertResponse);
  EXPECT_EQ(d.response.id, 7u);
  EXPECT_EQ(d.response.status, Status::Ok);
  EXPECT_EQ(d.response.retry_after_ms, 25u);
  EXPECT_EQ(d.response.q_used, 3);
  EXPECT_TRUE(d.response.deadline_exceeded);
  EXPECT_EQ(d.response.queue_wait_ns, 100000u);
  EXPECT_EQ(d.response.batch_wait_ns, 150000u);
  EXPECT_EQ(d.response.exec_ns, 200000u);
  EXPECT_EQ(d.response.batch_size, 4u);
  EXPECT_EQ(d.response.l, 8u);
  EXPECT_EQ(d.response.dmax, 2u);
  EXPECT_EQ(d.response.measurements, r.measurements);
  EXPECT_EQ(d.response.message, "all good");
}

TEST(ServeProtocol, V2RequestRoundTripCarriesTraceContext) {
  InvertRequest r = tiny_request(42);
  r.trace_id = 0xDEADBEEFCAFEULL;
  r.client_send_ns = 1234567890123;
  const auto payload = encode_request(r);
  const Decoded d = decode_payload(payload.data(), payload.size());
  ASSERT_EQ(d.type, MsgType::InvertRequest);
  EXPECT_EQ(d.request.trace_id, r.trace_id);
  EXPECT_EQ(d.request.client_send_ns, r.client_send_ns);
}

TEST(ServeProtocol, V2ResponseRoundTripCarriesBreakdown) {
  InvertResponse r;
  r.id = 9;
  r.status = Status::Ok;
  r.trace_id = 0x1234;
  r.queue_wait_ns = 1111;
  r.batch_wait_ns = 2222;
  r.exec_ns = 3333;
  r.batch_occupancy = 0.625;
  const auto payload = encode_response(r);
  const Decoded d = decode_payload(payload.data(), payload.size());
  ASSERT_EQ(d.type, MsgType::InvertResponse);
  EXPECT_EQ(d.response.trace_id, 0x1234u);
  EXPECT_EQ(d.response.queue_wait_ns, 1111u);
  EXPECT_EQ(d.response.batch_wait_ns, 2222u);
  EXPECT_EQ(d.response.exec_ns, 3333u);
  EXPECT_DOUBLE_EQ(d.response.batch_occupancy, 0.625);
}

TEST(ServeProtocol, V3RoundTripCarriesPrecision) {
  InvertRequest r = tiny_request(11);
  r.precision = 1;  // mixed
  const auto payload = encode_request(r);
  const Decoded d = decode_payload(payload.data(), payload.size());
  ASSERT_EQ(d.type, MsgType::InvertRequest);
  EXPECT_EQ(d.request.precision, 1u);

  InvertResponse resp;
  resp.id = 12;
  resp.status = Status::Ok;
  resp.precision_used = 1;
  resp.mixed_fallback = true;
  const auto resp_payload = encode_response(resp);
  const Decoded dp = decode_payload(resp_payload.data(), resp_payload.size());
  ASSERT_EQ(dp.type, MsgType::InvertResponse);
  EXPECT_EQ(dp.response.precision_used, 1u);
  EXPECT_TRUE(dp.response.mixed_fallback);
}

TEST(ServeProtocol, ValidateRejectsUnknownPrecision) {
  InvertRequest r = tiny_request(15);
  r.precision = 2;  // only 0 (fp64) and 1 (mixed) are defined
  const std::string why = validate_request(r);
  EXPECT_NE(why.find("precision"), std::string::npos) << why;
  r.precision = 1;
  EXPECT_EQ(validate_request(r), "");
}

TEST(ServeQueue, BatchKeySeparatesPrecisions) {
  // A mixed and an fp64 request must never coalesce into one engine run:
  // precision is part of the BatchKey and of its stable hash.
  PendingRequest a;
  a.request = tiny_request(1);
  PendingRequest b;
  b.request = tiny_request(2);
  b.request.precision = 1;
  EXPECT_FALSE(a.key() == b.key());
  EXPECT_NE(hash(a.key()), hash(b.key()));

  PendingRequest c;
  c.request = tiny_request(3);
  EXPECT_TRUE(a.key() == c.key());
  EXPECT_EQ(hash(a.key()), hash(c.key()));
}

void expect_window_eq(const WindowStat& got, const WindowStat& want) {
  EXPECT_EQ(got.count, want.count);
  EXPECT_DOUBLE_EQ(got.mean, want.mean);
  EXPECT_DOUBLE_EQ(got.p50, want.p50);
  EXPECT_DOUBLE_EQ(got.p95, want.p95);
  EXPECT_DOUBLE_EQ(got.p99, want.p99);
}

TEST(ServeProtocol, StatsRoundTrip) {
  StatsResponse s;
  s.id = 31;
  s.uptime_ns = 123456789;
  s.connections = 1;
  s.admitted = 2;
  s.served_ok = 3;
  s.rejected_full = 4;
  s.deadline_miss = 5;
  s.cancelled = 6;
  s.malformed = 7;
  s.errors = 8;
  s.shed_shutdown = 9;
  s.batches = 10;
  s.batched_requests = 11;
  s.models_built = 3;
  s.model_cache_hits = 9;
  s.model_cache_size = 2;
  s.queue_depth = 12;
  s.queue_high_water = 13;
  s.queue_capacity = 64;
  s.latency_s = WindowStat{100, 0.5, 0.4, 0.9, 0.99};
  s.queue_wait_s = WindowStat{100, 0.1, 0.05, 0.2, 0.3};
  s.occupancy = WindowStat{10, 0.75, 0.8, 1.0, 1.0};
  s.build_version = "1.2.3";
  s.build_git_sha = "abc1234+dirty";
  s.build_compiler = "testcc 0.0";
  s.build_type = "Release";

  const auto payload = encode_stats_response(s);
  const Decoded d = decode_payload(payload.data(), payload.size());
  ASSERT_EQ(d.type, MsgType::StatsResponse);
  EXPECT_EQ(d.stats.id, 31u);
  EXPECT_EQ(d.stats.uptime_ns, 123456789u);
  EXPECT_EQ(d.stats.connections, 1u);
  EXPECT_EQ(d.stats.admitted, 2u);
  EXPECT_EQ(d.stats.served_ok, 3u);
  EXPECT_EQ(d.stats.rejected_full, 4u);
  EXPECT_EQ(d.stats.deadline_miss, 5u);
  EXPECT_EQ(d.stats.cancelled, 6u);
  EXPECT_EQ(d.stats.malformed, 7u);
  EXPECT_EQ(d.stats.errors, 8u);
  EXPECT_EQ(d.stats.shed_shutdown, 9u);
  EXPECT_EQ(d.stats.batches, 10u);
  EXPECT_EQ(d.stats.batched_requests, 11u);
  EXPECT_EQ(d.stats.models_built, 3u);
  EXPECT_EQ(d.stats.model_cache_hits, 9u);
  EXPECT_EQ(d.stats.model_cache_size, 2u);
  EXPECT_EQ(d.stats.queue_depth, 12u);
  EXPECT_EQ(d.stats.queue_high_water, 13u);
  EXPECT_EQ(d.stats.queue_capacity, 64u);
  EXPECT_DOUBLE_EQ(d.stats.model_cache_hit_rate(), 0.75);
  expect_window_eq(d.stats.latency_s, s.latency_s);
  expect_window_eq(d.stats.queue_wait_s, s.queue_wait_s);
  expect_window_eq(d.stats.occupancy, s.occupancy);
  EXPECT_EQ(d.stats.build_version, "1.2.3");
  EXPECT_EQ(d.stats.build_git_sha, "abc1234+dirty");
  EXPECT_EQ(d.stats.build_compiler, "testcc 0.0");
  EXPECT_EQ(d.stats.build_type, "Release");

  const auto req_payload = encode_stats_request(17);
  const Decoded dq = decode_payload(req_payload.data(), req_payload.size());
  ASSERT_EQ(dq.type, MsgType::StatsRequest);
  EXPECT_EQ(dq.stats.id, 17u);
}

TEST(ServeProtocol, StatsV4RoundTripCarriesMixedTotalsAndPolicyRows) {
  StatsResponse s;
  s.id = 51;
  s.served_ok = 7;
  s.mixed_runs = 40;
  s.mixed_fallbacks = 3;
  s.policy_rows.push_back(PolicyKeyRow{0xDEADBEEFCAFEF00Dull, 1500, 8,
                                       /*bypass=*/false, 2.25});
  s.policy_rows.push_back(PolicyKeyRow{42, -1, 1, /*bypass=*/true, 0.97});

  const auto payload = encode_stats_response(s);
  const Decoded d = decode_payload(payload.data(), payload.size());
  ASSERT_EQ(d.type, MsgType::StatsResponse);
  EXPECT_EQ(d.stats.served_ok, 7u);
  EXPECT_EQ(d.stats.mixed_runs, 40u);
  EXPECT_EQ(d.stats.mixed_fallbacks, 3u);
  ASSERT_EQ(d.stats.policy_rows.size(), 2u);
  EXPECT_EQ(d.stats.policy_rows[0].key_hash, 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(d.stats.policy_rows[0].window_us, 1500);
  EXPECT_EQ(d.stats.policy_rows[0].max_batch, 8u);
  EXPECT_FALSE(d.stats.policy_rows[0].bypass);
  EXPECT_DOUBLE_EQ(d.stats.policy_rows[0].speedup, 2.25);
  EXPECT_EQ(d.stats.policy_rows[1].key_hash, 42u);
  EXPECT_EQ(d.stats.policy_rows[1].window_us, -1);
  EXPECT_EQ(d.stats.policy_rows[1].max_batch, 1u);
  EXPECT_TRUE(d.stats.policy_rows[1].bypass);
  EXPECT_DOUBLE_EQ(d.stats.policy_rows[1].speedup, 0.97);
}

TEST(ServeProtocol, TruncatedPayloadThrows) {
  const auto payload = encode_request(tiny_request());
  for (const std::size_t keep : {std::size_t{0}, std::size_t{3},
                                 std::size_t{17}, payload.size() - 1}) {
    EXPECT_THROW(decode_payload(payload.data(), keep), util::CheckError)
        << "kept " << keep << " bytes";
  }
}

TEST(ServeProtocol, OtherSchemaVersionsThrowCheckError) {
  // One schema, no negotiation: every other stamp — including the versions
  // earlier builds spoke — is rejected on the header, for every message
  // type, with a message naming the received and the supported version.
  const std::vector<std::vector<std::uint8_t>> payloads = {
      encode_request(tiny_request()), encode_response(InvertResponse{}),
      encode_stats_request(1), encode_stats_response(StatsResponse{})};
  for (const std::uint32_t version : {0u, 1u, 2u, 3u, 4u, kSchemaVersion + 1}) {
    for (std::vector<std::uint8_t> payload : payloads) {
      std::memcpy(payload.data(), &version, sizeof version);
      try {
        decode_payload(payload.data(), payload.size());
        ADD_FAILURE() << "schema " << version << " decoded";
      } catch (const util::CheckError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("schema version " + std::to_string(version)),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("speaks " + std::to_string(kSchemaVersion)),
                  std::string::npos)
            << what;
      }
    }
  }
}

TEST(ServeProtocol, TrailingBytesThrow) {
  auto payload = encode_request(tiny_request());
  payload.push_back(0xAB);
  EXPECT_THROW(decode_payload(payload.data(), payload.size()),
               util::CheckError);
}

TEST(ServeWire, HostileVectorCountRejectedWithoutAllocation) {
  // A count near 2^64 chosen so that `count * sizeof(double)` wraps to a
  // small value: the length check must not be fooled into attempting a
  // multi-exabyte vector allocation (std::length_error / bad_alloc).
  io::WireWriter w;
  w.put_u64(0x2000000000000001ULL);
  w.put_f64(0.0);  // 8 bytes remaining — equals the wrapped product
  const auto bytes = w.take();
  io::WireReader r(bytes.data(), bytes.size());
  EXPECT_THROW(r.get_f64_vector(), util::CheckError);
}

TEST(ServeProtocol, UnknownMessageTypeThrows) {
  auto payload = encode_request(tiny_request());
  const std::uint32_t bad_type = 99;
  std::memcpy(payload.data() + sizeof(std::uint32_t), &bad_type,
              sizeof bad_type);
  EXPECT_THROW(decode_payload(payload.data(), payload.size()),
               util::CheckError);
}

// ---------------------------------------------------------------------------
// Framing

TEST(ServeFrameParser, ByteByByteDelivery) {
  const auto p1 = encode_request(tiny_request(1));
  const auto p2 = encode_response(InvertResponse{});
  std::vector<std::uint8_t> stream;
  append_frame(stream, p1);
  append_frame(stream, p2);

  FrameParser parser;
  std::vector<std::vector<std::uint8_t>> got;
  std::vector<std::uint8_t> payload;
  for (const std::uint8_t byte : stream) {
    parser.feed(&byte, 1);
    while (parser.next(payload)) got.push_back(payload);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], p1);
  EXPECT_EQ(got[1], p2);
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(ServeFrameParser, BadMagicThrows) {
  std::vector<std::uint8_t> stream;
  append_frame(stream, encode_request(tiny_request()));
  stream[0] ^= 0xFF;
  FrameParser parser;
  parser.feed(stream.data(), stream.size());
  std::vector<std::uint8_t> payload;
  EXPECT_THROW(parser.next(payload), util::CheckError);
}

TEST(ServeFrameParser, OversizedFrameThrows) {
  // Declared length above the parser's bound: rejected from the header
  // alone, before any allocation of the declared size.
  std::vector<std::uint8_t> header;
  const std::uint32_t magic = kFrameMagic;
  const std::uint32_t huge = 1u << 20;
  header.resize(8);
  std::memcpy(header.data(), &magic, 4);
  std::memcpy(header.data() + 4, &huge, 4);
  FrameParser parser(/*max_frame_bytes=*/1u << 16);
  parser.feed(header.data(), header.size());
  std::vector<std::uint8_t> payload;
  EXPECT_THROW(parser.next(payload), util::CheckError);
}

TEST(ServeFrameParser, TruncatedFrameStaysPending) {
  std::vector<std::uint8_t> stream;
  append_frame(stream, encode_request(tiny_request()));
  FrameParser parser;
  parser.feed(stream.data(), stream.size() - 5);
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(parser.next(payload));  // incomplete: no frame, no throw
  parser.feed(stream.data() + stream.size() - 5, 5);
  EXPECT_TRUE(parser.next(payload));
}

// ---------------------------------------------------------------------------
// Deterministic mutational fuzz of the decoder and the frame parser.  The
// contract under hostile bytes: decode_payload either returns — and then
// validate_request answers without throwing — or throws util::CheckError.
// Any other exception, or a sanitizer report, is a decoder bug.

constexpr int kFuzzIterations = 40000;

/// One encoding of each message type, with every variable-length field
/// non-empty.
std::vector<std::vector<std::uint8_t>> fuzz_corpus() {
  InvertRequest req = tiny_request(9);
  req.trace_id = 0xABCDEF;
  req.client_send_ns = 123456789;
  req.precision = 1;
  InvertResponse resp;
  resp.id = 9;
  resp.status = Status::Ok;
  resp.l = 2;
  resp.dmax = 1;
  resp.measurements = {1.0, -2.0, 0.5};
  resp.message = "ok";
  resp.trace_id = 0xABCDEF;
  resp.exec_ns = 1000;
  StatsResponse stats;
  stats.id = 3;
  stats.build_version = "1.0";
  stats.build_git_sha = "abc";
  stats.policy_rows.push_back(PolicyKeyRow{1, 100, 4, false, 1.5});
  stats.policy_rows.push_back(PolicyKeyRow{2, 0, 1, true, 0.5});
  return {encode_request(req), encode_response(resp), encode_stats_request(3),
          encode_stats_response(stats)};
}

/// Apply one to three mutations: a bit flip, a truncation, appended random
/// bytes, or a u32/u64 at a random offset overwritten with 0, 0xFFFFFFFF,
/// all ones or a random value.
void mutate(std::vector<std::uint8_t>& b, util::Rng& rng) {
  const std::uint64_t count = 1 + rng.below(3);
  for (std::uint64_t m = 0; m < count; ++m) {
    switch (rng.below(4)) {
      case 0:
        if (!b.empty())
          b[rng.below(b.size())] ^=
              static_cast<std::uint8_t>(1u << rng.below(8));
        break;
      case 1:
        b.resize(rng.below(b.size() + 1));
        break;
      case 2:
        for (std::uint64_t i = 1 + rng.below(16); i > 0; --i)
          b.push_back(static_cast<std::uint8_t>(rng()));
        break;
      default: {
        const std::uint64_t values[] = {0, 0xFFFFFFFFull, ~0ull, rng()};
        const std::uint64_t v64 = values[rng.below(4)];
        const auto v32 = static_cast<std::uint32_t>(v64);
        const bool wide = rng.below(2) == 0;
        const std::size_t width = wide ? sizeof v64 : sizeof v32;
        if (b.size() < width) break;
        std::memcpy(b.data() + rng.below(b.size() - width + 1),
                    wide ? static_cast<const void*>(&v64) : &v32, width);
        break;
      }
    }
  }
}

struct FuzzTally {
  std::size_t decoded = 0;
  std::size_t rejected = 0;
};

/// Check the decode contract on one payload; records a test failure and
/// returns false when it is broken.
bool obeys_decode_contract(const std::vector<std::uint8_t>& bytes,
                           FuzzTally& tally) {
  Decoded d;
  try {
    d = decode_payload(bytes.data(), bytes.size());
  } catch (const util::CheckError&) {
    ++tally.rejected;
    return true;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "decode_payload threw a non-CheckError: " << e.what();
    return false;
  }
  ++tally.decoded;
  if (d.type != MsgType::InvertRequest) return true;
  try {
    (void)validate_request(d.request);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "validate_request threw: " << e.what();
    return false;
  }
  return true;
}

TEST(ServeProtocolFuzz, MutatedPayloadsDecodeOrThrowCheckError) {
  const auto corpus = fuzz_corpus();
  util::Rng rng(0x5EED0001);
  FuzzTally tally;
  for (int it = 0; it < kFuzzIterations; ++it) {
    std::vector<std::uint8_t> bytes = corpus[it % corpus.size()];
    mutate(bytes, rng);
    ASSERT_TRUE(obeys_decode_contract(bytes, tally)) << "iteration " << it;
  }
  // Both outcomes occur: the mutations get past the header and into the
  // bodies, and the decoder's bounds checks fire.
  EXPECT_GT(tally.decoded, 0u);
  EXPECT_GT(tally.rejected, 0u);
}

TEST(ServeProtocolFuzz, MutatedFramesParseOrThrowCheckError) {
  // Whole frames, magic and length prefix included, are mutated and fed to
  // a FrameParser in random-size chunks.  next() may hold a frame pending
  // or throw util::CheckError (stream-fatal); every payload it yields must
  // obey the decode contract.
  const auto corpus = fuzz_corpus();
  util::Rng rng(0x5EED0002);
  FuzzTally tally;
  std::size_t stream_fatal = 0;
  std::vector<std::uint8_t> payload;
  for (int it = 0; it < kFuzzIterations; ++it) {
    std::vector<std::uint8_t> frame;
    append_frame(frame, corpus[it % corpus.size()]);
    mutate(frame, rng);
    FrameParser parser;
    try {
      for (std::size_t pos = 0; pos < frame.size();) {
        const std::size_t chunk =
            std::min<std::size_t>(frame.size() - pos, 1 + rng.below(64));
        parser.feed(frame.data() + pos, chunk);
        pos += chunk;
        while (parser.next(payload))
          ASSERT_TRUE(obeys_decode_contract(payload, tally))
              << "iteration " << it;
      }
    } catch (const util::CheckError&) {
      ++stream_fatal;
    } catch (const std::exception& e) {
      FAIL() << "iteration " << it << ": FrameParser threw " << e.what();
    }
  }
  EXPECT_GT(tally.decoded, 0u);
  EXPECT_GT(tally.rejected, 0u);
  EXPECT_GT(stream_fatal, 0u);
}

// ---------------------------------------------------------------------------
// Validation and derived quantities

TEST(ServeProtocol, ValidateRequestCatchesBadInputs) {
  EXPECT_EQ(validate_request(tiny_request()), "");

  InvertRequest r = tiny_request();
  r.lx = 0;
  EXPECT_NE(validate_request(r), "");

  r = tiny_request();
  r.c = 3;  // does not divide L = 2
  EXPECT_NE(validate_request(r), "");

  r = tiny_request();
  r.q = 5;  // c = 1, so q must be 0
  EXPECT_NE(validate_request(r), "");

  r = tiny_request();
  r.field.pop_back();
  EXPECT_NE(validate_request(r), "");

  r = tiny_request();
  r.field[0] = 0.5;  // not an Ising value
  EXPECT_NE(validate_request(r), "");

  r = tiny_request();
  r.beta = -1.0;
  EXPECT_NE(validate_request(r), "");

  // Non-finite physics parameters: NaN is caught by self-comparison tricks,
  // but +-infinity must be rejected too — an inf model would poison the
  // server's model cache under that key.
  const double inf = std::numeric_limits<double>::infinity();
  r = tiny_request();
  r.t = inf;
  EXPECT_NE(validate_request(r), "");

  r = tiny_request();
  r.u = -inf;
  EXPECT_NE(validate_request(r), "");

  r = tiny_request();
  r.beta = inf;
  EXPECT_NE(validate_request(r), "");

  r = tiny_request();
  r.beta = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(validate_request(r), "");
}

TEST(ServeProtocol, ResolveQDeterministicAndInRange) {
  InvertRequest r = tiny_request();
  r.l = 8;
  r.c = 4;
  r.q = -1;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    r.seed = seed;
    const index_t q1 = resolve_q(r, 4);
    const index_t q2 = resolve_q(r, 4);
    EXPECT_EQ(q1, q2);
    EXPECT_GE(q1, 0);
    EXPECT_LT(q1, 4);
  }
  r.q = 2;
  EXPECT_EQ(resolve_q(r, 4), 2);
}

TEST(ServeEndpoint, ParseSpecs) {
  const Endpoint u = Endpoint::parse("unix:/tmp/x.sock");
  EXPECT_TRUE(u.is_unix);
  EXPECT_EQ(u.path, "/tmp/x.sock");
  EXPECT_EQ(u.describe(), "unix:/tmp/x.sock");

  const Endpoint t = Endpoint::parse("tcp:127.0.0.1:7070");
  EXPECT_FALSE(t.is_unix);
  EXPECT_EQ(t.host, "127.0.0.1");
  EXPECT_EQ(t.port, 7070);

  EXPECT_THROW(Endpoint::parse("http://x"), util::CheckError);
  EXPECT_THROW(Endpoint::parse("unix:"), util::CheckError);
  EXPECT_THROW(Endpoint::parse("tcp:127.0.0.1:notaport"), util::CheckError);
}

// ---------------------------------------------------------------------------
// Admission queue

PendingRequest pending(std::uint64_t id, std::uint32_t l = 2) {
  PendingRequest p;
  p.request = tiny_request(id);
  p.request.l = l;
  p.c = 1;
  p.q = 0;
  p.respond = [](InvertResponse&&) {};
  p.alive = [] { return true; };
  return p;
}

TEST(ServeQueue, BoundedPushExplicitOverflow) {
  AdmissionQueue q(2);
  EXPECT_TRUE(q.try_push(pending(1)));
  EXPECT_TRUE(q.try_push(pending(2)));
  EXPECT_FALSE(q.try_push(pending(3)));  // full: caller sheds explicitly
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.max_depth_seen(), 2u);
}

TEST(ServeQueue, CoalescesSameKeyOnly) {
  AdmissionQueue q(8);
  ASSERT_TRUE(q.try_push(pending(1, /*l=*/2)));
  ASSERT_TRUE(q.try_push(pending(2, /*l=*/4)));  // different key
  ASSERT_TRUE(q.try_push(pending(3, /*l=*/2)));

  auto batch = q.next_batch(std::chrono::microseconds(0), 8);
  ASSERT_EQ(batch.size(), 2u);  // ids 1 and 3 coalesce; 2 stays queued
  EXPECT_EQ(batch[0].request.id, 1u);
  EXPECT_EQ(batch[1].request.id, 3u);
  EXPECT_EQ(q.depth(), 1u);

  batch = q.next_batch(std::chrono::microseconds(0), 8);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].request.id, 2u);
}

TEST(ServeQueue, MaxBatchBounds) {
  AdmissionQueue q(8);
  for (std::uint64_t i = 0; i < 5; ++i) ASSERT_TRUE(q.try_push(pending(i)));
  const auto batch = q.next_batch(std::chrono::microseconds(0), 3);
  EXPECT_EQ(batch.size(), 3u);
  EXPECT_EQ(q.depth(), 2u);
}

TEST(ServeQueue, StragglerJoinsWithinWindow) {
  AdmissionQueue q(8);
  ASSERT_TRUE(q.try_push(pending(1)));
  std::thread late([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(q.try_push(pending(2)));
  });
  const auto batch = q.next_batch(std::chrono::milliseconds(500), 8);
  late.join();
  EXPECT_EQ(batch.size(), 2u);
}

TEST(ServeQueue, ShutdownWakesAndDrains) {
  AdmissionQueue q(8);
  std::thread stopper([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.shutdown();
  });
  const auto batch = q.next_batch(std::chrono::milliseconds(0), 8);
  stopper.join();
  EXPECT_TRUE(batch.empty());
  EXPECT_FALSE(q.try_push(pending(9)));  // shut down: nothing admitted
}

// ---------------------------------------------------------------------------
// Server robustness with a stub engine (no OpenMP anywhere on these paths)

/// Engine stub: optionally blocks until release(); returns one Measurements
/// per task with a deterministic sample count.
struct GateEngine {
  std::mutex mu;
  std::condition_variable cv;
  bool released = true;
  std::atomic<int> calls{0};
  std::atomic<int> started{0};

  void hold() {
    std::lock_guard<std::mutex> lock(mu);
    released = false;
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
  }
  bool wait_started(int n, int timeout_ms = 5000) {
    const auto stop = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(timeout_ms);
    while (started.load() < n) {
      if (std::chrono::steady_clock::now() > stop) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  Engine engine() {
    return [this](const qmc::HubbardModel& model,
                  const std::vector<qmc::FsiBatchTask>& tasks,
                  const qmc::FsiBatchOptions&) {
      started.fetch_add(1);
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [this] { return released; });
      }
      calls.fetch_add(1);
      std::vector<qmc::Measurements> out;
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        qmc::Measurements m(model.params().l,
                            model.lattice().num_distance_classes());
        m.add_sample(1.0);
        out.push_back(std::move(m));
      }
      return out;
    };
  }
};

ServerOptions stub_options(const std::string& socket_spec, GateEngine& gate) {
  ServerOptions o;
  o.endpoint = Endpoint::parse(socket_spec);
  o.queue_depth = 2;
  o.batch_window_us = 0;
  o.max_batch = 1;
  o.retry_after_ms = 7;
  o.engine = gate.engine();
  return o;
}

TEST(ServeServer, OutOfRangeOptionsThrowCheckError) {
  // Every caller's settings pass through the constructor's range check;
  // nothing is bound, so no socket is needed.
  GateEngine gate;
  const std::vector<std::function<void(ServerOptions&)>> out_of_range = {
      [](ServerOptions& o) { o.queue_depth = 0; },
      [](ServerOptions& o) { o.max_batch = 0; },
      [](ServerOptions& o) { o.batch_window_us = -1; },
      [](ServerOptions& o) { o.default_deadline_ms = -1; },
      [](ServerOptions& o) { o.replicas = 0; },
  };
  for (std::size_t i = 0; i < out_of_range.size(); ++i) {
    ServerOptions o = stub_options(test_socket_path("bad_options"), gate);
    out_of_range[i](o);
    EXPECT_THROW(Server{std::move(o)}, util::CheckError) << "setting " << i;
  }
}

TEST(ServeServer, StubRoundTripOverUnixSocket) {
  GateEngine gate;
  Server server(stub_options(test_socket_path("roundtrip"), gate));
  server.start();

  Client client(server.endpoint());
  const InvertResponse r = client.request(tiny_request());
  EXPECT_EQ(r.status, Status::Ok);
  EXPECT_EQ(r.batch_size, 1u);
  EXPECT_EQ(r.l, 2u);
  EXPECT_FALSE(r.measurements.empty());

  server.stop();
  EXPECT_EQ(server.stats().served_ok, 1u);
}

TEST(ServeServer, OverloadShedsWithRetryAfter) {
  GateEngine gate;
  gate.hold();
  Server server(stub_options(test_socket_path("overload"), gate));
  server.start();
  Client client(server.endpoint());

  // First request occupies the engine (batcher popped it off the queue).
  auto f0 = client.submit(tiny_request(1));
  ASSERT_TRUE(gate.wait_started(1));

  // Two more fill the bounded queue; the rest must shed with RetryAfter —
  // explicit backpressure, not unbounded buffering.
  auto f1 = client.submit(tiny_request(2));
  auto f2 = client.submit(tiny_request(3));
  // Give the reader a moment to admit both before overflowing.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().admitted < 3 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(server.stats().admitted, 3u);

  auto f3 = client.submit(tiny_request(4));
  auto f4 = client.submit(tiny_request(5));
  const InvertResponse r3 = f3.get();
  const InvertResponse r4 = f4.get();
  EXPECT_EQ(r3.status, Status::RetryAfter);
  EXPECT_EQ(r3.retry_after_ms, 7u);
  EXPECT_EQ(r4.status, Status::RetryAfter);

  gate.release();
  EXPECT_EQ(f0.get().status, Status::Ok);
  EXPECT_EQ(f1.get().status, Status::Ok);
  EXPECT_EQ(f2.get().status, Status::Ok);

  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.served_ok, 3u);
  EXPECT_EQ(s.rejected_full, 2u);
  EXPECT_EQ(s.queue_high_water, 2u);
}

TEST(ServeServer, DeadlineExpiredOnArrival) {
  GateEngine gate;
  Server server(stub_options(test_socket_path("dl_arrival"), gate));
  server.start();
  Client client(server.endpoint());

  InvertRequest r = tiny_request();
  r.deadline_us = -1;
  const InvertResponse resp = client.request(std::move(r));
  EXPECT_EQ(resp.status, Status::DeadlineMiss);

  server.stop();
  EXPECT_EQ(server.stats().deadline_miss, 1u);
  EXPECT_EQ(server.stats().served_ok, 0u);
  EXPECT_EQ(gate.calls.load(), 0);  // never reached the engine
}

TEST(ServeServer, HugeDeadlineDoesNotOverflowOrExpire) {
  // deadline_us = INT64_MAX used to overflow `arrival_ns + deadline_us *
  // 1000` (signed overflow, UB) and could wrap to a negative deadline that
  // expired instantly.  The server now clamps the budget; the request must
  // be served normally.
  GateEngine gate;
  Server server(stub_options(test_socket_path("huge_dl"), gate));
  server.start();
  Client client(server.endpoint());

  InvertRequest r = tiny_request();
  r.deadline_us = std::numeric_limits<std::int64_t>::max();
  const InvertResponse resp = client.request(std::move(r));
  EXPECT_EQ(resp.status, Status::Ok);
  EXPECT_FALSE(resp.deadline_exceeded);

  server.stop();
  EXPECT_EQ(server.stats().deadline_miss, 0u);
  EXPECT_EQ(server.stats().served_ok, 1u);
}

TEST(ServeServer, DeadlineExpiresWhileQueued) {
  GateEngine gate;
  gate.hold();
  Server server(stub_options(test_socket_path("dl_queue"), gate));
  server.start();
  Client client(server.endpoint());

  auto f0 = client.submit(tiny_request(1));  // blocks the engine
  ASSERT_TRUE(gate.wait_started(1));

  InvertRequest r = tiny_request(2);
  r.deadline_us = 1000;  // 1 ms — will expire while the engine is held
  auto f1 = client.submit(std::move(r));

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.release();

  EXPECT_EQ(f0.get().status, Status::Ok);
  const InvertResponse r1 = f1.get();
  EXPECT_EQ(r1.status, Status::DeadlineMiss);
  EXPECT_GE(r1.queue_wait_ns, 1000000u);

  server.stop();
  EXPECT_EQ(gate.calls.load(), 1);  // the expired request never executed
}

TEST(ServeServer, MalformedRequestRejectedConnectionSurvives) {
  GateEngine gate;
  Server server(stub_options(test_socket_path("malformed"), gate));
  server.start();
  Client client(server.endpoint());

  InvertRequest bad = tiny_request();
  bad.field.pop_back();  // wrong length
  const InvertResponse r = client.request(std::move(bad));
  EXPECT_EQ(r.status, Status::Malformed);
  EXPECT_NE(r.message.find("field length"), std::string::npos);

  // Same connection keeps working.
  EXPECT_EQ(client.request(tiny_request()).status, Status::Ok);
  server.stop();
}

/// Read from a raw client socket until one whole frame has arrived, and
/// decode it.  Throws util::CheckError if the server closes first.
Decoded recv_decoded(Socket& raw, FrameParser& parser) {
  std::vector<std::uint8_t> payload;
  std::uint8_t buf[4096];
  while (!parser.next(payload)) {
    const long got = raw.recv_some(buf, sizeof buf);
    FSI_CHECK(got > 0, "server closed the connection before answering");
    parser.feed(buf, static_cast<std::size_t>(got));
  }
  return decode_payload(payload.data(), payload.size());
}

TEST(ServeServer, WrongSchemaAnsweredMalformed) {
  GateEngine gate;
  Server server(stub_options(test_socket_path("schema"), gate));
  server.start();

  // 99 is from no build; 4 is what clients built before schema 5 send.
  // Each is answered Malformed naming the schema, and the connection
  // survives to serve a current request.
  Socket raw = connect_to(server.endpoint());
  FrameParser parser;
  for (const std::uint32_t bad_version : {99u, 4u}) {
    auto payload = encode_request(tiny_request());
    std::memcpy(payload.data(), &bad_version, sizeof bad_version);
    std::vector<std::uint8_t> frame;
    append_frame(frame, payload);
    ASSERT_TRUE(raw.send_all(frame.data(), frame.size()));
    const Decoded d = recv_decoded(raw, parser);
    ASSERT_EQ(d.type, MsgType::InvertResponse);
    EXPECT_EQ(d.response.status, Status::Malformed) << bad_version;
    EXPECT_NE(d.response.message.find("schema"), std::string::npos)
        << d.response.message;
  }
  std::vector<std::uint8_t> frame;
  append_frame(frame, encode_request(tiny_request(5)));
  ASSERT_TRUE(raw.send_all(frame.data(), frame.size()));
  const Decoded ok = recv_decoded(raw, parser);
  EXPECT_EQ(ok.response.id, 5u);
  EXPECT_EQ(ok.response.status, Status::Ok);
  raw.close();

  // The daemon keeps serving new connections too.
  Client client(server.endpoint());
  EXPECT_EQ(client.request(tiny_request()).status, Status::Ok);
  server.stop();
  EXPECT_EQ(server.stats().malformed, 2u);
}

TEST(ServeServer, HostileFieldCountAnsweredMalformedDaemonSurvives) {
  // The original remote-DoS shape: a well-framed request whose field-vector
  // length prefix is a wrap-inducing u64.  The decode must fail as a bounds
  // check (answered Malformed), not escape the reader thread as
  // std::length_error and terminate the daemon.
  GateEngine gate;
  Server server(stub_options(test_socket_path("hostile_count"), gate));
  server.start();

  io::WireWriter w;
  w.put_u32(kSchemaVersion);
  w.put_u32(static_cast<std::uint32_t>(MsgType::InvertRequest));
  w.put_u64(77);   // id
  w.put_u32(2);    // lx
  w.put_u32(1);    // ly
  w.put_u32(2);    // l
  w.put_u32(1);    // c
  w.put_i32(0);    // q
  w.put_u64(3);    // seed
  w.put_f64(1.0);  // t
  w.put_f64(2.0);  // u
  w.put_f64(1.0);  // beta
  w.put_i64(0);    // deadline_us
  w.put_u8(0);     // time_dependent
  w.put_u64(0x2000000000000001ULL);  // hostile field count
  w.put_f64(0.0);  // 8 bytes of "field" — matches the wrapped product
  std::vector<std::uint8_t> frame;
  append_frame(frame, w.take());

  Socket raw = connect_to(server.endpoint());
  ASSERT_TRUE(raw.send_all(frame.data(), frame.size()));
  FrameParser parser;
  const Decoded d = recv_decoded(raw, parser);
  ASSERT_EQ(d.type, MsgType::InvertResponse);
  EXPECT_EQ(d.response.status, Status::Malformed);
  raw.close();

  // The daemon keeps serving.
  Client client(server.endpoint());
  EXPECT_EQ(client.request(tiny_request()).status, Status::Ok);
  server.stop();
}

TEST(ServeServer, ModelCacheStaysBounded) {
  // The model cache is keyed on client-supplied (t, u, beta): a client
  // sweeping parameters must not grow server memory without bound.
  GateEngine gate;
  ServerOptions o = stub_options(test_socket_path("model_cache"), gate);
  o.queue_depth = 64;
  Server server(std::move(o));
  server.start();
  Client client(server.endpoint());

  for (int i = 0; i < 12; ++i) {
    InvertRequest r = tiny_request(static_cast<std::uint64_t>(i));
    r.beta = 1.0 + 0.25 * i;  // distinct batch key per request
    ASSERT_EQ(client.request(std::move(r)).status, Status::Ok);
  }
  // A repeat of the most recent key is a cache hit, not a rebuild.
  InvertRequest again = tiny_request(99);
  again.beta = 1.0 + 0.25 * 11;
  ASSERT_EQ(client.request(std::move(again)).status, Status::Ok);

  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.models_built, 12u);      // 12 distinct keys, 1 hit
  EXPECT_LE(s.model_cache_size, 8u);   // kModelCacheCap: old entries evicted
  EXPECT_EQ(s.served_ok, 13u);
}

TEST(ServeServer, TruncatedFrameDisconnectKeepsServing) {
  GateEngine gate;
  Server server(stub_options(test_socket_path("truncated"), gate));
  server.start();

  {
    // Send half a request frame, then vanish mid-request.
    Socket raw = connect_to(server.endpoint());
    std::vector<std::uint8_t> frame;
    append_frame(frame, encode_request(tiny_request()));
    ASSERT_TRUE(raw.send_all(frame.data(), frame.size() / 2));
    raw.close();
  }
  {
    // Oversized declared length: the server answers Malformed and closes.
    Socket raw = connect_to(server.endpoint());
    std::uint8_t header[8];
    const std::uint32_t magic = kFrameMagic;
    const std::uint32_t huge = (64u << 20) + 1;
    std::memcpy(header, &magic, 4);
    std::memcpy(header + 4, &huge, 4);
    ASSERT_TRUE(raw.send_all(header, sizeof header));
    std::uint8_t buf[4096];
    while (raw.recv_some(buf, sizeof buf) > 0) {
    }  // drain until the server closes
  }

  Client client(server.endpoint());
  EXPECT_EQ(client.request(tiny_request()).status, Status::Ok);
  server.stop();
  EXPECT_EQ(server.stats().served_ok, 1u);
}

TEST(ServeServer, DisconnectWhileQueuedCancels) {
  GateEngine gate;
  gate.hold();
  Server server(stub_options(test_socket_path("cancel"), gate));
  server.start();

  Client keeper(server.endpoint());
  auto f0 = keeper.submit(tiny_request(1));  // blocks the engine
  ASSERT_TRUE(gate.wait_started(1));

  {
    Client quitter(server.endpoint());
    auto f1 = quitter.submit(tiny_request(2));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server.stats().admitted < 2 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(server.stats().admitted, 2u);
    // quitter's destructor closes the connection with the request queued.
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.release();

  EXPECT_EQ(f0.get().status, Status::Ok);
  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.served_ok, 1u);
  EXPECT_EQ(s.cancelled, 1u);  // dropped without touching the engine
  EXPECT_EQ(gate.calls.load(), 1);
}

TEST(ServeServer, StopAnswersQueuedWithShuttingDown) {
  GateEngine gate;
  gate.hold();
  Server server(stub_options(test_socket_path("shutdown"), gate));
  server.start();
  Client client(server.endpoint());

  auto f0 = client.submit(tiny_request(1));  // in flight, engine held
  ASSERT_TRUE(gate.wait_started(1));
  auto f1 = client.submit(tiny_request(2));  // queued behind it
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().admitted < 2 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(server.stats().admitted, 2u);

  std::thread stopper([&server] { server.stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.release();  // stop() waits for the in-flight batch
  stopper.join();

  EXPECT_EQ(f0.get().status, Status::Ok);
  EXPECT_EQ(f1.get().status, Status::ShuttingDown);
  EXPECT_EQ(server.stats().shed_shutdown, 1u);
}

TEST(ServeServer, MetricsCountOutcomes) {
  namespace m = obs::metrics;
  const auto base_req = m::total(m::Counter::ServeRequests);
  const auto base_rej = m::total(m::Counter::ServeRejected);
  const auto base_dl = m::total(m::Counter::ServeDeadlineMiss);

  GateEngine gate;
  Server server(stub_options(test_socket_path("metrics"), gate));
  server.start();
  Client client(server.endpoint());
  EXPECT_EQ(client.request(tiny_request()).status, Status::Ok);
  InvertRequest late = tiny_request();
  late.deadline_us = -1;
  EXPECT_EQ(client.request(std::move(late)).status, Status::DeadlineMiss);
  server.stop();

  EXPECT_EQ(m::total(m::Counter::ServeRequests), base_req + 1);
  EXPECT_EQ(m::total(m::Counter::ServeRejected), base_rej);
  EXPECT_EQ(m::total(m::Counter::ServeDeadlineMiss), base_dl + 1);
  EXPECT_GT(m::hist(m::Hist::ServeLatency).count, 0u);
  EXPECT_GT(m::hist(m::Hist::ServeBatchOccupancy).count, 0u);
}

// ---------------------------------------------------------------------------
// Trace propagation, timing breakdown, stats endpoint

TEST(ServeServer, ResponseEchoesTraceIdAndBreakdown) {
  GateEngine gate;
  ServerOptions o = stub_options(test_socket_path("trace_echo"), gate);
  o.max_batch = 4;
  Server server(std::move(o));
  server.start();
  Client client(server.endpoint());

  InvertRequest req = tiny_request();
  req.trace_id = 0xABCDEF;
  const std::int64_t t0 = obs::now_ns();
  const InvertResponse r = client.request(std::move(req));
  const auto round_trip_ns = static_cast<std::uint64_t>(obs::now_ns() - t0);
  ASSERT_EQ(r.status, Status::Ok);
  EXPECT_EQ(r.trace_id, 0xABCDEFu);
  // The ns breakdown is filled server-side, and its three legs (arrival ->
  // gathered -> engine start -> engine end) fit inside the client's round
  // trip.
  EXPECT_GT(r.exec_ns, 0u);
  EXPECT_LE(r.queue_wait_ns + r.batch_wait_ns + r.exec_ns, round_trip_ns);
  EXPECT_DOUBLE_EQ(r.batch_occupancy, 0.25);  // 1 request / max_batch 4
  server.stop();
}

TEST(ServeServer, StatsEndpointReturnsLiveSnapshot) {
  GateEngine gate;
  Server server(stub_options(test_socket_path("stats"), gate));
  server.start();
  Client client(server.endpoint());

  ASSERT_EQ(client.request(tiny_request()).status, Status::Ok);
  const StatsResponse s = client.stats();
  EXPECT_GT(s.uptime_ns, 0u);
  EXPECT_EQ(s.connections, 1u);
  EXPECT_EQ(s.admitted, 1u);
  EXPECT_EQ(s.served_ok, 1u);
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.batched_requests, 1u);
  EXPECT_EQ(s.models_built, 1u);
  EXPECT_EQ(s.queue_depth, 0u);
  EXPECT_EQ(s.queue_capacity, 2u);  // stub_options queue_depth
  EXPECT_EQ(s.replicas, 1u);
  // The request just served is inside the 10 s rolling window.
  EXPECT_GE(s.latency_s.count, 1u);
  EXPECT_GE(s.occupancy.count, 1u);
  EXPECT_GT(s.latency_s.p50, 0.0);
  EXPECT_LE(s.latency_s.p50, s.latency_s.p99);
  // The daemon identifies its own build over the wire.
  EXPECT_EQ(s.build_version, obs::build_info().version);
  EXPECT_EQ(s.build_git_sha, obs::build_info().git_sha);
  EXPECT_EQ(s.build_type, obs::build_info().build_type);
  EXPECT_FALSE(s.build_compiler.empty());

  // The in-process snapshot is served by the same path.
  const StatsResponse local = server.stats_snapshot();
  EXPECT_EQ(local.served_ok, 1u);
  server.stop();
}

TEST(ServeServer, AccessLogWritesOneJsonLinePerResponse) {
  const std::string log_path = "/tmp/fsi_serve_test_log_" +
                               std::to_string(::getpid()) + ".jsonl";
  std::remove(log_path.c_str());
  GateEngine gate;
  ServerOptions o = stub_options(test_socket_path("access_log"), gate);
  o.access_log = log_path;
  Server server(std::move(o));
  server.start();
  Client client(server.endpoint());

  InvertRequest ok_req = tiny_request(1);
  ok_req.trace_id = 0x77;
  EXPECT_EQ(client.request(std::move(ok_req)).status, Status::Ok);
  InvertRequest late = tiny_request(2);
  late.deadline_us = -1;
  EXPECT_EQ(client.request(std::move(late)).status, Status::DeadlineMiss);
  server.stop();

  std::ifstream in(log_path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"trace_id\":119"), std::string::npos);  // 0x77
  EXPECT_NE(lines[0].find("\"exec_ns\":"), std::string::npos);
  EXPECT_NE(lines[1].find("\"status\":\"deadline-miss\""), std::string::npos);
  std::remove(log_path.c_str());
}

TEST(ServeClient, StitchedTraceSpansOnClientTimeline) {
  // With tracing enabled the client auto-assigns trace ids, records the
  // request RTT, and synthesizes the server-side breakdown onto its own
  // timeline — one artifact shows the whole journey.
  obs::clear();
  obs::set_enabled(true);
  {
    GateEngine gate;
    Server server(stub_options(test_socket_path("stitch"), gate));
    server.start();
    Client client(server.endpoint());
    const InvertResponse r = client.request(tiny_request());
    ASSERT_EQ(r.status, Status::Ok);
    EXPECT_NE(r.trace_id, 0u);  // auto-assigned because tracing is on
    server.stop();
  }
  bool saw_rtt = false, saw_exec = false;
  for (const auto& s : obs::summary()) {
    if (s.name == "serve.client.rtt") saw_rtt = true;
    if (s.name == "serve.server.exec") saw_exec = true;
  }
  EXPECT_TRUE(saw_rtt);
  EXPECT_TRUE(saw_exec);
  const std::string json = obs::chrome_trace_json();
  EXPECT_NE(json.find("trace_id"), std::string::npos);
  obs::set_enabled(false);
  obs::clear();
}

// ---------------------------------------------------------------------------
// OpenMetrics HTTP scrape endpoint

/// One raw HTTP/1.1 request against the exporter; returns everything the
/// server sent before Connection: close.
std::string http_get(const Endpoint& ep, const std::string& request) {
  Socket sock = connect_to(ep);
  EXPECT_TRUE(sock.send_all(request.data(), request.size()));
  std::string out;
  char buf[4096];
  long got;
  while ((got = sock.recv_some(buf, sizeof buf)) > 0)
    out.append(buf, static_cast<std::size_t>(got));
  return out;
}

std::string http_body(const std::string& response) {
  const std::size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? "" : response.substr(at + 4);
}

TEST(ServeMetricsHttp, LiveScrapePassesTheGrammarChecker) {
  obs::metrics::add(obs::metrics::Counter::ServeRequests, 3);
  MetricsExporter exporter(Endpoint::parse("tcp:127.0.0.1:0"));
  exporter.start();

  const std::string resp =
      http_get(exporter.endpoint(),
               "GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n");
  exporter.stop();

  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos) << resp;
  EXPECT_NE(resp.find("application/openmetrics-text"), std::string::npos);
  EXPECT_NE(resp.find("Connection: close"), std::string::npos);

  fsi::testing::OpenMetricsChecker checker;
  EXPECT_TRUE(checker.check(http_body(resp))) << checker.error();
  EXPECT_GE(checker.value_of("fsi_serve_requests_total"), 3.0);
  EXPECT_EQ(exporter.requests_served(), 1u);
}

TEST(ServeMetricsHttp, HealthzAndErrorPaths) {
  MetricsExporter exporter(Endpoint::parse("tcp:127.0.0.1:0"));
  exporter.start();
  const Endpoint ep = exporter.endpoint();

  EXPECT_NE(http_get(ep, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                .find("HTTP/1.1 200 OK"),
            std::string::npos);
  EXPECT_NE(http_get(ep, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n")
                .find("HTTP/1.1 404"),
            std::string::npos);
  EXPECT_NE(http_get(ep, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
                .find("HTTP/1.1 405"),
            std::string::npos);
  EXPECT_NE(http_get(ep, "garbage\r\n\r\n").find("HTTP/1.1 400"),
            std::string::npos);
  exporter.stop();
}

TEST(ServeMetricsHttp, SurvivesAbruptDisconnectAndServesNextClient) {
  MetricsExporter exporter(Endpoint::parse("tcp:127.0.0.1:0"));
  exporter.start();
  {
    // Client connects and leaves without sending a full request: the
    // exporter's read timeout must reclaim the serving thread.
    Socket rude = connect_to(exporter.endpoint());
    rude.send_all("GET /metr", 9);
    rude.close();
  }
  const std::string resp = http_get(
      exporter.endpoint(), "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos);
  exporter.stop();
}

TEST(ServeMetricsHttp, StopUnblocksAndStartupFailureThrows) {
  MetricsExporter exporter(Endpoint::parse("tcp:127.0.0.1:0"));
  exporter.start();
  const int port = exporter.endpoint().port;
  ASSERT_GT(port, 0);
  // A second exporter on the same resolved port cannot bind.
  MetricsExporter clash(
      Endpoint::parse("tcp:127.0.0.1:" + std::to_string(port)));
  EXPECT_THROW(clash.start(), util::CheckError);
  exporter.stop();   // returns promptly with no client connected
  exporter.stop();   // idempotent
}

}  // namespace
