#pragma once
/// \file client.hpp
/// \brief Client for the fsi::serve daemon: blocking and async submission
/// over one pipelined connection.
///
/// One Client owns one connection and a reader thread.  submit() assigns a
/// fresh request id, writes the frame, and returns a std::future resolved
/// by the reader when the matching response arrives — so many requests can
/// be in flight at once and share a server-side batch.  request() is the
/// blocking convenience wrapper.
///
/// When the connection drops, every outstanding future is resolved with
/// Status::Error ("connection closed"), never abandoned; outstanding stats
/// futures fail with an exception.
///
/// Tracing: submit() stamps client_send_ns on every request, and — when
/// obs tracing is enabled — assigns a process-unique trace_id (pid << 32 |
/// id) to untraced requests.  The reader records a "serve.client.rtt" span
/// per response and synthesizes the server-side breakdown
/// (serve.server.queue_wait / batch_wait / exec, from the response's
/// nanosecond fields) onto the *client's* timeline, centred in the RTT
/// slack, so one chrome://tracing artifact shows the stitched
/// client+server journey of each request under a shared trace_id.

#include <cstdint>
#include <future>
#include <memory>

#include "fsi/serve/protocol.hpp"
#include "fsi/serve/socket.hpp"

namespace fsi::serve {

class Client {
 public:
  /// Connect to a serving endpoint and start the reader.
  /// Throws util::CheckError if the connection fails.
  explicit Client(const Endpoint& endpoint);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send one request (the id field is overwritten with a fresh id) and
  /// return a future for its response.  Throws util::CheckError if the
  /// connection is already closed.
  std::future<InvertResponse> submit(InvertRequest request);

  /// Blocking round trip: submit() + wait.
  InvertResponse request(InvertRequest req);

  /// Ask the server for a live stats snapshot (admin message).  The
  /// future fails with an exception if the connection closes first.
  std::future<StatsResponse> submit_stats();

  /// Blocking stats round trip.
  StatsResponse stats();

  /// True while the connection is up.
  bool connected() const;

  /// Close the connection (outstanding futures resolve with Error).
  void close();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fsi::serve
