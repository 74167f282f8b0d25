// The load generator: one single-threaded, poll()-driven client that
// keeps a fixed window of pipelined lines in flight on each of its
// connections (a closed loop: a new line goes out only when a response
// comes back) and byte-compares every response with the transcript an
// in-process replay of the same script produced.
#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One connection's script and its expected transcript, line by line
/// (both without the trailing newline). A cycling script starts over when
/// exhausted, which is valid when one pass leaves the served state as it
/// found it; a one-shot script is sent once.
struct ConnScript {
  std::vector<std::string> lines;
  std::vector<std::string> expected;
  bool cycle = true;
  /// Keep sending past the deadline until the pass in progress is
  /// complete, so a stateful script always ends where it began.
  bool whole_passes = false;
};

struct SessionOptions {
  int window = 32;          // lines in flight per connection
  double seconds = 1.0;     // stop sending after this long
  bool record_spans = false;   // one span per line, kept in memory
};

struct LineSpan {
  std::int64_t send_ns = 0;
  std::int64_t recv_ns = 0;
};

struct SessionResult {
  std::int64_t sent = 0;
  std::int64_t answered = 0;
  std::int64_t mismatched = 0;  // byte-different or missing responses
  std::int64_t updates = 0;     // update lines answered
  std::vector<double> latency_ms;         // every answered line
  std::vector<double> update_latency_ms;  // update lines only
  std::vector<double> lateness_us;  // poll wake-up to refill sent
  double wall_seconds = 0.0;
  double client_cpu_seconds = 0.0;
  std::vector<LineSpan> spans;
};

SessionResult RunSession(int port, const std::vector<ConnScript>& scripts,
                         const SessionOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
