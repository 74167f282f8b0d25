// The metrics exposition listener's worker pool: a stalled scraper (a
// client that connects and sends nothing) must not delay other scrapes
// or Stop(), connections past the queue bound are shed instead of
// buffered, and the served payload is a well-formed HTTP/1.0 response.
// Suites are named Exposition* so the CI TSan job picks them up.
#include "nucleus/obs/exposition.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace nucleus {
namespace obs {
namespace {

using testing_util::Dial;

/// One full scrape: send a request line, read to EOF.
std::string Scrape(int port) {
  const int fd = Dial(port);
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  EXPECT_GT(::send(fd, request.data(), request.size(), MSG_NOSIGNAL), 0);
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(ExpositionPool, ServesWellFormedHttpResponse) {
  MetricsExpositionServer server(
      [] { return std::string("demo_metric 1\n"); },
      MetricsExpositionServer::Options{});
  ASSERT_TRUE(server.Start().ok());
  const std::string response = Scrape(server.port());
  server.Stop();
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Length: 14"), std::string::npos);
  EXPECT_NE(response.find("\r\n\r\ndemo_metric 1\n"), std::string::npos);
}

// The regression this worker pool exists for: with the single-threaded
// accept+serve loop, one silent client pinned the WHOLE listener for the
// full recv timeout, stalling every other scraper behind it. Now the
// stalled clients each pin one pool worker while a free worker serves
// the real scrape promptly, and the accept loop itself never blocks.
TEST(ExpositionPool, StalledClientsDoNotBlockOtherScrapes) {
  MetricsExpositionServer::Options options;
  options.workers = 4;
  MetricsExpositionServer server(
      [] { return std::string("demo_metric 1\n"); }, options);
  ASSERT_TRUE(server.Start().ok());

  // Three clients connect and stall (they send nothing, so each pins a
  // worker for the 200 ms recv timeout)...
  std::vector<int> stallers;
  for (int i = 0; i < 3; ++i) stallers.push_back(Dial(server.port()));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // ...and a real scrape gets the free worker immediately. The bound is
  // deliberately far under the 3 x 200 ms a serial loop would need, but
  // wide enough for CI scheduling noise.
  const auto start = std::chrono::steady_clock::now();
  const std::string response = Scrape(server.port());
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_NE(response.find("demo_metric 1"), std::string::npos) << response;
  EXPECT_LT(elapsed.count(), 400) << "scrape was serialized behind stallers";

  for (const int fd : stallers) ::close(fd);
  server.Stop();
}

// Stop() with stalled clients still pending must return: workers drain
// the accepted queue (each connection bounded by the recv timeout) and
// exit, rather than waiting for clients that will never speak.
TEST(ExpositionPool, StopReturnsWithStalledClientsPending) {
  MetricsExpositionServer::Options options;
  options.workers = 2;
  MetricsExpositionServer server(
      [] { return std::string("demo_metric 1\n"); }, options);
  ASSERT_TRUE(server.Start().ok());
  std::vector<int> stallers;
  for (int i = 0; i < 6; ++i) stallers.push_back(Dial(server.port()));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.Stop();  // the test's own timeout is the assertion
  for (const int fd : stallers) ::close(fd);
}

// Connections past max_queued are shed (closed without a response), and
// the listener keeps serving afterwards — load-shedding, not collapse.
TEST(ExpositionGuard, QueueBoundShedsExcessConnections) {
  MetricsExpositionServer::Options options;
  options.workers = 1;
  options.max_queued = 1;
  MetricsExpositionServer server(
      [] { return std::string("demo_metric 1\n"); }, options);
  ASSERT_TRUE(server.Start().ok());

  // The first staller pins the lone worker; the burst behind it exceeds
  // the one-slot queue, so most of these are shed with a bare close.
  const int wedge = Dial(server.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::vector<int> burst;
  for (int i = 0; i < 8; ++i) burst.push_back(Dial(server.port()));
  // Shed connections see immediate EOF; at most one (the queue slot) is
  // eventually served once the wedge's recv timeout expires.
  int shed = 0;
  for (const int fd : burst) {
    std::string got;
    char chunk[1024];
    for (;;) {
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      got.append(chunk, static_cast<std::size_t>(n));
    }
    if (got.empty()) {
      ++shed;
    } else {
      EXPECT_NE(got.find("demo_metric 1"), std::string::npos) << got;
    }
    ::close(fd);
  }
  EXPECT_GE(shed, 7);
  ::close(wedge);

  // After the storm the listener still serves a normal scrape.
  const std::string response = Scrape(server.port());
  EXPECT_NE(response.find("demo_metric 1"), std::string::npos) << response;
  EXPECT_EQ(server.accept_errors(), 0);
  server.Stop();
}

}  // namespace
}  // namespace obs
}  // namespace nucleus
