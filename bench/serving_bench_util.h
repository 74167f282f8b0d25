// Helpers shared by the serving benches (multi_tenant_serving,
// network_serving, router_serving): the protocol workload generator, the
// loopback TCP clients (pipelined pump and round-trip pings, over
// util/socket), and the latency percentile. Header-only; each bench
// is one translation unit.
#ifndef NUCLEUS_BENCH_SERVING_BENCH_UTIL_H_
#define NUCLEUS_BENCH_SERVING_BENCH_UTIL_H_

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "nucleus/core/types.h"
#include "nucleus/util/rng.h"
#include "nucleus/util/socket.h"

namespace nucleus::serving_bench {

/// One tenant's request lines for one script block, as protocol text — the
/// benches measure the full serving surface (socket framing + parse + route
/// + batch + JSON), not just QueryEngine::RunBatch. Every serving bench
/// draws the same verb mix, so they price the same workload with and
/// without each tier in front.
inline std::string MakeBlock(Rng& rng, std::int64_t num_cliques,
                             std::int64_t num_nodes, Lambda max_lambda,
                             std::int64_t count, const std::string& prefix) {
  std::ostringstream block;
  for (std::int64_t i = 0; i < count; ++i) {
    const std::int64_t roll = rng.UniformInt(0, 99);
    block << prefix;
    if (roll < 35) {
      block << "lambda " << rng.UniformInt(0, num_cliques - 1);
    } else if (roll < 60 && max_lambda >= 1) {
      block << "nucleus " << rng.UniformInt(0, num_cliques - 1) << " "
            << rng.UniformInt(1, max_lambda);
    } else if (roll < 90) {
      block << (rng.Bernoulli(0.5) ? "common " : "level ")
            << rng.UniformInt(0, num_cliques - 1) << " "
            << rng.UniformInt(0, num_cliques - 1);
    } else if (roll < 97) {
      block << "top " << rng.UniformInt(1, 10);
    } else {
      block << "members " << rng.UniformInt(0, num_nodes - 1);
    }
    block << "\n";
  }
  return block.str();
}

/// Dials 127.0.0.1:`port`; exits on failure (the server under test is
/// already listening, so a failure is a broken run).
inline int DialOrExit(int port) {
  const StatusOr<int> fd = DialTcp(
      "127.0.0.1", port, SocketClock::now() + std::chrono::seconds(10));
  if (!fd.ok()) {
    std::fprintf(stderr, "error: %s\n", fd.status().message().c_str());
    std::exit(1);
  }
  return *fd;
}

/// Fire-hose `script` at `port` from a writer thread (so a full kernel
/// buffer on either side cannot deadlock the pump), half-close, and read
/// the whole transcript back.
inline std::string PumpScript(int port, const std::string& script) {
  const int fd = DialOrExit(port);
  std::thread writer([fd, &script] {
    if (SendAll(fd, script)) ::shutdown(fd, SHUT_WR);
  });
  std::string transcript;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    transcript.append(buf, static_cast<std::size_t>(n));
  }
  writer.join();
  ::close(fd);
  return transcript;
}

/// Round-trip latency: sends `ping` (one '\n'-terminated line) `count`
/// times over one connection to `port`, one request in flight, and
/// returns each send-to-answer time in ms. Exits if the connection drops.
inline std::vector<double> PingRoundTripsMs(int port, const std::string& ping,
                                            std::int64_t count) {
  const int fd = DialOrExit(port);
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(count));
  std::string carry;
  std::string line;
  for (std::int64_t i = 0; i < count; ++i) {
    const auto deadline = SocketClock::now() + std::chrono::seconds(30);
    const auto start = std::chrono::steady_clock::now();
    const bool answered =
        SendAll(fd, ping) &&
        ReadLineWithDeadline(fd, deadline, carry, &line) == LineRead::kLine;
    const auto stop = std::chrono::steady_clock::now();
    if (!answered) {
      std::fprintf(stderr, "error: connection dropped mid round-trip\n");
      std::exit(1);
    }
    samples.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
  }
  ::shutdown(fd, SHUT_WR);
  char buf[4096];
  while (::recv(fd, buf, sizeof(buf), 0) > 0) {
  }
  ::close(fd);
  return samples;
}

/// Nearest-rank percentile (`p` in [0, 1]); sorts `samples` in place.
inline double Percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = static_cast<std::size_t>(std::max<std::int64_t>(
      0, static_cast<std::int64_t>(
             std::ceil(p * static_cast<double>(samples.size()))) -
             1));
  return samples[std::min(rank, samples.size() - 1)];
}

}  // namespace nucleus::serving_bench

#endif  // NUCLEUS_BENCH_SERVING_BENCH_UTIL_H_
