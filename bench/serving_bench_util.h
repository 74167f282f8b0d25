// Helpers shared by the serving benches (multi_tenant_serving,
// network_serving, router_serving): the protocol workload generator, a
// loopback TCP client, and the latency percentile. Header-only; each bench
// is one translation unit.
#ifndef NUCLEUS_BENCH_SERVING_BENCH_UTIL_H_
#define NUCLEUS_BENCH_SERVING_BENCH_UTIL_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
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

/// Connects to 127.0.0.1:`port` with TCP_NODELAY; exits on failure.
inline int Dial(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("socket");
    std::exit(1);
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::perror("connect");
    std::exit(1);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

inline void SendAll(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n <= 0) return;  // server closed; the reader will notice
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

/// Fire-hose `script` down `fd` from a writer thread (so a full kernel
/// buffer on either side cannot deadlock the pump), half-close, and read
/// the whole transcript back. Closes `fd`.
inline std::string PumpScript(int fd, const std::string& script) {
  std::thread writer([fd, &script] {
    SendAll(fd, script.data(), script.size());
    ::shutdown(fd, SHUT_WR);
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

/// Reads one '\n'-terminated line; `carry` holds bytes read past it.
inline std::string ReadLine(int fd, std::string& carry) {
  for (;;) {
    const std::size_t pos = carry.find('\n');
    if (pos != std::string::npos) {
      std::string line = carry.substr(0, pos + 1);
      carry.erase(0, pos + 1);
      return line;
    }
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return std::string();
    carry.append(buf, static_cast<std::size_t>(n));
  }
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
