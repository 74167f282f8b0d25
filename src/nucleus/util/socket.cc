#include "nucleus/util/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>

#include "nucleus/util/parse_util.h"

namespace nucleus {
namespace {

bool ToSockaddr(const std::string& host, int port, sockaddr_in* addr) {
  *addr = sockaddr_in{};
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<std::uint16_t>(port));
  return ::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) == 1;
}

/// Milliseconds until `deadline` for poll(): rounded up so a wait never
/// ends just short of it, and 0 once it has passed.
int PollTimeoutMs(SocketClock::time_point deadline) {
  const auto left = std::chrono::ceil<std::chrono::milliseconds>(
      deadline - SocketClock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

}  // namespace

StatusOr<TcpListener> ListenTcp(const std::string& host, int port) {
  sockaddr_in addr;
  if (!ToSockaddr(host, port, &addr)) {
    return Status::InvalidArgument("invalid listen address '" + host +
                                   "' (numeric IPv4 expected)");
  }
  TcpListener listener;
  listener.fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener.fd < 0) {
    return Status::Internal("socket() failed: " +
                            std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listener.fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const char* failed = nullptr;
  if (::bind(listener.fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    failed = "bind(";
  } else if (::listen(listener.fd, 128) != 0) {
    failed = "listen(";
  }
  if (failed != nullptr) {
    const int error = errno;
    ::close(listener.fd);
    return Status::Internal(failed + host + ":" + std::to_string(port) +
                            ") failed: " + std::strerror(error));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listener.fd, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    listener.port = static_cast<int>(ntohs(bound.sin_port));
  }
  return listener;
}

StatusOr<int> DialTcp(const std::string& host, int port,
                      SocketClock::time_point deadline) {
  sockaddr_in addr;
  if (!ToSockaddr(host, port, &addr)) {
    return Status::InvalidArgument("invalid host '" + host +
                                   "' (numeric IPv4 expected)");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal("socket() failed: " +
                            std::string(std::strerror(errno)));
  }
  // Non-blocking connect + poll bounds the handshake by the deadline; the
  // session itself runs blocking.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int error = 0;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    error = errno;
    if (error == EINPROGRESS) {
      pollfd pfd = {fd, POLLOUT, 0};
      int r = 0;
      do {
        r = ::poll(&pfd, 1, PollTimeoutMs(deadline));
      } while (r < 0 && errno == EINTR);
      socklen_t len = sizeof(error);
      if (r == 0) {
        error = ETIMEDOUT;
      } else if (r < 0) {
        error = errno;
      } else if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &len) != 0) {
        error = errno;
      }
    }
  }
  if (error != 0) {
    ::close(fd);
    const std::string message = "cannot connect to " + host + ":" +
                                std::to_string(port) + ": " +
                                std::strerror(error);
    return error == ECONNREFUSED ? Status::NotFound(message)
                                 : Status::Internal(message);
  }
  ::fcntl(fd, F_SETFL, flags);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

LineRead ReadLineWithDeadline(int fd, SocketClock::time_point deadline,
                              std::string& carry, std::string* line) {
  std::size_t scanned = 0;  // carry[0, scanned) holds no '\n'
  for (;;) {
    const std::size_t newline = carry.find('\n', scanned);
    if (newline != std::string::npos) {
      line->assign(carry, 0, newline);
      carry.erase(0, newline + 1);
      return LineRead::kLine;
    }
    scanned = carry.size();
    pollfd pfd = {fd, POLLIN, 0};
    const int r = ::poll(&pfd, 1, PollTimeoutMs(deadline));
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) return LineRead::kEof;
    if (r == 0) return LineRead::kTimeout;
    char chunk[16384];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    if (n <= 0) return LineRead::kEof;
    carry.append(chunk, static_cast<std::size_t>(n));
  }
}

Status ParseHostPort(const std::string& address, std::string* host,
                     int* port) {
  const std::size_t colon = address.rfind(':');
  std::int64_t parsed = 0;
  if (colon == std::string::npos || colon == 0 ||
      !StrictParseInt64(address.substr(colon + 1), &parsed) || parsed <= 0 ||
      parsed > 65535) {
    return Status::InvalidArgument("'" + address +
                                   "' is not <host>:<port>");
  }
  *host = address.substr(0, colon);
  in_addr probe{};
  if (::inet_pton(AF_INET, host->c_str(), &probe) != 1) {
    return Status::InvalidArgument("host '" + *host +
                                   "' (numeric IPv4 expected)");
  }
  *port = static_cast<int>(parsed);
  return Status::Ok();
}

}  // namespace nucleus
