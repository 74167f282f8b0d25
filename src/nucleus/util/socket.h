// The serving tier's TCP plumbing, written once. Every listener (TcpServer,
// the metrics exposition), every dialer (the router's backend pool and
// health probe, `nucleus_cli connect`), every blocking send-all loop and
// every deadline-bounded line read goes through this file, and
// tools/nucleus_lint.py's raw-socket rule keeps ::socket / ::bind /
// ::listen / ::connect out of the rest of src/nucleus.
//
// Addresses are numeric IPv4 (no resolver: the tier is built for loopback
// and explicitly configured peers). Descriptors are plain ints owned by the
// caller. Sends use MSG_NOSIGNAL, so a vanished peer is an error return,
// never a SIGPIPE.
//
// TcpServer's per-connection FdStreamBuf stays outside this file on
// purpose: it writes to a non-blocking socket under a stall deadline, a
// policy SendAll's blocking callers do not want.
#ifndef NUCLEUS_UTIL_SOCKET_H_
#define NUCLEUS_UTIL_SOCKET_H_

#include <chrono>
#include <string>
#include <string_view>

#include "nucleus/util/status.h"

namespace nucleus {

using SocketClock = std::chrono::steady_clock;

/// A listening socket and the port it is bound to.
struct TcpListener {
  int fd = -1;
  int port = 0;  // the bound port (resolves a requested port 0)
};

/// Binds and listens on `host`:`port` (port 0 = ephemeral) with
/// SO_REUSEADDR; the fd is blocking. InvalidArgument for a host that is
/// not a numeric IPv4 address, Internal for socket/bind/listen failures
/// (port taken, permission).
StatusOr<TcpListener> ListenTcp(const std::string& host, int port);

/// Connects to `host`:`port`, giving up at `deadline`. The fd is blocking
/// with TCP_NODELAY set. InvalidArgument for a non-numeric host; NotFound
/// when the peer refused (nothing listens there, e.g. a server that has
/// not bound yet: callers that race a server's start retry on it);
/// Internal for every other failure, the deadline included.
StatusOr<int> DialTcp(const std::string& host, int port,
                      SocketClock::time_point deadline);

/// Writes all of `data` to blocking socket `fd`. False once the peer is
/// gone (EINTR is retried).
bool SendAll(int fd, std::string_view data);

enum class LineRead {
  kLine,     // *line holds the next line
  kEof,      // the peer closed (or the read failed) before a '\n'
  kTimeout,  // `deadline` passed first
};

/// Reads the next '\n'-terminated line of `fd` into `*line`, without the
/// newline, waiting until `deadline` at most. Reads in chunks with
/// read(2), so it works on sockets and pipes alike; bytes that arrive past
/// the newline stay in `carry` for the next call, which consumes `carry`
/// before reading again. On kEof/kTimeout the partial line stays in
/// `carry` and `*line` is untouched.
LineRead ReadLineWithDeadline(int fd, SocketClock::time_point deadline,
                              std::string& carry, std::string* line);

/// Splits "<host>:<port>" at its last ':' and checks both halves: port in
/// [1, 65535], host a numeric IPv4 address. InvalidArgument otherwise.
Status ParseHostPort(const std::string& address, std::string* host,
                     int* port);

}  // namespace nucleus

#endif  // NUCLEUS_UTIL_SOCKET_H_
