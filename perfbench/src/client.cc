#include "client.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <string_view>

#include "util.h"

namespace perfbench {
namespace {

struct Conn {
  const ConnScript* script = nullptr;
  int fd = -1;
  std::int64_t next_send = 0;
  std::int64_t next_recv = 0;
  std::vector<std::int64_t> send_ns;  // ring indexed by seq % window
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  bool closed = false;

  std::int64_t inflight() const { return next_send - next_recv; }
  const std::string& Line(std::int64_t seq) const {
    return script->lines[static_cast<std::size_t>(
        seq % static_cast<std::int64_t>(script->lines.size()))];
  }
  const std::string& Expected(std::int64_t seq) const {
    return script->expected[static_cast<std::size_t>(
        seq % static_cast<std::int64_t>(script->expected.size()))];
  }
};

bool IsUpdate(const std::string& line) {
  return line.find("update ") != std::string::npos;
}

}  // namespace

SessionResult RunSession(int port, const std::vector<ConnScript>& scripts,
                         const SessionOptions& options) {
  SessionResult result;
  const std::int64_t window = options.window;
  std::vector<Conn> conns(scripts.size());
  for (std::size_t c = 0; c < scripts.size(); ++c) {
    conns[c].script = &scripts[c];
    conns[c].fd = Dial(port);
    ::fcntl(conns[c].fd, F_SETFL, ::fcntl(conns[c].fd, F_GETFL) | O_NONBLOCK);
    conns[c].send_ns.assign(static_cast<std::size_t>(window), 0);
  }
  if (options.record_spans) result.spans.reserve(1 << 20);

  const double cpu_start = ThreadCpuSeconds();
  const std::int64_t start_ns = NowNs();
  const std::int64_t stop_ns =
      start_ns + static_cast<std::int64_t>(options.seconds * 1e9);
  const std::int64_t abort_ns = stop_ns + 30'000'000'000LL;
  std::vector<pollfd> pfds(conns.size());
  std::int64_t wake_ns = start_ns;
  bool first = true;
  for (;;) {
    // Refill every window, then push pending bytes.
    const std::int64_t now = NowNs();
    const bool sending = now < stop_ns;
    bool busy = false;
    for (Conn& conn : conns) {
      if (conn.closed) continue;
      const auto pass = static_cast<std::int64_t>(conn.script->lines.size());
      // A one-shot script stops after its pass; a whole-pass script keeps
      // sending past the deadline until its pass is complete.
      const auto may_send = [&] {
        if (!conn.script->cycle && conn.next_send >= pass) return false;
        return sending ||
               (conn.script->whole_passes && conn.next_send % pass != 0);
      };
      while (conn.inflight() < window && may_send()) {
        conn.out += conn.Line(conn.next_send);
        conn.out += '\n';
        conn.send_ns[static_cast<std::size_t>(conn.next_send % window)] = now;
        ++conn.next_send;
      }
      if (conn.out_off < conn.out.size()) {
        const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                                 conn.out.size() - conn.out_off, MSG_NOSIGNAL);
        if (n > 0) conn.out_off += static_cast<std::size_t>(n);
        if (conn.out_off == conn.out.size()) {
          conn.out.clear();
          conn.out_off = 0;
        }
      }
      if (conn.inflight() > 0) busy = true;
    }
    if (!first) result.lateness_us.push_back((NowNs() - wake_ns) * 1e-3);
    first = false;
    if (!busy) break;
    if (NowNs() > abort_ns) break;

    for (std::size_t c = 0; c < conns.size(); ++c) {
      pfds[c].fd = conns[c].closed ? -1 : conns[c].fd;
      pfds[c].events = static_cast<short>(
          POLLIN | (conns[c].out.empty() ? 0 : POLLOUT));
      pfds[c].revents = 0;
    }
    if (::poll(pfds.data(), pfds.size(), 100) < 0 && errno != EINTR) break;
    wake_ns = NowNs();
    for (std::size_t c = 0; c < conns.size(); ++c) {
      Conn& conn = conns[c];
      if (conn.closed || (pfds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
        continue;
      }
      char buf[1 << 16];
      for (;;) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          conn.in.append(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          conn.closed = true;
        }
        break;
      }
      std::size_t begin = 0;
      for (std::size_t eol = conn.in.find('\n'); eol != std::string::npos;
           eol = conn.in.find('\n', begin)) {
        const std::string_view got(conn.in.data() + begin, eol - begin);
        begin = eol + 1;
        const std::int64_t seq = conn.next_recv++;
        if (seq >= conn.next_send) {  // an answer to nothing we sent
          ++result.mismatched;
          continue;
        }
        const double ms =
            (wake_ns - conn.send_ns[static_cast<std::size_t>(seq % window)]) *
            1e-6;
        result.latency_ms.push_back(ms);
        if (got != conn.Expected(seq)) ++result.mismatched;
        if (IsUpdate(conn.Line(seq))) {
          ++result.updates;
          result.update_latency_ms.push_back(ms);
        }
        if (options.record_spans) {
          result.spans.push_back(
              {conn.send_ns[static_cast<std::size_t>(seq % window)], wake_ns});
        }
      }
      conn.in.erase(0, begin);
      if (conn.closed) {
        // Lines still in flight on a dead connection never get answers.
        result.mismatched += conn.inflight();
        conn.next_recv = conn.next_send;
      }
    }
  }
  const std::int64_t end_ns = NowNs();
  result.wall_seconds = (end_ns - start_ns) * 1e-9;
  result.client_cpu_seconds = ThreadCpuSeconds() - cpu_start;
  for (Conn& conn : conns) {
    result.sent += conn.next_send;
    result.answered += conn.next_recv;
    result.mismatched += conn.inflight();  // aborted with lines in flight
    ::close(conn.fd);
  }
  return result;
}

}  // namespace perfbench
