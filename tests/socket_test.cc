// util/socket: the one TCP layer under the serving tier. SendAll must move
// megabytes through a socket a concurrent peer drains, the chunked line
// reader must join split writes, keep bytes past the newline for the next
// call, honour its deadline and read pipes as well as sockets, and the
// listen/dial helpers must report bound ports and fail fast and typed.
#include "nucleus/util/socket.h"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>

#include <gtest/gtest.h>

namespace nucleus {
namespace {

struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    for (const int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
  }
};

SocketClock::time_point In(std::chrono::milliseconds ms) {
  return SocketClock::now() + ms;
}

TEST(Socket, SendAllDeliversSeveralMiBToAConcurrentReader) {
  SocketPair pair;
  std::string payload(6 << 20, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('a' + i % 23);
  }
  std::string received;
  std::thread reader([&] {
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::read(pair.fds[1], chunk, sizeof(chunk));
      if (n <= 0) break;
      received.append(chunk, static_cast<std::size_t>(n));
    }
  });
  // Far more than the socket buffer: SendAll must loop on short sends.
  EXPECT_TRUE(SendAll(pair.fds[0], payload));
  ::shutdown(pair.fds[0], SHUT_WR);
  reader.join();
  EXPECT_EQ(received, payload);
}

TEST(Socket, SendAllReportsAVanishedPeer) {
  SocketPair pair;
  ::close(pair.fds[1]);
  pair.fds[1] = -1;
  EXPECT_FALSE(SendAll(pair.fds[0], "stats\n"));  // EPIPE, no SIGPIPE
}

TEST(Socket, ReadLineJoinsALineSplitAcrossWrites) {
  SocketPair pair;
  std::thread writer([&] {
    EXPECT_TRUE(SendAll(pair.fds[1], "hel"));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(SendAll(pair.fds[1], "lo\nwor"));
  });
  std::string carry;
  std::string line;
  EXPECT_EQ(ReadLineWithDeadline(pair.fds[0], In(std::chrono::seconds(5)),
                                 carry, &line),
            LineRead::kLine);
  writer.join();
  EXPECT_EQ(line, "hello");
  EXPECT_EQ(carry, "wor");  // read past the newline, kept for the next call
  EXPECT_TRUE(SendAll(pair.fds[1], "ld\n"));
  EXPECT_EQ(ReadLineWithDeadline(pair.fds[0], In(std::chrono::seconds(5)),
                                 carry, &line),
            LineRead::kLine);
  EXPECT_EQ(line, "world");
  EXPECT_EQ(carry, "");
}

TEST(Socket, ReadLineServesCarriedLinesThenReportsEofBeforeNewline) {
  SocketPair pair;
  EXPECT_TRUE(SendAll(pair.fds[1], "a\n\nb\nc"));
  ::shutdown(pair.fds[1], SHUT_WR);
  std::string carry;
  std::string line;
  const auto deadline = In(std::chrono::seconds(5));
  for (const char* expected : {"a", "", "b"}) {
    ASSERT_EQ(ReadLineWithDeadline(pair.fds[0], deadline, carry, &line),
              LineRead::kLine);
    EXPECT_EQ(line, expected);
  }
  line = "untouched";
  EXPECT_EQ(ReadLineWithDeadline(pair.fds[0], deadline, carry, &line),
            LineRead::kEof);
  EXPECT_EQ(line, "untouched");
  EXPECT_EQ(carry, "c");  // the unterminated tail is not lost
}

TEST(Socket, ReadLineHonoursItsDeadlineOnASilentPeer) {
  SocketPair pair;
  EXPECT_TRUE(SendAll(pair.fds[1], "partial"));
  std::string carry;
  std::string line;
  const auto start = SocketClock::now();
  EXPECT_EQ(ReadLineWithDeadline(pair.fds[0],
                                 In(std::chrono::milliseconds(100)), carry,
                                 &line),
            LineRead::kTimeout);
  const auto waited = SocketClock::now() - start;
  EXPECT_GE(waited, std::chrono::milliseconds(100));
  EXPECT_LT(waited, std::chrono::seconds(2));
  EXPECT_EQ(carry, "partial");
}

TEST(Socket, ReadLineReadsFromAPipe) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  const std::string text = "tracing to t.log\nlistening on 127.0.0.1:4242\n";
  ASSERT_EQ(::write(fds[1], text.data(), text.size()),
            static_cast<ssize_t>(text.size()));
  ::close(fds[1]);
  std::string carry;
  std::string line;
  const auto deadline = In(std::chrono::seconds(5));
  EXPECT_EQ(ReadLineWithDeadline(fds[0], deadline, carry, &line),
            LineRead::kLine);
  EXPECT_EQ(line, "tracing to t.log");
  EXPECT_EQ(ReadLineWithDeadline(fds[0], deadline, carry, &line),
            LineRead::kLine);
  EXPECT_EQ(line, "listening on 127.0.0.1:4242");
  EXPECT_EQ(ReadLineWithDeadline(fds[0], deadline, carry, &line),
            LineRead::kEof);
  ::close(fds[0]);
}

TEST(Socket, ListenTcpReportsTheBoundEphemeralPort) {
  const StatusOr<TcpListener> listener = ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  EXPECT_GT(listener->port, 0);
  const StatusOr<int> client = DialTcp("127.0.0.1", listener->port,
                                       In(std::chrono::seconds(5)));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const int served = ::accept(listener->fd, nullptr, nullptr);
  ASSERT_GE(served, 0);
  EXPECT_TRUE(SendAll(*client, "ping\n"));
  std::string carry;
  std::string line;
  EXPECT_EQ(ReadLineWithDeadline(served, In(std::chrono::seconds(5)), carry,
                                 &line),
            LineRead::kLine);
  EXPECT_EQ(line, "ping");
  ::close(served);
  ::close(*client);
  ::close(listener->fd);
}

TEST(Socket, NonNumericHostsAreInvalidArguments) {
  const StatusOr<TcpListener> listener = ListenTcp("localhost", 0);
  ASSERT_FALSE(listener.ok());
  EXPECT_EQ(listener.status().code(), StatusCode::kInvalidArgument);
  const StatusOr<int> dialed =
      DialTcp("localhost", 80, In(std::chrono::seconds(1)));
  ASSERT_FALSE(dialed.ok());
  EXPECT_EQ(dialed.status().code(), StatusCode::kInvalidArgument);
}

TEST(Socket, ListenTcpOnATakenPortFails) {
  const StatusOr<TcpListener> first = ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(first.ok());
  const StatusOr<TcpListener> second = ListenTcp("127.0.0.1", first->port);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kInternal);
  ::close(first->fd);
}

TEST(Socket, DialTcpToAClosedPortFailsWithinItsDeadline) {
  const StatusOr<TcpListener> listener = ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  const int port = listener->port;
  ::close(listener->fd);  // nothing listens there any more
  const auto start = SocketClock::now();
  const StatusOr<int> dialed =
      DialTcp("127.0.0.1", port, In(std::chrono::seconds(2)));
  ASSERT_FALSE(dialed.ok());
  // Refused, not timed out: callers racing a server's start retry on it.
  EXPECT_EQ(dialed.status().code(), StatusCode::kNotFound)
      << dialed.status().ToString();
  EXPECT_LT(SocketClock::now() - start, std::chrono::seconds(2));
}

TEST(Socket, ParseHostPortAcceptsOnlyNumericHostAndPort) {
  std::string host;
  int port = 0;
  ASSERT_TRUE(ParseHostPort("127.0.0.1:8080", &host, &port).ok());
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 8080);
  for (const char* bad : {"127.0.0.1", ":80", "127.0.0.1:0",
                          "127.0.0.1:65536", "127.0.0.1:8x",
                          "localhost:80"}) {
    SCOPED_TRACE(bad);
    const Status s = ParseHostPort(bad, &host, &port);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace nucleus
