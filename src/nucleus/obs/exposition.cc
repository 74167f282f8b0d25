#include "nucleus/obs/exposition.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "nucleus/util/socket.h"

namespace nucleus {
namespace obs {

MetricsExpositionServer::MetricsExpositionServer(
    std::function<std::string()> render, Options options)
    : render_(std::move(render)), options_(std::move(options)) {
  if (options_.workers < 1) options_.workers = 1;
  if (options_.max_queued < 1) options_.max_queued = 1;
}

MetricsExpositionServer::~MetricsExpositionServer() { Stop(); }

Status MetricsExpositionServer::Start() {
  StatusOr<TcpListener> listener = ListenTcp(options_.host, options_.port);
  if (!listener.ok()) return listener.status();
  listen_fd_ = listener->fd;
  port_ = listener->port;
  if (::pipe(wake_fds_) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal(std::string("metrics wake pipe: ") +
                           std::strerror(errno));
  }
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  thread_ = std::thread([this] { Loop(); });
  return Status::Ok();
}

void MetricsExpositionServer::Stop() {
  if (!thread_.joinable()) return;
  {
    // Store under the queue lock so a worker checking the predicate
    // between its test and its wait cannot miss the notify.
    MutexLock lock(mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  const char byte = 'x';
  (void)!::write(wake_fds_[1], &byte, 1);
  queue_cv_.notify_all();
  thread_.join();
  // Workers drain what was already accepted (each connection is bounded
  // by the recv timeout), then exit on the empty queue.
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  stopping_.store(false, std::memory_order_release);
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);
  wake_fds_[0] = wake_fds_[1] = -1;
}

void MetricsExpositionServer::Loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_fds_[0], POLLIN, 0};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents != 0) return;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // EMFILE/ENFILE and friends: count it and back off briefly (via
      // the wake-pipe poll, so Stop still interrupts) instead of
      // re-polling the still-readable listener in a hot loop.
      accept_errors_.fetch_add(1, std::memory_order_relaxed);
      pollfd wake = {wake_fds_[0], POLLIN, 0};
      (void)::poll(&wake, 1, 10);
      continue;
    }
    bool shed = false;
    {
      MutexLock lock(mutex_);
      if (static_cast<int>(pending_.size()) >= options_.max_queued) {
        shed = true;  // scrapers retry on their next cycle
      } else {
        pending_.push_back(fd);
      }
    }
    if (shed) {
      ::close(fd);
    } else {
      queue_cv_.notify_one();
    }
  }
}

void MetricsExpositionServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      MutexLock lock(mutex_);
      while (pending_.empty() &&
             !stopping_.load(std::memory_order_acquire)) {
        queue_cv_.wait(lock.native());
      }
      if (pending_.empty()) return;  // stopping and nothing left to serve
      fd = pending_.front();
      pending_.pop_front();
    }
    ServeScrape(fd);
  }
}

void MetricsExpositionServer::ServeScrape(int fd) {
  // Read and discard whatever request line the scraper sent; the
  // response is the same for every path. A short timeout bounds how
  // long a silent client can pin this worker.
  timeval tv{0, 200 * 1000};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  char buf[1024];
  (void)!::recv(fd, buf, sizeof buf, 0);
  const std::string body = render_();
  std::string response =
      "HTTP/1.0 200 OK\r\n"
      "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
      "Content-Length: " +
      std::to_string(body.size()) +
      "\r\n"
      "Connection: close\r\n\r\n" +
      body;
  SendAll(fd, response);  // false = the scraper went away; nothing to do
  ::shutdown(fd, SHUT_WR);
  ::close(fd);
}

}  // namespace obs
}  // namespace nucleus
