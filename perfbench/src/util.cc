#include "util.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>

namespace perfbench {
namespace {

/// Children still running, so that Die can stop them.
std::vector<pid_t>& LiveChildren() {
  static std::vector<pid_t> children;
  return children;
}

void KillChildren() {
  for (pid_t pid : LiveChildren()) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }
}

void OnSignal(int) {
  KillChildren();
  _exit(1);
}

}  // namespace

void Die(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n";
  KillChildren();
  std::exit(1);
}

void InstallSignalHandlers() {
  ::signal(SIGINT, OnSignal);
  ::signal(SIGTERM, OnSignal);
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (rank - lo);
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

std::pair<std::string, double> TailPercentile(
    const std::vector<double>& samples) {
  static const std::pair<const char*, double> kLevels[] = {
      {"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}, {"p75", 0.75},
      {"p50", 0.5}};
  const double n = static_cast<double>(samples.size());
  for (const auto& [label, p] : kLevels) {
    if (n * (1.0 - p) >= 10.0) return {label, Percentile(samples, p)};
  }
  return {"-", 0.0};
}

void Report::AddSamples(const std::string& name, const std::string& unit,
                        const std::vector<double>& samples) {
  Row row;
  row.name = name;
  row.unit = unit;
  row.value = Median(samples);
  row.count = static_cast<std::int64_t>(samples.size());
  std::tie(row.tail_label, row.tail) = TailPercentile(samples);
  rows_.push_back(std::move(row));
}

void Report::AddSamples(const std::string& name, const std::string& unit,
                        const Samples& samples, bool in_json) {
  AddSamples(name, unit, samples.Kept());
  rows_.back().taken = static_cast<std::int64_t>(samples.size());
  rows_.back().in_json = in_json;
}

void Report::AddValue(const std::string& name, const std::string& unit,
                      double value, std::int64_t count) {
  Row row;
  row.name = name;
  row.unit = unit;
  row.value = value;
  row.count = count;
  row.tail_label = "-";
  rows_.push_back(std::move(row));
}

void Report::AddInfo(const std::string& name, const std::string& unit,
                     const std::vector<double>& samples) {
  AddSamples(name, unit, samples);
  rows_.back().in_json = false;
}

void Report::CountOps(std::int64_t attempted, std::int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Fail(const std::string& what) {
  errors_.push_back(what);
  std::cerr << "perfbench: FAILED: " << what << "\n";
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::NoteSteal(const StealMeter& meter) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "host steal during the run: %.1f%% of CPU time; timings are "
                "medians of the samples taken at <= 1%% steal (kept/taken)",
                100.0 * meter.Share());
  Note(line);
}

StealMeter::StealMeter() { std::tie(steal_, total_) = StealTicks(); }

double StealMeter::Share() const {
  const auto [steal, total] = StealTicks();
  return total > total_ ? static_cast<double>(steal - steal_) /
                              static_cast<double>(total - total_)
                        : 0.0;
}

void Samples::Add(double value, double steal_share) {
  values_.emplace_back(steal_share, value);
}

void Samples::Measure(const std::function<double()>& timed) {
  const StealMeter meter;
  const double value = timed();
  Add(value, meter.Share());
}

std::vector<double> Samples::Kept() const {
  constexpr double kQuietSteal = 0.01;
  const std::size_t minimum =
      std::min(values_.size(), std::max<std::size_t>(3, (values_.size() + 3) / 4));
  std::vector<std::pair<double, double>> sorted = values_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<double> kept;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i >= minimum && sorted[i].first > kQuietSteal) break;
    kept.push_back(sorted[i].second);
  }
  return kept;
}

namespace {

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void Report::Print(const std::string& header) const {
  std::printf("%s\n", header.c_str());
  std::printf("  %-36s %-8s %8s %14s %14s\n", "metric", "unit", "samples",
              "median", "tail");
  for (const Row& row : rows_) {
    char tail[64] = "-";
    if (row.tail_label != "-") {
      std::snprintf(tail, sizeof(tail), "%s %.6g", row.tail_label.c_str(),
                    row.tail);
    }
    const std::string count =
        row.taken > row.count ? std::to_string(row.count) + "/" +
                                    std::to_string(row.taken)
                              : std::to_string(row.count);
    std::printf("  %-36s %-8s %8s %14.6g %14s%s\n", row.name.c_str(),
                row.unit.c_str(), count.c_str(), row.value, tail,
                row.in_json ? "" : "  (table only)");
  }
  const double fail_ratio =
      attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 0.0;
  std::printf("  %-36s %-8s %8lld %14.6g %14s\n", "fail_ratio", "ratio",
              static_cast<long long>(attempted_), fail_ratio, "-");
  for (const std::string& note : notes_) std::printf("  note: %s\n", note.c_str());
  for (const std::string& error : errors_) {
    std::printf("  FAILED: %s\n", error.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::int64_t>(attempted_, 1));
  json += ", \"failed\": " + std::to_string(failed_ + static_cast<std::int64_t>(errors_.size()));
  json += ", \"metrics\": {";
  bool first = true;
  for (const Row& row : rows_) {
    if (!row.in_json) continue;
    if (!first) json += ", ";
    first = false;
    json += "\"" + row.name + "\": {\"value\": " + FormatNumber(row.value) +
            ", \"unit\": \"" + row.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Tracer::Begin(const std::string& name, int parent) {
  if (!enabled_) return -1;
  spans_.push_back({name, parent, NowNs(), 0});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
}

double Tracer::Time(const std::string& name, int parent,
                    const std::function<void()>& fn) {
  const int id = Begin(name, parent);
  const Clock::time_point start = Clock::now();
  fn();
  const double seconds = SecondsSince(start);
  End(id);
  return seconds;
}

void Tracer::Record(const std::string& name, int parent,
                    std::int64_t start_ns, std::int64_t end_ns) {
  if (enabled_) spans_.push_back({name, parent, start_ns, end_ns});
}

void Tracer::Write(const std::string& path) const {
  if (!enabled_) return;
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\": " << i << ", \"parent\": " << span.parent
        << ", \"name\": \"" << span.name << "\", \"start_ns\": "
        << span.start_ns << ", \"end_ns\": " << span.end_ns << "}\n";
  }
}

CanonicalHierarchy Canonicalize(const nucleus::NucleusHierarchy& h) {
  const std::int64_t num_nodes = h.NumNodes();
  constexpr std::int64_t kNone = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> min_member(static_cast<std::size_t>(num_nodes),
                                       kNone);
  for (std::int64_t i = 0; i < num_nodes; ++i) {
    const auto& members = h.node(static_cast<std::int32_t>(i)).members;
    if (!members.empty()) min_member[i] = members.front();
  }
  // FromSkeleton/FromParts number every parent below its children.
  for (std::int64_t i = num_nodes - 1; i > 0; --i) {
    const std::int32_t parent = h.node(static_cast<std::int32_t>(i)).parent;
    if (parent >= 0) {
      min_member[parent] = std::min(min_member[parent], min_member[i]);
    }
  }
  CanonicalHierarchy canon;
  const auto key = [&](std::int32_t node) {
    return std::pair<std::int64_t, std::int64_t>{h.node(node).lambda,
                                                 min_member[node]};
  };
  canon.clique_node.reserve(static_cast<std::size_t>(h.NumCliques()));
  for (std::int64_t u = 0; u < h.NumCliques(); ++u) {
    canon.clique_node.push_back(
        key(h.NodeOfClique(static_cast<nucleus::CliqueId>(u))));
  }
  canon.nodes.reserve(static_cast<std::size_t>(num_nodes));
  for (std::int64_t i = 0; i < num_nodes; ++i) {
    const auto self = key(static_cast<std::int32_t>(i));
    const std::int32_t parent = h.node(static_cast<std::int32_t>(i)).parent;
    const auto up = parent >= 0 ? key(parent)
                                : std::pair<std::int64_t, std::int64_t>{-2, -2};
    canon.nodes.push_back({self.first, self.second, up.first, up.second});
  }
  std::sort(canon.nodes.begin(), canon.nodes.end());
  return canon;
}

void ServerProcess::Start(const std::vector<std::string>& argv,
                          const std::string& log) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) Die("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    const int log_fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log_fd >= 0) ::dup2(log_fd, STDERR_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    std::vector<char*> args;
    for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
    args.push_back(nullptr);
    ::execv(args[0], args.data());
    _exit(127);
  }
  ::close(pipe_fds[1]);
  pid_ = pid;
  LiveChildren().push_back(pid);
  std::string text;
  const Clock::time_point start = Clock::now();
  while (port_ < 0) {
    pollfd pfd{pipe_fds[0], POLLIN, 0};
    const double left_ms = 60000.0 - SecondsSince(start) * 1000.0;
    if (left_ms <= 0 || ::poll(&pfd, 1, static_cast<int>(left_ms)) <= 0) break;
    char buf[256];
    const ssize_t n = ::read(pipe_fds[0], buf, sizeof(buf));
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
    const std::size_t at = text.find("listening on ");
    const std::size_t eol = at == std::string::npos ? at : text.find('\n', at);
    if (eol != std::string::npos) {
      const std::size_t colon = text.rfind(':', eol);
      port_ = std::atoi(text.c_str() + colon + 1);
    }
  }
  ::close(pipe_fds[0]);
  if (port_ <= 0) {
    Stop();
    Die("server did not come up: " + argv.front() + " " + argv[1] +
        " (log: " + log + ")");
  }
}

namespace {

double PeakRssMbOf(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double ServerProcess::PeakRssMb() const {
  return pid_ < 0 ? 0.0 : PeakRssMbOf(std::to_string(pid_));
}

void ServerProcess::Stop() {
  if (pid_ < 0) return;
  std::erase(LiveChildren(), pid_);
  ::kill(pid_, SIGTERM);
  int status = 0;
  // A drained server exits promptly; escalate if it does not.
  for (int i = 0; i < 500; ++i) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return;
    }
    ::usleep(10000);
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

void ResetPeakRss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double SelfPeakRssMb() { return PeakRssMbOf("self"); }

double ThreadCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

std::pair<std::int64_t, std::int64_t> StealTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  std::int64_t total = 0;
  std::int64_t steal = 0;
  for (int field = 0; field < 8; ++field) {
    std::int64_t ticks = 0;
    if (!(stat >> ticks)) break;
    total += ticks;
    if (field == 7) steal = ticks;
  }
  return {steal, total};
}

int Dial(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Die("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Die("connect to port " + std::to_string(port) + " failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::string RoundTrip(int port, const std::string& line) {
  const int fd = Dial(port);
  const std::string request = line + "\n";
  if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    Die("send failed");
  }
  std::string response;
  char buf[1 << 16];
  while (response.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response.substr(0, response.find('\n'));
}

std::int64_t SumCounter(const std::string& metrics_json,
                        const std::string& family) {
  const std::size_t at = metrics_json.find("\"" + family + "\": {");
  if (at == std::string::npos) return 0;
  const std::size_t end = metrics_json.find('}', at);
  std::int64_t sum = 0;
  for (std::size_t pos = metrics_json.find("\": ", at + family.size() + 4);
       pos < end; pos = metrics_json.find("\": ", pos + 3)) {
    sum += std::atoll(metrics_json.c_str() + pos + 3);
  }
  return sum;
}

std::int64_t JsonInt(const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\": ");
  if (at == std::string::npos) return -1;
  return std::atoll(json.c_str() + at + key.size() + 4);
}

std::int64_t FileSize(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::int64_t>(size);
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) Die("cannot write " + path);
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
