// Shared pieces of the perfbench program: sample statistics, the result
// report, in-memory span tracing, hierarchy canonical forms, child
// processes and small file/socket helpers.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <sys/types.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "nucleus/core/hierarchy.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Exits the benchmark with a message; used only for set-up faults (a
/// missing binary, a server that never comes up), never for measured
/// outcomes, which are counted as failures instead.
[[noreturn]] void Die(const std::string& message);
/// Stops the benchmark on SIGINT/SIGTERM, killing the servers it started.
void InstallSignalHandlers();

double Median(std::vector<double> samples);
double Percentile(std::vector<double> samples, double p);

/// The highest of p50/p75/p90/p99/p99.9 that still has at least ten
/// samples beyond it, as {label, value}; {"-", 0} below twenty samples.
std::pair<std::string, double> TailPercentile(
    const std::vector<double>& samples);

/// Share of the guest's CPU time the hypervisor stole (/proc/stat) since
/// construction.
class StealMeter {
 public:
  StealMeter();
  double Share() const;

 private:
  std::int64_t steal_ = 0;
  std::int64_t total_ = 0;
};

/// Samples of one timing, each with the steal share of its interval. On a
/// shared host steal comes in bursts that slow everything they touch (a
/// serving window at 20% steal answers a third of the lines one at 0%
/// does), so a timing is summarized over the samples taken with at most
/// 1% steal — or, when fewer than a quarter of them (and 3) qualify, over
/// the least-stolen quarter.
class Samples {
 public:
  void Add(double value, double steal_share);
  /// Runs `timed`, which returns the seconds it measured, and adds them.
  void Measure(const std::function<double()>& timed);
  std::vector<double> Kept() const;
  std::size_t size() const { return values_.size(); }

 private:
  std::vector<std::pair<double, double>> values_;  // {steal share, value}
};

/// Everything one run reports: end-to-end metrics (trace 0) or per-layer
/// metrics (trace 1), operation counts, and a human-readable table.
class Report {
 public:
  /// A metric summarized from samples: value = median.
  void AddSamples(const std::string& name, const std::string& unit,
                  const std::vector<double>& samples);
  /// A timing: the median of the samples Samples::Kept() keeps.
  void AddSamples(const std::string& name, const std::string& unit,
                  const Samples& samples, bool in_json = true);
  /// A metric that is a single measured or counted value (from `count`
  /// samples, when it is a statistic of them).
  void AddValue(const std::string& name, const std::string& unit,
                double value, std::int64_t count = 1);
  /// A table-only row: shown with its samples, left out of the JSON.
  void AddInfo(const std::string& name, const std::string& unit,
               const std::vector<double>& samples);
  /// Counts one operation; a failed one also makes the run incorrect.
  void CountOps(std::int64_t attempted, std::int64_t failed);
  void Fail(const std::string& what);
  void Note(const std::string& line);
  /// Notes the host's steal share over `meter`'s lifetime.
  void NoteSteal(const StealMeter& meter);

  /// Prints the table and, last, the one-line JSON result object.
  void Print(const std::string& header) const;
  bool correct() const { return failed_ == 0 && errors_.empty(); }

 private:
  struct Row {
    std::string name;
    std::string unit;
    double value = 0.0;
    std::int64_t count = 1;
    std::int64_t taken = 0;  // samples taken, when fewer were kept
    std::string tail_label;
    double tail = 0.0;
    bool in_json = true;
  };
  std::vector<Row> rows_;
  std::vector<std::string> notes_;
  std::vector<std::string> errors_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// Spans recorded around calls into the system's layers: name, start,
/// end and parent, kept in memory and written out as JSON lines at exit.
/// Disabled tracers record nothing (Begin returns -1).
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  int Begin(const std::string& name, int parent = -1);
  void End(int id);
  /// Times fn() as one span; returns its wall seconds either way.
  double Time(const std::string& name, int parent,
              const std::function<void()>& fn);
  /// Adds an already-timed span (steady-clock nanoseconds).
  void Record(const std::string& name, int parent, std::int64_t start_ns,
              std::int64_t end_ns);
  void Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// Canonical form of a hierarchy, independent of node numbering: every
/// node is named by (lambda, smallest clique id in its subtree), which
/// is unique because lambdas strictly increase towards the leaves.
struct CanonicalHierarchy {
  std::vector<std::pair<std::int64_t, std::int64_t>> clique_node;
  /// Per node, sorted: its own (lambda, min) and its parent's.
  std::vector<std::array<std::int64_t, 4>> nodes;
  bool operator==(const CanonicalHierarchy&) const = default;
};
CanonicalHierarchy Canonicalize(const nucleus::NucleusHierarchy& h);

/// A child process (nucleus_cli serve/route) that announced
/// "listening on <host>:<port>" on stdout. Stop() drains it with SIGTERM
/// and waits; the destructor stops it too.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  /// Spawns `argv` and waits up to 60 s for the announcement.
  void Start(const std::vector<std::string>& argv, const std::string& log);
  int port() const { return port_; }
  /// Peak resident set (VmHWM) in MiB, read from /proc while running.
  double PeakRssMb() const;
  void Stop();

 private:
  pid_t pid_ = -1;
  int port_ = -1;
};

/// Returns freed heap to the system and resets this process's peak RSS
/// (VmHWM), so the next SelfPeakRssMb() covers only what runs in between.
void ResetPeakRss();
/// Peak RSS (VmHWM) of this process in MiB.
double SelfPeakRssMb();
/// CPU seconds consumed by the calling thread.
double ThreadCpuSeconds();
/// Guest-wide {steal, total} CPU ticks from /proc/stat.
std::pair<std::int64_t, std::int64_t> StealTicks();

int Dial(int port);
/// Sends `line` and reads exactly one response line on a fresh
/// connection; used for admin verbs (stats, metrics) and readiness.
std::string RoundTrip(int port, const std::string& line);
/// Sum of every counter of `family` in a `metrics` verb response.
std::int64_t SumCounter(const std::string& metrics_json,
                        const std::string& family);
/// Integer value of the first `"key": n` in `json`, or -1.
std::int64_t JsonInt(const std::string& json, const std::string& key);

std::int64_t FileSize(const std::string& path);
void WriteFile(const std::string& path, const std::string& text);
void RemoveTree(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
