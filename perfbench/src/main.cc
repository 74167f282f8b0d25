// perfbench: the repository's benchmark program. One workload per run:
//
//   perfbench --workload <build-core|build-nucleus34|serve-routed|serve-update>
//             --seed N --seconds S --trace 0|1 --cli <nucleus_cli> --workdir D
//
// Prints a table of metrics (name, unit, sample count, median, tail) and,
// as the last stdout line, one JSON object {"correct", "attempted",
// "failed", "metrics"}: the end-to-end metrics with --trace 0, the
// per-layer ledger with --trace 1. Exits non-zero when any output was
// wrong. perfbench/README.md describes the workloads and metrics.
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>

#include "workload.h"

namespace {

[[noreturn]] void Usage() {
  std::cerr << "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --cli PATH --workdir DIR\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--cli") {
      args.cli = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      Usage();
    }
  }
  if (args.cli.empty() || args.workdir.empty() || args.seconds <= 0) Usage();
  // Manifests name snapshot files by absolute path.
  args.workdir = std::filesystem::absolute(args.workdir).string();
  args.run_dir = args.workdir + "/" + args.workload + "-" +
                 std::to_string(args.seed) + "-" + std::to_string(::getpid());
  std::unique_ptr<perfbench::Workload> workload;
  if (args.workload == "build-core" || args.workload == "build-nucleus34") {
    workload = perfbench::MakeBuildWorkload(args);
  } else if (args.workload == "serve-routed" ||
             args.workload == "serve-update") {
    workload = perfbench::MakeServeWorkload(args);
  } else {
    Usage();
  }
  perfbench::InstallSignalHandlers();
  return perfbench::RunWorkload(args, *workload);
}
