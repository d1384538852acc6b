// perfbench: one workload of the repository benchmark per invocation.
//
//   perfbench --workload archive-stock|stream-dirty|shard-fanout --seed N
//             --seconds S --trace 0|1 [--tiny] [--out-dir DIR]
//             [--git-sha SHA]
//
// Prints a context block, every metric with its unit, the problems found
// by the correctness checks, and as its last line the result object
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. Exits 1 when a correctness
// check failed, 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "core/kernels.h"
#include "harness.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace affinity::perfbench;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload archive-stock|stream-dirty|"
               "shard-fanout --seed N --seconds S --trace 0|1 [--tiny] [--out-dir DIR] "
               "[--git-sha SHA]\n",
               why);
  return 2;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  config.threads = AvailableThreads();
  bool seeded = false, timed = false, traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--tiny") {
      config.tiny = true;
      continue;
    }
    if (value == nullptr) return Usage(("missing value for " + arg).c_str());
    ++i;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
      seeded = true;
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value);
      timed = config.seconds > 0;
    } else if (arg == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
      traced = config.trace || std::strcmp(value, "0") == 0;
    } else if (arg == "--out-dir") {
      config.out_dir = value;
    } else if (arg == "--git-sha") {
      config.git_sha = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!seeded || !timed || !traced) return Usage("--seed, --seconds > 0 and --trace are required");
  // A stream workload reads beside its writer, so it needs two CPUs to
  // keep its thread count within nproc.
  if (config.workload != "archive-stock" && config.threads < 2) {
    return Usage("the stream workloads need at least 2 CPUs");
  }

  Report report(config);
  report.Context("workload", config.workload);
  report.Context("seed", static_cast<double>(config.seed));
  report.Context("seconds", config.seconds);
  report.Context("trace", config.trace ? 1.0 : 0.0);
  report.Context("tiny", config.tiny ? 1.0 : 0.0);
  report.Context("cpu", CpuModel());
  report.Context("nproc", static_cast<double>(config.threads));
  report.Context("compiler", std::string("gcc ") + __VERSION__);
  report.Context("build_type", PERFBENCH_BUILD_TYPE);
  report.Context("kernel_backend", affinity::core::kernels::ActiveBackendName());
  report.Context("git_sha", config.git_sha);

  if (config.workload == "archive-stock") {
    RunArchiveStock(config, &report);
  } else if (config.workload == "stream-dirty") {
    RunStreamDirty(config, &report);
  } else if (config.workload == "shard-fanout") {
    RunShardFanout(config, &report);
  } else {
    return Usage(("unknown workload " + config.workload).c_str());
  }
  if (config.trace) SummarizeSpans(config, &report);
  return report.Finish();
}
