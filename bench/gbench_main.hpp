// Shared main() for the google-benchmark micro benches.
//
// Each bench records its results to a BENCH_*.json baseline in the working
// directory (google-benchmark's JSON schema) so successive PRs can diff
// matcher/engine throughput against the checked-in numbers. An explicit
// --benchmark_out on the command line overrides the default dump.
//
// The JSON context records this project's build type and the host's CPU
// count: google-benchmark's own `library_build_type` describes only the
// installed benchmark library.
#pragma once

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#ifndef EVPS_BUILD_TYPE
#define EVPS_BUILD_TYPE "unknown"
#endif

namespace evps_bench {

inline int run(int argc, char** argv, const char* default_out) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = std::string("--benchmark_out=") + default_out;
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::AddCustomContext("evps_build_type", EVPS_BUILD_TYPE);
  benchmark::AddCustomContext("evps_cpus", std::to_string(std::thread::hardware_concurrency()));
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace evps_bench
