#pragma once

// Shared plumbing for the per-figure benchmark binaries: each binary runs
// its google-benchmark cases, then prints the paper table/figure data it
// regenerates.  The custom main keeps the figure output at the end of the
// log, after the timing table.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <thread>

#define HACC_BENCH_MAIN(print_figure)                                \
  int main(int argc, char** argv) {                                  \
    benchmark::Initialize(&argc, argv);                              \
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    benchmark::RunSpecifiedBenchmarks();                             \
    benchmark::Shutdown();                                           \
    print_figure();                                                  \
    return 0;                                                        \
  }

namespace hacc::bench {

inline void print_rule(char c = '-', int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar(c);
  std::putchar('\n');
}

inline void print_header(const char* title) {
  print_rule('=');
  std::printf("%s\n", title);
  print_rule('=');
}

// The provenance lines of a BENCH_*.json record, each ending in a comma: a
// threads sweep only means multi-core scaling when the host has the cores,
// and timings only compare within one build type.
inline void write_provenance(std::FILE* f) {
  std::fprintf(f, "  \"host_cores\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(f, "  \"build_type\": \"%s\",\n", HACC_BUILD_TYPE);
}

}  // namespace hacc::bench
