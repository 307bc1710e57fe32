// Shared main() for the experiment benchmarks.
//
// COOP_BENCH_MAIN replaces BENCHMARK_MAIN so every bench binary (a) runs
// with one process-wide Obs installed as the ambient default — the many
// short-lived Platforms a benchmark constructs all aggregate into it —
// (b) records the same provenance knobs (tag, trace capacity, the COOP_*
// observability environment, argv), and (c) dumps that Obs on exit as
// BENCH_<tag>.json (run metadata, critical-path latency breakdown,
// metrics snapshot) plus BENCH_<tag>.trace.json (Chrome trace_event; open
// in about:tracing or Perfetto) in the working directory.
//
// A bench that needs more passes BenchHooks after the tag:
//
//   COOP_BENCH_MAIN("r2_overload", {.setup = add_slo_rules,
//                                   .verdict = soak_verdict})
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/obs.hpp"

namespace coop::bench {

struct BenchHooks {
  /// Consumes bench-specific arguments from argv before it is recorded
  /// and handed to Google Benchmark; returns the artifact tag to use.
  const char* (*argv_filter)(int& argc, char** argv) = nullptr;
  /// Runs once the knobs are recorded, before any benchmark: SLO rules
  /// and other ambient-Obs configuration.
  void (*setup)(obs::Obs& obs) = nullptr;
  /// Runs after the benchmarks, with the timeseries tail sealed and
  /// before the artifacts are written (so it may add knobs); returns
  /// the process exit code.
  int (*verdict)(obs::Obs& obs) = nullptr;
};

inline int bench_main(int argc, char** argv, const char* tag,
                      const BenchHooks& hooks = {}) {
  if (hooks.argv_filter != nullptr) tag = hooks.argv_filter(argc, argv);
  obs::Obs obs;
  obs::ScopedDefaultObs ambient(&obs);
  obs.meta.knobs["tag"] = tag;
  obs.meta.knobs["trace_cap"] = std::to_string(obs.tracer.capacity());
  for (const char* env : {"COOP_TRACE_CAP", "COOP_TRACE", "COOP_TRACE_SAMPLE",
                          "COOP_TRACE_SAMPLE_SEED", "COOP_TS_WINDOW_US"}) {
    if (const char* value = std::getenv(env)) obs.meta.knobs[env] = value;
  }
  if (obs::Profiler::env_enabled()) obs.meta.knobs["COOP_PROFILE"] = "1";
  std::string args;
  for (int i = 1; i < argc; ++i) {
    if (i > 1) args += ' ';
    args += argv[i];
  }
  if (!args.empty()) obs.meta.knobs["argv"] = args;
  if (hooks.setup != nullptr) hooks.setup(obs);

  const auto wall_start = std::chrono::steady_clock::now();
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  obs.meta.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - wall_start)
                         .count();
  obs.series.finish();  // seal the tail window: verdicts see every SLO window
  const int rc = hooks.verdict != nullptr ? hooks.verdict(obs) : 0;
  if (!obs::write_bench_artifacts(obs, tag))
    std::fprintf(stderr, "warning: failed to write BENCH_%s.*\n", tag);
  return rc;
}

}  // namespace coop::bench

#define COOP_BENCH_MAIN(exp_tag, ...)                                   \
  int main(int argc, char** argv) {                                     \
    return ::coop::bench::bench_main(argc, argv,                        \
                                     exp_tag __VA_OPT__(, ) __VA_ARGS__); \
  }
