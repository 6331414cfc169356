// The benchmark's closed loop. Each worker thread issues one request at a
// time; a request is one transaction of a type drawn from the workload mix.
// An attempt that fails with a concurrency-control abort is retried with the
// same inputs (the worker's random state is rewound), so every request either
// commits, completes as the workload's own rollback, or fails for good.
//
// Unlike bench::RunBench, the loop times aborted attempts as well as
// committed ones (wasted work), records commits per fixed interval (the rate
// at the end of the run, after the database has aged), and can alternate
// traced and untraced slices so the traced run carries its own baseline.
#ifndef ERMIA_PERFBENCH_LOOP_H_
#define ERMIA_PERFBENCH_LOOP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench/driver.h"

namespace perfbench {

struct LoopOptions {
  uint32_t threads = 3;
  double seconds = 10;
  uint64_t seed = 1;
  ermia::CcScheme scheme = ermia::CcScheme::kSi;
  // Alternate untraced and traced slices of 0.5 s. A traced slice turns on
  // the engine's per-layer cycle counters and the sampled flight recorder.
  bool trace = false;
};

struct TypeResult {
  std::string name;
  uint64_t commits = 0;
  uint64_t attempts = 0;
  uint64_t failed_attempts = 0;  // any non-OK attempt, rollbacks included
  std::vector<uint32_t> latency_ns;  // per committed request, retries included
};

struct LoopResult {
  double elapsed_s = 0;
  std::vector<TypeResult> types;
  // Requests issued and requests that could not complete (non-retryable
  // error, or the retry cap). Requests cut short by the end of the run count
  // in neither.
  uint64_t requests = 0;
  uint64_t failed_requests = 0;
  std::string first_failure;
  // Commits per interval of `interval_s`, over the timed run.
  double interval_s = 0.1;
  std::vector<uint64_t> interval_commits;
  // Worker cycles spent in attempts that aborted.
  uint64_t wasted_cycles = 0;
  // Commits, worker cycles and seconds in traced and untraced slices (trace
  // on only).
  uint64_t traced_commits = 0;
  uint64_t untraced_commits = 0;
  uint64_t traced_busy_cycles = 0;
  double traced_s = 0;
  double untraced_s = 0;

  uint64_t commits() const;
  uint64_t attempts() const;
  uint64_t failed_attempts() const;
};

LoopResult RunLoop(ermia::Database* db, ermia::bench::Workload* workload,
                   const LoopOptions& options);

// Exact percentile (p in [0, 100]) of `samples`, which it reorders.
double Percentile(std::vector<uint32_t>& samples, double p);

}  // namespace perfbench

#endif  // ERMIA_PERFBENCH_LOOP_H_
