#include "loop.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/profiling.h"
#include "trace/trace.h"
#include "txn/retry_policy.h"

namespace perfbench {

using ermia::FastRandom;
using ermia::Status;

namespace {

using Clock = std::chrono::steady_clock;

// A request that keeps aborting this often counts as failed.
constexpr uint32_t kMaxAttempts = 64;

constexpr double kSliceSeconds = 0.5;

// TPC-C NewOrder rolls 1% of its requests back on purpose (spec 2.4.1.4) and
// reports it as Aborted with this word in the message; retrying it with the
// same inputs would roll back again.
bool IsRollback(const Status& s) {
  return s.IsAborted() && s.message().find("rollback") != std::string::npos;
}

// Written by one worker only; aligned so neighbours share no cache line.
struct alignas(64) WorkerState {
  std::vector<TypeResult> types;
  std::vector<uint64_t> interval_commits;
  uint64_t requests = 0;
  uint64_t failed_requests = 0;
  std::string first_failure;
  uint64_t wasted_cycles = 0;
  uint64_t traced_commits = 0;
  uint64_t untraced_commits = 0;
  uint64_t traced_busy_cycles = 0;
};

void SetTraced(std::atomic<bool>& traced, bool on) {
  ermia::prof::Enable(on);
  ermia::trace::Configure(
      on ? ermia::TraceMode::kSampled : ermia::TraceMode::kOff, 64);
  traced.store(on, std::memory_order_relaxed);
}

}  // namespace

uint64_t LoopResult::commits() const {
  uint64_t n = 0;
  for (const auto& t : types) n += t.commits;
  return n;
}

uint64_t LoopResult::attempts() const {
  uint64_t n = 0;
  for (const auto& t : types) n += t.attempts;
  return n;
}

uint64_t LoopResult::failed_attempts() const {
  uint64_t n = 0;
  for (const auto& t : types) n += t.failed_attempts;
  return n;
}

double Percentile(std::vector<uint32_t>& samples, double p) {
  if (samples.empty()) return 0;
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  std::nth_element(samples.begin(), samples.begin() + lo, samples.end());
  const double low = samples[lo];
  if (lo + 1 >= samples.size()) return low;
  const double high =
      *std::min_element(samples.begin() + lo + 1, samples.end());
  return low + (high - low) * (rank - static_cast<double>(lo));
}

LoopResult RunLoop(ermia::Database* db, ermia::bench::Workload* workload,
                   const LoopOptions& options) {
  const size_t ntypes = workload->NumTxnTypes();
  LoopResult result;
  const size_t nintervals =
      static_cast<size_t>(std::ceil(options.seconds / result.interval_s));
  const double cycles_per_ns = ermia::prof::CyclesPerNs();
  const uint64_t interval_cycles =
      static_cast<uint64_t>(result.interval_s * 1e9 * cycles_per_ns);

  std::vector<WorkerState> states(options.threads);
  for (auto& st : states) {
    st.types.resize(ntypes);
    st.interval_commits.assign(nintervals, 0);
  }

  // OCC read-only transactions read a periodically refreshed snapshot; make
  // it cover everything the loader committed.
  db->RefreshOccSnapshot();

  std::atomic<bool> traced{false};
  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
  std::atomic<uint32_t> ready{0};
  std::atomic<uint64_t> start_tsc{0};

  std::vector<std::thread> workers;
  workers.reserve(options.threads);
  for (uint32_t w = 0; w < options.threads; ++w) {
    workers.emplace_back([&, w] {
      WorkerState& st = states[w];
      FastRandom rng(options.seed * 0x100000001b3ull + w);
      ermia::RetryOptions retry_opts;
      retry_opts.seed = options.seed ^ (0x9e3779b97f4a7c15ull * (w + 1));
      ermia::RetryPolicy retry(retry_opts);
      ready.fetch_add(1);
      while (!start.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      const uint64_t t_start = start_tsc.load(std::memory_order_relaxed);
      while (!stop.load(std::memory_order_acquire)) {
        const size_t type = workload->PickTxnType(rng);
        TypeResult& tr = st.types[type];
        const FastRandom inputs = rng;
        const uint64_t request_begin = ermia::prof::Cycles();
        for (uint32_t attempt = 1;; ++attempt) {
          const bool in_trace = traced.load(std::memory_order_relaxed);
          const uint64_t t0 = ermia::prof::Cycles();
          Status s = workload->RunTxn(db, options.scheme, type, w,
                                      options.threads, rng);
          const uint64_t t1 = ermia::prof::Cycles();
          ++tr.attempts;
          if (in_trace) st.traced_busy_cycles += t1 - t0;
          if (s.ok()) {
            ++tr.commits;
            ++st.requests;
            const double ns =
                static_cast<double>(t1 - request_begin) / cycles_per_ns;
            tr.latency_ns.push_back(static_cast<uint32_t>(
                std::min(ns, static_cast<double>(UINT32_MAX))));
            const size_t slot = std::min<size_t>(
                (t1 - t_start) / interval_cycles, nintervals - 1);
            ++st.interval_commits[slot];
            ++(in_trace ? st.traced_commits : st.untraced_commits);
            break;
          }
          ++tr.failed_attempts;
          st.wasted_cycles += t1 - t0;
          if (IsRollback(s)) {
            ++st.requests;
            break;
          }
          if (!ermia::RetryPolicy::Retryable(s) || attempt >= kMaxAttempts) {
            ++st.requests;
            ++st.failed_requests;
            if (st.first_failure.empty()) {
              st.first_failure = std::string(workload->TxnTypeName(type)) +
                                 ": " + s.ToString();
            }
            break;
          }
          // A request cut short by the end of the run is neither done nor
          // failed.
          if (stop.load(std::memory_order_acquire)) break;
          retry.SleepBackoff(attempt, s);
          rng = inputs;
        }
      }
      ermia::ThreadRegistry::Deregister();
    });
  }

  while (ready.load() < options.threads) std::this_thread::yield();
  const auto wall_begin = Clock::now();
  start_tsc.store(ermia::prof::Cycles(), std::memory_order_relaxed);
  start.store(true, std::memory_order_release);
  if (options.trace) {
    // Slices run untraced, traced, traced, untraced, and so on: the pattern
    // is symmetric in time, so a steady decay of the rate as the database
    // ages weighs on both halves alike.
    size_t slice = 0;
    auto slice_begin = wall_begin;
    const auto end = wall_begin + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(
                                          options.seconds));
    while (slice_begin < end) {
      const bool on = slice % 4 == 1 || slice % 4 == 2;
      SetTraced(traced, on);
      const auto slice_end = std::min(
          end, slice_begin + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     kSliceSeconds)));
      std::this_thread::sleep_until(slice_end);
      const double s =
          std::chrono::duration<double>(Clock::now() - slice_begin).count();
      (on ? result.traced_s : result.untraced_s) += s;
      slice_begin = Clock::now();
      ++slice;
    }
    SetTraced(traced, false);
  } else {
    std::this_thread::sleep_for(std::chrono::duration<double>(options.seconds));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();
  result.elapsed_s =
      std::chrono::duration<double>(Clock::now() - wall_begin).count();

  result.types.resize(ntypes);
  result.interval_commits.assign(nintervals, 0);
  for (size_t t = 0; t < ntypes; ++t) {
    result.types[t].name = workload->TxnTypeName(t);
  }
  for (auto& st : states) {
    for (size_t t = 0; t < ntypes; ++t) {
      TypeResult& dst = result.types[t];
      TypeResult& src = st.types[t];
      dst.commits += src.commits;
      dst.attempts += src.attempts;
      dst.failed_attempts += src.failed_attempts;
      dst.latency_ns.insert(dst.latency_ns.end(), src.latency_ns.begin(),
                            src.latency_ns.end());
    }
    for (size_t i = 0; i < nintervals; ++i) {
      result.interval_commits[i] += st.interval_commits[i];
    }
    result.requests += st.requests;
    result.failed_requests += st.failed_requests;
    if (result.first_failure.empty()) result.first_failure = st.first_failure;
    result.wasted_cycles += st.wasted_cycles;
    result.traced_commits += st.traced_commits;
    result.untraced_commits += st.untraced_commits;
    result.traced_busy_cycles += st.traced_busy_cycles;
  }
  return result;
}

}  // namespace perfbench
