// Ablation: cost of the always-on observability layers, one section each.
//
//   metrics — the same write-heavy microbenchmark with the sharded counters
//     live and with SetSuppressedForAblation(true), which keeps every
//     instrumentation branch in place but skips the shard writes (the branch
//     itself is part of the measured cost either way). Acceptance: metrics-on
//     throughput within ~2% of suppressed; the per-thread shards make
//     increments plain cache-local stores, so the gap should be noise.
//   trace — TPC-C with the flight recorder off, sampled (1-in-64
//     transactions) and all, flipped via trace::Configure between samples.
//     The always-compiled branches are present in every configuration, so
//     "off" measures the branch cost and the other two add the ring writes.
//     Acceptance: sampled within ~2% of off; "all" is reported for
//     completeness but has no budget (it records every event of every txn).
//
// Each section loads one database that serves every sample — reloading
// between runs would swamp the measured effect with allocator/page-cache
// state differences.
#include <algorithm>
#include <functional>
#include <string>

#include "bench_util.h"
#include "metrics/metrics.h"
#include "trace/trace.h"
#include "workloads/micro/micro_workload.h"
#include "workloads/tpcc/tpcc_workload.h"

using namespace ermia;
using namespace ermia::bench;

namespace {

struct PairedResult {
  double base_tps = 0;  // median over pairs
  double test_tps = 0;
  double overhead_pct = 0;  // 100 * (1 - median(test/base))
  BenchResult base;         // last sample of each side, for the JSON rows
  BenchResult test;
};

// The true per-event cost is far below a shared box's run-to-run noise, so a
// single A/B pair is dominated by warm-up and drift no matter the order.
// Instead: several back-to-back pairs, the within-pair order alternating each
// repetition (AB, BA, AB, ...) so monotone drift cancels, and the reported
// overhead is the median of the per-pair ratios — paired samples sit ~one run
// apart in time, the scale where drift is smallest.
PairedResult PairedMedian(const std::function<BenchResult()>& run_base,
                          const std::function<BenchResult()>& run_test) {
  constexpr int kReps = 5;
  std::vector<double> ratios, base_tps, test_tps;
  PairedResult out;
  for (int rep = 0; rep < kReps; ++rep) {
    if (rep % 2 == 0) {
      out.base = run_base();
      out.test = run_test();
    } else {
      out.test = run_test();
      out.base = run_base();
    }
    if (out.base.tps() > 0) ratios.push_back(out.test.tps() / out.base.tps());
    base_tps.push_back(out.base.tps());
    test_tps.push_back(out.test.tps());
  }
  auto median = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    return v.empty() ? 0.0 : v[v.size() / 2];
  };
  out.base_tps = median(base_tps);
  out.test_tps = median(test_tps);
  out.overhead_pct = ratios.empty() ? 0.0 : 100.0 * (1.0 - median(ratios));
  return out;
}

BenchResult RunSi(Database* db, Workload* workload, uint32_t threads,
                  double seconds) {
  BenchOptions options;
  options.threads = threads;
  options.seconds = seconds;
  options.scheme = CcScheme::kSi;
  return RunBench(db, workload, options);
}

void MetricsSection(JsonReporter& json, const std::vector<uint32_t>& threads,
                    double seconds) {
  // Small read sets + frequent writes maximize the metrics-to-work ratio:
  // every operation and every commit touches the counters, so any per-event
  // cost shows up here before it would in a realistic mix.
  micro::MicroConfig cfg;
  cfg.table_rows = 100000;
  cfg.reads_per_txn = 4;
  cfg.write_ratio = 0.5;
  micro::MicroWorkload workload(cfg);
  ScopedDatabase scoped;
  ERMIA_CHECK(scoped.db->Open().ok());
  ERMIA_CHECK(workload.Load(scoped.db).ok());

  auto run = [&](bool suppressed, uint32_t t) {
    metrics::SetSuppressedForAblation(suppressed);
    BenchResult r = RunSi(scoped.db, &workload, t, seconds);
    metrics::SetSuppressedForAblation(false);
    return r;
  };
  run(/*suppressed=*/true, threads.front());  // throwaway round: cold start
  std::printf(
      "\n[metrics] micro (100K rows, 4 reads + 50%% writes), ERMIA-SI\n");
  std::printf("%8s %16s %16s %10s\n", "threads", "suppressed-kTps",
              "metrics-kTps", "overhead");
  for (uint32_t t : threads) {
    PairedResult p = PairedMedian([&] { return run(true, t); },
                                  [&] { return run(false, t); });
    std::printf("%8u %16.2f %16.2f %9.2f%%\n", t, p.base_tps / 1000.0,
                p.test_tps / 1000.0, p.overhead_pct);
    json.Add("suppressed/threads=" + std::to_string(t), p.base);
    json.Add("metrics/threads=" + std::to_string(t), p.test);
  }
}

void TraceSection(JsonReporter& json, const std::vector<uint32_t>& threads,
                  double seconds) {
  // TPC-C: short transactions with several reads/writes each, so the
  // per-event Emit cost gets maximal exposure.
  const uint32_t scale = EnvScale(std::max(2u, threads.back()));
  tpcc::TpccConfig cfg;
  cfg.warehouses = scale;
  tpcc::TpccWorkload workload(cfg, tpcc::TpccRunOptions{});
  ScopedDatabase scoped;
  ERMIA_CHECK(scoped.db->Open().ok());
  ERMIA_CHECK(workload.Load(scoped.db).ok());

  auto run = [&](TraceMode mode, uint32_t t) {
    trace::Configure(mode, /*sample_every=*/64);
    BenchResult r = RunSi(scoped.db, &workload, t, seconds);
    trace::Configure(TraceMode::kOff, 64);
    return r;
  };
  const std::pair<const char*, TraceMode> modes[] = {
      {"sampled-1/64", TraceMode::kSampled}, {"all", TraceMode::kAll}};

  run(TraceMode::kOff, threads.front());  // throwaway round: cold start
  std::printf("\n[trace] TPC-C (%u warehouses), ERMIA-SI\n", scale);
  std::printf("%14s %8s %14s %14s %10s\n", "mode", "threads", "off-kTps",
              "traced-kTps", "overhead");
  for (const auto& [name, mode] : modes) {
    for (uint32_t t : threads) {
      PairedResult p = PairedMedian([&] { return run(TraceMode::kOff, t); },
                                    [&] { return run(mode, t); });
      std::printf("%14s %8u %14.2f %14.2f %9.2f%%\n", name, t,
                  p.base_tps / 1000.0, p.test_tps / 1000.0, p.overhead_pct);
      json.Add(std::string("off/") + name + "/threads=" + std::to_string(t),
               p.base);
      json.Add(std::string(name) + "/threads=" + std::to_string(t), p.test);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  PrintHeader(
      "abl_observability_overhead: metrics on vs suppressed, trace off vs "
      "sampled vs all",
      "DESIGN.md ablation (observability layer)");
  JsonReporter json(argc, argv, "abl_observability_overhead");

  const double seconds = EnvSeconds(0.5);
  const std::vector<uint32_t> threads = EnvThreads({1, 2, 4});
  MetricsSection(json, threads, seconds);
  TraceSection(json, threads, seconds);
  return 0;
}
