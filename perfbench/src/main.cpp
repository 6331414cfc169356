// ermia_perfbench: one trajectory of one workload. Sets up a fresh database
// (Open + Load), ages it with the closed loop for S seconds, checks the data,
// and prints one JSON line with the effective configuration followed by the
// result line {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the loop alternates
// traced and untraced slices, the layer probes run after it, and the metrics
// are the per-layer ones. perfbench/run.py runs several trajectories and
// reports their medians; see perfbench/README.md.
//
//   ermia_perfbench --workload tpcc|tpcch-ssn|ycsb-b-occ --seed N
//                   --seconds S --trace 0|1 --dir LOG_DIR
//
// The process leaves with _Exit() after printing: an aged database takes
// tens of seconds to Close() (the final GC sweep works off the backlog), and
// the log files under RUN_DIR are the caller's to delete.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "loop.h"
#include "probes.h"
#include "workloads/tpcc/tpcc_workload.h"
#include "ycsb_b.h"

namespace perfbench {
namespace {

using ermia::CcScheme;
using ermia::Database;
using ermia::Status;
using ermia::metrics::Ctr;
using ermia::metrics::Hist;
namespace tpcc = ermia::tpcc;

// Each of these silently changes the program being measured.
constexpr const char* kForbiddenEnv[] = {
    "ERMIA_TRACE",             "ERMIA_SSN_READOPT", "ERMIA_OVERLOAD",
    "ERMIA_VERSION_ALLOCATOR", "ERMIA_LOG_STALL",   "ERMIA_RECOVERY_THREADS",
};

constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string dir;
};

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "ermia_perfbench: %s\n", msg.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (flag == "--dir") {
      a.dir = v;
    } else {
      Die("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') Die("bad value for " + flag);
  }
  if (a.seconds <= 0) Die("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) Die("--trace must be 0 or 1");
  if (a.dir.empty()) Die("--dir is required");
  return a;
}

// The workload under test: its engine scheme, its mix, and the rows the
// probes look at.
struct Spec {
  CcScheme scheme = CcScheme::kSi;
  std::unique_ptr<ermia::bench::Workload> workload;
  tpcc::TpccWorkload* tpcc = nullptr;  // null for YCSB
  YcsbB* ycsb = nullptr;
  std::map<std::string, std::string> config;  // echoed into the output
};

Spec MakeSpec(const Args& a) {
  Spec s;
  if (a.workload == "tpcc" || a.workload == "tpcch-ssn") {
    const bool hybrid = a.workload == "tpcch-ssn";
    tpcc::TpccConfig cfg;
    cfg.warehouses = 3;
    cfg.density = hybrid ? 0.3 : 1.0;
    tpcc::TpccRunOptions opts;
    opts.hybrid = hybrid;
    opts.q2_fraction = 0.2;
    opts.policy = tpcc::PartitionPolicy::kLocal;
    s.scheme = hybrid ? CcScheme::kSiSsn : CcScheme::kSi;
    auto w = std::make_unique<tpcc::TpccWorkload>(cfg, opts);
    s.tpcc = w.get();
    s.workload = std::move(w);
    s.config["mix"] = hybrid ? "TPC-C-hybrid 40/38/4/4/4 + 10% Q2*"
                             : "TPC-C 45/43/4/4/4";
    s.config["warehouses"] = std::to_string(cfg.warehouses);
    s.config["density"] = std::to_string(cfg.density);
    if (hybrid) s.config["q2_fraction"] = std::to_string(opts.q2_fraction);
    s.config["home_warehouse"] = "local";
  } else if (a.workload == "ycsb-b-occ") {
    YcsbConfig cfg;
    cfg.seed = a.seed;
    s.scheme = CcScheme::kOcc;
    auto w = std::make_unique<YcsbB>(cfg);
    s.ycsb = w.get();
    s.workload = std::move(w);
    s.config["mix"] = "YCSB-B 95% read / 5% update";
    s.config["records"] = std::to_string(cfg.records);
    s.config["value_bytes"] = std::to_string(cfg.value_size);
    s.config["ops_per_txn"] = std::to_string(cfg.ops_per_txn);
    s.config["zipf_theta"] = std::to_string(cfg.zipf_theta);
  } else {
    Die("unknown workload '" + a.workload + "'");
  }
  return s;
}

std::vector<RowRef> HotRows(const Spec& s) {
  std::vector<RowRef> rows;
  if (s.tpcc != nullptr) {
    const tpcc::TpccTables& t = s.tpcc->tables();
    for (uint32_t w = 1; w <= s.tpcc->config().warehouses; ++w) {
      rows.push_back({t.warehouse_pk, tpcc::WarehouseKey(w)});
      for (uint32_t d = 1; d <= s.tpcc->config().districts(); ++d) {
        rows.push_back({t.district_pk, tpcc::DistrictKey(w, d)});
      }
    }
  } else {
    // Zipf rank k is key k, so keys 0..99 are the hottest.
    for (uint64_t k = 0; k < 100; ++k) rows.push_back({s.ycsb->pk(), YcsbB::Key(k)});
  }
  return rows;
}

RowRef ColdRow(const Spec& s) {
  if (s.tpcc != nullptr) return {s.tpcc->tables().item_pk, tpcc::ItemKey(1)};
  return {s.ycsb->pk(), YcsbB::Key(s.ycsb->config().records - 1)};
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Metric name -> (value, unit), printed in insertion order.
class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < entries_.size(); ++i) {
      const double v = std::isfinite(entries_[i].value) ? entries_[i].value : 0;
      std::snprintf(buf, sizeof buf, "%.17g", v);
      if (i > 0) out += ", ";
      out += "\"" + entries_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

// Per-type loop metrics. Every workload reports every type, zero for types
// it does not run, so all runs print the same metric set. Q2* keeps the
// q2_ names of the paper's Fig. 5 quantities.
void AddTypeMetrics(LoopResult& r, Metrics* m) {
  static const char* kTypes[] = {"NewOrder",   "Payment", "OrderStatus",
                                 "Delivery",   "StockLevel", "Q2*",
                                 "YCSB-B"};
  for (const char* name : kTypes) {
    TypeResult* t = nullptr;
    for (auto& candidate : r.types) {
      if (candidate.name == name) t = &candidate;
    }
    TypeResult none;
    if (t == nullptr) t = &none;
    const std::string prefix =
        std::strcmp(name, "Q2*") == 0 ? "q2_" : "txn." + std::string(name) + ".";
    m->Add(prefix + "tps", Ratio(t->commits, r.elapsed_s), "1/s");
    m->Add(prefix + "p50_us", Percentile(t->latency_ns, 50) / 1e3, "us");
    m->Add(prefix + "p99_us", Percentile(t->latency_ns, 99) / 1e3, "us");
    m->Add(prefix + "abort_ratio", Ratio(t->failed_attempts, t->attempts),
           "ratio");
  }
}

int Main(int argc, char** argv) {
  for (const char* name : kForbiddenEnv) {
    if (std::getenv(name) != nullptr) {
      Die(std::string(name) +
          " is set; it changes the engine under test. Unset it to run the "
          "benchmark.");
    }
  }
  const Args args = ParseArgs(argc, argv);

  // Three closed-loop workers leave one of four CPUs to the engine's
  // daemons (log flusher, GC, snapshot, watchdog).
  constexpr uint32_t kWorkers = 3;

  // ---- set-up: Open() + Load() ----
  Spec spec = MakeSpec(args);
  ermia::EngineConfig engine;  // defaults: asynchronous commit, slab versions
  engine.log_dir = args.dir;
  const auto setup_begin = std::chrono::steady_clock::now();
  // Never deleted: the process leaves with _Exit() (see the file comment).
  Database* db = new Database(engine);
  Status setup = db->Open();
  if (setup.ok()) setup = spec.workload->Load(db);
  if (!setup.ok()) Die("set-up failed: " + setup.ToString());
  const double setup_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - setup_begin)
                             .count();

  // ---- timed run ----
  LoopOptions lo;
  lo.threads = kWorkers;
  lo.seconds = args.seconds;
  lo.seed = args.seed;
  lo.scheme = spec.scheme;
  lo.trace = args.trace == 1;
  const ermia::metrics::MetricsSnapshot before = db->SnapshotMetrics();
  LoopResult run = RunLoop(db, spec.workload.get(), lo);
  const ermia::metrics::MetricsSnapshot after = db->SnapshotMetrics();
  const double safesnap_lag_mb =
      static_cast<double>(db->log().CurrentOffset() -
                          std::min(db->log().CurrentOffset(),
                                   db->safe_snapshot_offset())) /
      kMiB;

  // ---- probes (traced run only), then the correctness gate ----
  ProbeResult probe;
  Status check;
  if (lo.trace) {
    check = RunProbes(db, spec.scheme, args.seed, HotRows(spec), ColdRow(spec),
                      spec.tpcc, &probe);
  }
  if (check.ok()) {
    check = spec.tpcc != nullptr ? CheckTpcc(db, spec.scheme, *spec.tpcc)
                                 : CheckYcsb(db, spec.scheme, *spec.ycsb);
  }
  if (check.ok() && run.failed_requests > 0) {
    check = Status::Corruption(std::to_string(run.failed_requests) +
                               " requests failed; first: " + run.first_failure);
  }
  if (!check.ok()) {
    std::fprintf(stderr, "ermia_perfbench: check failed: %s\n",
                 check.ToString().c_str());
  }

  // ---- report ----
  const uint64_t commits = run.commits();
  const uint64_t attempts = run.attempts();
  std::vector<uint32_t> all_latency;
  for (const auto& t : run.types) {
    all_latency.insert(all_latency.end(), t.latency_ns.begin(),
                       t.latency_ns.end());
  }
  Metrics m;
  if (args.trace == 0) {
    m.Add("tps", Ratio(commits, run.elapsed_s), "1/s");
    m.Add("p50_us", Percentile(all_latency, 50) / 1e3, "us");
    m.Add("p99_us", Percentile(all_latency, 99) / 1e3, "us");
    m.Add("abort_ratio", Ratio(run.failed_attempts(), attempts), "ratio");
    m.Add("peak_rss_mb", PeakRssMb(), "MB");
    m.Add("setup_s", setup_s, "s");
  } else {
    const ermia::metrics::MetricsSnapshot d = after.DeltaSince(before);
    auto delta = [&](Ctr c) {  // for monotone gauges, which DeltaSince keeps
      return static_cast<double>(after.counter(c) - before.counter(c));
    };
    auto ctr = [&](Ctr c) { return static_cast<double>(d.counter(c)); };
    const double secs = run.elapsed_s;
    const double cycles_per_ns = ermia::prof::CyclesPerNs();

    // Commits per second over the last fifth of the run, after aging. It
    // swings with the phase of the GC pass on aged TPC-C, too much for a
    // bound (README.md), so it is reported here, unbounded. The last interval
    // also holds the commits of requests in flight at the stop, which the
    // elapsed time covers.
    const size_t n = run.interval_commits.size();
    const size_t tail = std::max<size_t>(1, n / 5);
    uint64_t tail_commits = 0;
    for (size_t i = n - tail; i < n; ++i) tail_commits += run.interval_commits[i];
    m.Add("tps_final",
          Ratio(tail_commits, secs - (n - tail) * run.interval_s), "1/s");
    AddTypeMetrics(run, &m);
    m.Add("driver.wasted_ratio",
          Ratio(run.wasted_cycles, lo.threads * secs * 1e9 * cycles_per_ns),
          "ratio");

    // [traced] cycles per commit in traced slices.
    const ermia::prof::Counters& p = d.profile;
    const double tc = static_cast<double>(run.traced_commits);
    const uint64_t layers = p.index_cycles + p.indirection_cycles +
                            p.log_cycles + p.epoch_cycles + p.cc_cycles;
    m.Add("index.cycles_per_txn", Ratio(p.index_cycles, tc), "cycles");
    m.Add("indirection.cycles_per_txn", Ratio(p.indirection_cycles, tc),
          "cycles");
    m.Add("log.cycles_per_txn", Ratio(p.log_cycles, tc), "cycles");
    m.Add("epoch.cycles_per_txn", Ratio(p.epoch_cycles, tc), "cycles");
    m.Add("cc.cycles_per_txn", Ratio(p.cc_cycles, tc), "cycles");
    m.Add("other.cycles_per_txn",
          Ratio(static_cast<double>(run.traced_busy_cycles) -
                    static_cast<double>(layers),
                tc),
          "cycles");
    m.Add("trace.overhead_ratio",
          Ratio(Ratio(run.untraced_commits, run.untraced_s),
                Ratio(run.traced_commits, run.traced_s)),
          "ratio");

    // [metrics] engine counters over the timed run.
    const double kc = static_cast<double>(commits) / 1000.0;
    m.Add("index.read_retries_per_kcommit",
          Ratio(delta(Ctr::kIndexReadRetries), kc), "count");
    m.Add("index.splits_per_kcommit", Ratio(delta(Ctr::kIndexNodeSplits), kc),
          "count");
    m.Add("gc.passes_per_s", ctr(Ctr::kGcPasses) / secs, "1/s");
    m.Add("gc.reclaimed_per_commit",
          Ratio(ctr(Ctr::kGcVersionsReclaimed), commits), "count");
    m.Add("gc.chain_len_p50", d.hist(Hist::kGcChainLength).Percentile(50),
          "count");
    m.Add("gc.chain_len_p99", d.hist(Hist::kGcChainLength).Percentile(99),
          "count");
    m.Add("alloc.slab_mb", after.counter(Ctr::kVerAllocSlabBytes) / kMiB, "MB");
    m.Add("alloc.limbo_size", after.counter(Ctr::kVerAllocLimboSize), "count");
    m.Add("log.bytes_per_commit", Ratio(ctr(Ctr::kLogFlushedBytes), commits),
          "B");
    m.Add("log.flushes_per_s", ctr(Ctr::kLogFlushes) / secs, "1/s");
    m.Add("log.flush_us_p50", d.hist(Hist::kLogFlushLatencyUs).Percentile(50),
          "us");
    m.Add("log.flush_us_p99", d.hist(Hist::kLogFlushLatencyUs).Percentile(99),
          "us");
    m.Add("log.skip_blocks_per_kcommit", Ratio(ctr(Ctr::kLogSkipBlocks), kc),
          "count");
    m.Add("epoch.advances_per_s", ctr(Ctr::kEpochAdvances) / secs, "1/s");
    m.Add("epoch.straggler_stalls", ctr(Ctr::kEpochStragglerStalls), "count");
    m.Add("epoch.boundary_lag", after.counter(Ctr::kEpochBoundaryLag), "count");
    m.Add("tid.occupancy_hwm", after.counter(Ctr::kTidOccupancyHwm), "count");
    m.Add("txn.pool_miss_ratio",
          Ratio(ctr(Ctr::kTxnResPoolMisses),
                ctr(Ctr::kTxnResPoolHits) + ctr(Ctr::kTxnResPoolMisses)),
          "ratio");
    for (uint32_t r = 0;
         r < static_cast<uint32_t>(ermia::metrics::AbortReason::kNumReasons);
         ++r) {
      const auto reason = static_cast<ermia::metrics::AbortReason>(r);
      m.Add(std::string("cc.abort.") + ermia::metrics::AbortReasonName(reason),
            Ratio(d.abort_count(reason), attempts), "ratio");
    }
    m.Add("ssn.bitmap_advertises_per_commit",
          Ratio(ctr(Ctr::kSsnBitmapAdvertises), commits), "count");
    m.Add("ssn.reader_slot_waits", delta(Ctr::kSsnReaderSlotWaits), "count");
    m.Add("engine.watchdog_trips", ctr(Ctr::kWatchdogTrips), "count");
    m.Add("engine.safesnap_lag_mb", safesnap_lag_mb, "MB");

    // [probe] timed public calls on the aged database.
    m.Add("index.lookup_ns", probe.lookup_ns, "ns");
    m.Add("index.scan_keys_per_row", probe.scan_keys_per_row, "ratio");
    m.Add("storage.hot_chain_len", probe.hot_chain_len, "count");
    m.Add("storage.hot_read_ns", probe.hot_read_ns, "ns");
    m.Add("txn.begin_commit_ro_ns", probe.begin_commit_ro_ns, "ns");
    m.Add("txn.begin_commit_update_ns", probe.begin_commit_update_ns, "ns");
  }

  // Effective configuration and sample counts, one line before the result.
  std::string cfg = "{\"config\": {\"workload\": \"" + args.workload +
                    "\", \"scheme\": \"" + ermia::CcSchemeName(spec.scheme) +
                    "\", \"workers\": " + std::to_string(kWorkers) +
                    ", \"seed\": " + std::to_string(args.seed) +
                    ", \"seconds\": " + std::to_string(args.seconds) +
                    ", \"trace\": " + std::to_string(args.trace);
  spec.config["flush"] = engine.synchronous_commit ? "synchronous" : "asynchronous";
  spec.config["log_segment_mb"] = std::to_string(engine.log_segment_size >> 20);
  spec.config["allocator"] =
      engine.version_allocator == ermia::VersionAllocMode::kSlab ? "slab"
                                                                 : "malloc";
  spec.config["latency_samples"] = std::to_string(all_latency.size());
  spec.config["commits"] = std::to_string(commits);
  spec.config["elapsed_s"] = std::to_string(run.elapsed_s);
  for (const auto& [k, v] : spec.config) cfg += ", \"" + k + "\": \"" + v + "\"";
  // Commits per second of the run: the aging curve.
  cfg += ", \"commits_per_s\": [";
  const size_t per_s = static_cast<size_t>(1.0 / run.interval_s + 0.5);
  for (size_t i = 0; i < run.interval_commits.size(); i += per_s) {
    uint64_t c = 0;
    for (size_t j = i; j < std::min(i + per_s, run.interval_commits.size()); ++j) {
      c += run.interval_commits[j];
    }
    cfg += (i == 0 ? "" : ", ") + std::to_string(c);
  }
  cfg += "]}}";
  std::printf("%s\n", cfg.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      check.ok() ? "true" : "false",
      static_cast<unsigned long long>(run.requests),
      static_cast<unsigned long long>(run.failed_requests), m.Json().c_str());
  std::fflush(stdout);
  std::fflush(stderr);
  std::_Exit(check.ok() ? 0 : 1);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
