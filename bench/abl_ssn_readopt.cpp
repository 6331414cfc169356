// Ablation: SSN safe snapshots (declared read-only SSN transactions begin at
// the safe-snapshot LSN and read with zero tracking, docs/INTERNALS.md
// "Read-mostly optimizations"). Three phases:
//
//   1. Correctness gate on a declared-read-only mix (YCSB-C): with
//      ssn_safe_snapshot on, every transaction must take the zero-tracking
//      safe-snapshot path — zero reader-bitmap RMWs, zero aborts. Enforced
//      with hard checks, not just printed.
//   2. Read-mostly YCSB-B A/B: safe snapshots off vs on, same mix.
//   3. The paper's heterogeneous mixes: TPC-C-hybrid (Q2*) and TPC-E-hybrid
//      (AssetEval) A/B, where the long read-mostly transactions are the ones
//      the bitmap-RMW traffic hurts.
#include <thread>

#include "bench_util.h"
#include "workloads/tpcc/tpcc_workload.h"
#include "workloads/tpce/tpce_workload.h"
#include "workloads/ycsb/ycsb_workload.h"

using namespace ermia;
using namespace ermia::bench;

namespace {

EngineConfig MakeConfig(bool optimized) {
  EngineConfig config;
  config.ssn_safe_snapshot = optimized;
  return config;
}

// RunPoint can't carry an EngineConfig, so the A/B points build their own
// database: load, let the safe-snapshot LSN catch up to the loaded state
// (readers born before the first publication would see an empty database),
// then run.
template <typename WorkloadT>
BenchResult RunMode(bool optimized, WorkloadT* workload,
                    const BenchOptions& options) {
  ScopedDatabase scoped(MakeConfig(optimized));
  ERMIA_CHECK(scoped.db->Open().ok());
  ERMIA_CHECK(workload->Load(scoped.db).ok());
  const uint64_t tail = scoped.db->log().CurrentOffset();
  while (scoped.db->safe_snapshot_offset() < tail) {
    scoped.db->safesnap().Tick(scoped.db->gc_epoch(),
                               scoped.db->log().CurrentOffset());
    // A round stalls while any epoch straggler (e.g. the GC daemon mid-pass)
    // is pinned below the candidate's mark; yield so it can finish.
    std::this_thread::yield();
  }
  return RunBench(scoped.db, workload, options);
}

void PrintAb(const char* label, const BenchResult& off, const BenchResult& on) {
  const double ratio = off.tps() > 0 ? on.tps() / off.tps() : 0.0;
  std::printf("%-24s %14.2f %14.2f %9.2fx\n", label, off.tps() / 1000.0,
              on.tps() / 1000.0, ratio);
}

}  // namespace

int main(int argc, char** argv) {
  PrintHeader("abl_ssn_readopt: SSN safe snapshots",
              "DESIGN.md ablation (paper §3.6, read-mostly SSN)");
  JsonReporter json(argc, argv, "abl_ssn_readopt");

  const double seconds = EnvSeconds(0.3);
  const uint32_t threads = EnvThreads({4}).front();
  const uint32_t scale = EnvScale(std::max(2u, threads));
  const double density = EnvDensity(0.05);

  BenchOptions options;
  options.threads = threads;
  options.seconds = seconds;
  options.scheme = CcScheme::kSiSsn;

  std::printf("\n%-24s %14s %14s %10s\n", "mix", "off-kTps", "on-kTps",
              "ratio");

  // ---- phase 1: declared-read-only gate + A/B ----------------------------
  // Off: declared-RO SSN transactions still track every read (reader slot,
  // bitmap fetch_or per version, read set). On: zero-tracking safe-snapshot
  // path. Zipfian keys make the off-side bitmap RMWs contend on the same hot
  // cache lines, which is exactly the traffic the optimization removes.
  {
    BenchResult ab[2];
    for (const bool optimized : {false, true}) {
      ycsb::YcsbConfig cfg;
      cfg.records = 50000;
      cfg.mix = ycsb::YcsbMix::kC;
      ycsb::YcsbWorkload workload(cfg);
      ab[optimized] = RunMode(optimized, &workload, options);
      json.Add(std::string("ycsb_c/") + (optimized ? "on" : "off"),
               ab[optimized]);
    }
    PrintAb("YCSB-C (100% read)", ab[0], ab[1]);
    const BenchResult& r = ab[1];
    const uint64_t safesnap_txns =
        r.engine.counter(metrics::Ctr::kSsnSafesnapTxns);
    const uint64_t bitmap_rmws =
        r.engine.counter(metrics::Ctr::kSsnBitmapAdvertises);
    std::printf("  on-side: %llu safe-snapshot txns, %llu bitmap RMWs, "
                "%llu aborts\n",
                (unsigned long long)safesnap_txns,
                (unsigned long long)bitmap_rmws,
                (unsigned long long)r.total_aborts());
    // Acceptance: every declared-RO SSN transaction rides the safe snapshot,
    // advertises nothing, and can never abort.
    ERMIA_CHECK(safesnap_txns >= r.total_commits());
    ERMIA_CHECK(bitmap_rmws == 0);
    ERMIA_CHECK(r.total_aborts() == 0);
  }

  // ---- phase 2: read-mostly YCSB-B ---------------------------------------
  {
    BenchResult ab[2];
    for (const bool optimized : {false, true}) {
      ycsb::YcsbConfig cfg;
      cfg.records = 50000;
      cfg.mix = ycsb::YcsbMix::kB;
      ycsb::YcsbWorkload workload(cfg);
      ab[optimized] = RunMode(optimized, &workload, options);
      json.Add(std::string("ycsb_b/") + (optimized ? "on" : "off"),
               ab[optimized]);
    }
    PrintAb("YCSB-B (95/5)", ab[0], ab[1]);
  }

  // ---- phase 3: heterogeneous hybrid mixes -------------------------------
  {
    BenchResult ab[2];
    for (const bool optimized : {false, true}) {
      tpcc::TpccConfig cfg;
      cfg.warehouses = scale;
      cfg.density = density;
      tpcc::TpccRunOptions opts;
      opts.hybrid = true;
      opts.q2_fraction = 0.2;
      tpcc::TpccWorkload workload(cfg, opts);
      ab[optimized] = RunMode(optimized, &workload, options);
      json.Add(std::string("tpcch/") + (optimized ? "on" : "off"),
               ab[optimized]);
    }
    PrintAb("TPC-C-hybrid (Q2* 20%)", ab[0], ab[1]);
  }
  {
    BenchResult ab[2];
    for (const bool optimized : {false, true}) {
      tpce::TpceConfig cfg;
      cfg.density = density;
      tpce::TpceRunOptions opts;
      opts.hybrid = true;
      opts.asset_eval_size = 0.2;
      tpce::TpceWorkload workload(cfg, opts);
      ab[optimized] = RunMode(optimized, &workload, options);
      json.Add(std::string("tpceh/") + (optimized ? "on" : "off"),
               ab[optimized]);
    }
    PrintAb("TPC-E-hybrid (AE 20%)", ab[0], ab[1]);
  }

  std::printf("\nnote: 'on' = ssn_safe_snapshot (ERMIA_SSN_READOPT=on)\n");
  return 0;
}
