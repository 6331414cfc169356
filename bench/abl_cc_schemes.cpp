// Ablation: the paper's three CC schemes (SI, SI+SSN, Silo-OCC) on the
// microbenchmark at low, mid and high contention. All three run on the
// identical physical layer, so the difference is pure CC.
#include "bench_util.h"
#include "workloads/micro/micro_workload.h"

using namespace ermia;
using namespace ermia::bench;

int main(int argc, char** argv) {
  PrintHeader("abl_cc_schemes: three CC schemes vs contention",
              "DESIGN.md ablation (paper §2 discussion)");
  JsonReporter json(argc, argv, "abl_cc_schemes");

  const double seconds = EnvSeconds(0.3);
  const uint32_t threads = EnvThreads({4}).front();

  struct Point {
    const char* name;
    uint32_t rows;
    uint32_t reads;
    double write_ratio;
  };
  const Point points[] = {
      {"low contention  (100K rows, 100 reads, 1% writes)", 100000, 100, 0.01},
      {"mid contention  (1K rows, 100 reads, 10% writes)", 1000, 100, 0.10},
      {"high contention (100 rows, 20 reads, 50% writes)", 100, 20, 0.50},
  };
  const std::vector<CcScheme> schemes = {CcScheme::kOcc, CcScheme::kSi,
                                         CcScheme::kSiSsn};

  for (const Point& p : points) {
    std::printf("\n-- %s, %u threads --\n", p.name, threads);
    std::printf("%12s %14s %14s %12s\n", "scheme", "kTps", "commits",
                "abort-%");
    micro::MicroConfig cfg;
    cfg.table_rows = p.rows;
    cfg.reads_per_txn = p.reads;
    cfg.write_ratio = p.write_ratio;
    micro::MicroWorkload workload(cfg);
    ScopedDatabase scoped;
    ERMIA_CHECK(scoped.db->Open().ok());
    ERMIA_CHECK(workload.Load(scoped.db).ok());
    for (CcScheme scheme : schemes) {
      BenchOptions options;
      options.threads = threads;
      options.seconds = seconds;
      options.scheme = scheme;
      BenchResult r = RunBench(scoped.db, &workload, options);
      json.Add(std::string(CcSchemeName(scheme)) + "/rows=" +
                   std::to_string(p.rows) + "/wr=" +
                   std::to_string(p.write_ratio),
               r);
      const double aborts =
          r.total_commits() + r.total_aborts() > 0
              ? 100.0 * r.total_aborts() /
                    (r.total_commits() + r.total_aborts())
              : 0.0;
      std::printf("%12s %14.2f %14llu %11.1f%%\n", CcSchemeName(scheme),
                  r.tps() / 1000.0,
                  static_cast<unsigned long long>(r.total_commits()), aborts);
    }
  }
  return 0;
}
