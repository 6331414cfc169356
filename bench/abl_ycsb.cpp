// Ablation: YCSB mixes A/B/C/E/F across the three CC schemes (extension —
// the standard key-value kit for memory-optimized engines). Shows the same
// story as the paper from another angle: schemes converge on read-dominated
// mixes (B/C) and diverge as writes and skew grow (A/F with zipf 0.8).
#include "bench_util.h"
#include "workloads/ycsb/ycsb_workload.h"

using namespace ermia;
using namespace ermia::bench;

int main(int argc, char** argv) {
  PrintHeader("abl_ycsb: YCSB A/B/C/E/F across CC schemes",
              "DESIGN.md ablation (extension)");
  JsonReporter json(argc, argv, "abl_ycsb");
  const double seconds = EnvSeconds(0.3);
  const uint32_t threads = EnvThreads({4}).front();
  const uint64_t records = std::max<uint64_t>(
      10000, static_cast<uint64_t>(1000000 * EnvDensity(0.1)));

  const std::vector<std::pair<ycsb::YcsbMix, const char*>> mixes = {
      {ycsb::YcsbMix::kA, "A (50r/50u)"},  {ycsb::YcsbMix::kB, "B (95r/5u)"},
      {ycsb::YcsbMix::kC, "C (100r)"},     {ycsb::YcsbMix::kE, "E (scan/ins)"},
      {ycsb::YcsbMix::kF, "F (50r/50rmw)"}};
  const std::vector<CcScheme> schemes = {CcScheme::kOcc, CcScheme::kSi,
                                         CcScheme::kSiSsn};

  ycsb::YcsbConfig cfg;
  cfg.records = records;
  ycsb::YcsbWorkload workload(cfg);
  ScopedDatabase scoped;
  ERMIA_CHECK(scoped.db->Open().ok());
  ERMIA_CHECK(workload.Load(scoped.db).ok());

  std::printf("\n%u threads, %llu records, zipf 0.8  (kTps)\n", threads,
              static_cast<unsigned long long>(records));
  std::printf("%-14s %12s %12s %12s\n", "mix", "Silo-OCC", "ERMIA-SI",
              "ERMIA-SSN");
  for (const auto& [mix, name] : mixes) {
    workload.set_mix(mix);
    std::printf("%-14s", name);
    for (CcScheme scheme : schemes) {
      BenchOptions options;
      options.threads = threads;
      options.seconds = seconds;
      options.scheme = scheme;
      BenchResult r = RunBench(scoped.db, &workload, options);
      std::printf(" %12.2f", r.tps() / 1000.0);
      std::fflush(stdout);
      json.Add(std::string(CcSchemeName(scheme)) + "/mix=" + name, r);
    }
    std::printf("\n");
  }
  return 0;
}
