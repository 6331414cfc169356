// Ablation: epoch-integrated slab version allocator (EngineConfig::
// version_allocator = kSlab) vs raw malloc/free (kMalloc). Three quantities:
//
//  1. A version-churn microbenchmark — each thread keeps a sliding window of
//     live versions with chain-like mixed payload sizes and replaces the
//     oldest every iteration, the allocation pattern an update-heavy OLTP
//     worker produces — reported as ns per alloc+free pair.
//  2. A GC retire burst — one thread pins an epoch, FreeDeferred()s N
//     versions (what a GC pass does with the chains it trims), then unpins
//     and harvests — reported as ns per deferred free for growing N. A flat
//     ns/op means the limbo harvest is linear in the burst size.
//  3. End-to-end TPC-C (NewOrder/Payment mix), one fresh database per mode,
//     reported as overall tps and NewOrder tpmC with the slab/malloc delta.
//
// Note: ERMIA_VERSION_ALLOCATOR overrides the per-mode config inside
// Database, so leave it unset when running this binary.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "epoch/epoch_manager.h"
#include "storage/version.h"
#include "storage/version_alloc.h"
#include "workloads/tpcc/tpcc_workload.h"

using namespace ermia;
using namespace ermia::bench;

namespace {

constexpr int kWindow = 256;  // live versions per thread (chain depth stand-in)

uint64_t EnvChurnOps() {
  if (const char* env = std::getenv("ERMIA_BENCH_CHURN_OPS")) {
    const uint64_t ops = std::strtoull(env, nullptr, 10);
    if (ops > 0) return ops;
  }
  return 400000;
}

const char* ModeName(VersionAllocMode mode) {
  return mode == VersionAllocMode::kSlab ? "slab" : "malloc";
}

struct ChurnPoint {
  double ns_per_op = 0;
  double mops = 0;
  BenchResult result;
};

// Mixed payload sizes akin to real version chains: keys+small rows dominate,
// with occasional wide rows crossing size classes.
constexpr size_t kPayloadMix[] = {24, 64, 100, 180, 300, 700};

ChurnPoint RunChurn(VersionAllocMode mode, uint32_t threads, uint64_t ops) {
  VersionAllocator::Instance().SetMode(mode);
  std::vector<std::string> payloads;
  for (size_t bytes : kPayloadMix) payloads.emplace_back(bytes, 'v');

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<Version*> window(kWindow, nullptr);
      uint64_t rng = 0x9e3779b97f4a7c15ull * (t + 1);
      for (uint64_t i = 0; i < ops; ++i) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const size_t slot = (rng >> 33) % kWindow;
        const size_t which = (rng >> 21) % (sizeof(kPayloadMix) / sizeof(size_t));
        if (window[slot] != nullptr) Version::Free(window[slot]);
        window[slot] = Version::Alloc(payloads[which]);
      }
      for (Version* v : window) {
        if (v != nullptr) Version::Free(v);
      }
    });
  }
  for (auto& w : workers) w.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  ChurnPoint p;
  const uint64_t total_ops = ops * threads;
  p.ns_per_op = secs * 1e9 / static_cast<double>(total_ops);
  p.mops = static_cast<double>(total_ops) / secs / 1e6;
  p.result.seconds = secs;
  p.result.threads = threads;
  p.result.type_names = {"alloc_free"};
  p.result.per_type.resize(1);
  p.result.per_type[0].commits = total_ops;
  return p;
}

// Retires `n` versions under a held epoch pin, then unpins and harvests; the
// timed span covers the frees and the harvest that reclaims them.
BenchResult RunRetireBurst(EpochManager* mgr, size_t n) {
  VersionAllocator& va = VersionAllocator::Instance();
  const std::string payload(100, 'r');
  std::vector<Version*> versions;
  versions.reserve(n);
  for (size_t i = 0; i < n; ++i) versions.push_back(Version::Alloc(payload));

  const auto t0 = std::chrono::steady_clock::now();
  mgr->Enter();
  for (Version* v : versions) Version::FreeDeferred(mgr, v);
  mgr->Exit();
  mgr->Advance();
  const size_t reclaimed = va.HarvestThisThread();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ERMIA_CHECK(reclaimed >= n);

  BenchResult r;
  r.seconds = secs;
  r.threads = 1;
  r.type_names = {"deferred_free"};
  r.per_type.resize(1);
  r.per_type[0].commits = n;
  return r;
}

struct TpccPoint {
  double tps = 0;
  double neworder_tpmc = 0;
  BenchResult result;
};

// RunPoint from bench_util.h uses a default EngineConfig; this variant pins
// the allocator backend per mode.
TpccPoint RunTpcc(VersionAllocMode mode, const BenchOptions& options,
                  uint32_t scale, double density) {
  EngineConfig config;
  config.version_allocator = mode;
  ScopedDatabase scoped(config);
  ERMIA_CHECK(scoped.db->Open().ok());
  tpcc::TpccConfig cfg;
  cfg.warehouses = scale;
  cfg.density = density;
  tpcc::TpccWorkload workload(cfg, tpcc::TpccRunOptions{});
  ERMIA_CHECK(workload.Load(scoped.db).ok());
  TpccPoint p;
  p.result = RunBench(scoped.db, &workload, options);
  p.tps = p.result.tps();
  const size_t no = TypeIndex(p.result, "NewOrder");
  if (no != SIZE_MAX) p.neworder_tpmc = p.result.type_tps(no) * 60.0;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  PrintHeader("abl_alloc: slab version allocator vs raw malloc",
              "version allocation ablation (paper §4, memory-optimized "
              "storage; docs/INTERNALS.md epoch-based allocation)");
  JsonReporter json(argc, argv, "abl_alloc");

  if (std::getenv("ERMIA_VERSION_ALLOCATOR") != nullptr) {
    std::printf("\nwarning: ERMIA_VERSION_ALLOCATOR is set; it overrides the "
                "per-mode engine config and the TPC-C comparison below will "
                "run both rows on the same backend.\n");
  }

  const uint32_t threads = EnvThreads({4}).front();
  const uint64_t churn_ops = EnvChurnOps();
  const double seconds = EnvSeconds(0.5);
  const uint32_t scale = EnvScale(std::max(2u, threads));
  const double density = EnvDensity(0.05);
  const std::vector<VersionAllocMode> modes = {VersionAllocMode::kMalloc,
                                               VersionAllocMode::kSlab};

  std::printf("\n-- version churn: %u threads x %llu ops, window %d, "
              "payloads 24..700B --\n",
              threads, static_cast<unsigned long long>(churn_ops), kWindow);
  std::printf("%8s %12s %12s\n", "mode", "ns/op", "Mops/s");
  double churn_ns[2] = {0, 0};
  for (size_t m = 0; m < modes.size(); ++m) {
    ChurnPoint p = RunChurn(modes[m], threads, churn_ops);
    churn_ns[m] = p.ns_per_op;
    std::printf("%8s %12.1f %12.2f\n", ModeName(modes[m]), p.ns_per_op,
                p.mops);
    json.Add(std::string("churn/") + ModeName(modes[m]), p.result);
  }
  if (churn_ns[1] > 0) {
    std::printf("slab speedup over malloc: %.2fx\n",
                churn_ns[0] / churn_ns[1]);
  }

  std::printf("\n-- GC retire burst: 1 pinned thread, FreeDeferred then "
              "unpin + harvest, slab --\n");
  std::printf("%10s %12s\n", "versions", "ns/op");
  VersionAllocator::Instance().SetMode(VersionAllocMode::kSlab);
  {
    EpochManager mgr;
    VersionAllocator::Instance().AttachEpoch(&mgr);
    for (size_t n : {10000, 100000, 300000}) {
      BenchResult r = RunRetireBurst(&mgr, n);
      std::printf("%10zu %12.1f\n", n,
                  r.seconds * 1e9 / static_cast<double>(n));
      json.Add("retire_burst/" + std::to_string(n), r);
    }
    VersionAllocator::Instance().DetachEpoch(&mgr);
  }

  std::printf("\n-- TPC-C (ERMIA-SI, %u threads, %u warehouses, %.1fs per "
              "point) --\n",
              threads, scale, seconds);
  std::printf("%8s %12s %14s\n", "mode", "tps", "NewOrder-tpmC");
  double tpcc_tps[2] = {0, 0};
  for (size_t m = 0; m < modes.size(); ++m) {
    BenchOptions options;
    options.threads = threads;
    options.seconds = seconds;
    options.scheme = CcScheme::kSi;
    TpccPoint p = RunTpcc(modes[m], options, scale, density);
    tpcc_tps[m] = p.tps;
    std::printf("%8s %12.0f %14.0f\n", ModeName(modes[m]), p.tps,
                p.neworder_tpmc);
    json.Add(std::string("tpcc/") + ModeName(modes[m]), p.result);
  }
  if (tpcc_tps[0] > 0) {
    std::printf("slab tps delta vs malloc: %+.1f%%\n",
                (tpcc_tps[1] - tpcc_tps[0]) / tpcc_tps[0] * 100.0);
  }
  return 0;
}
