// Ablation: graceful degradation under overload and log failure
// (docs/INTERNALS.md "Degraded modes & overload protection"). Two phases:
//
//   1. Abort-storm governor A/B: a 100%-hotspot write mix (every transaction
//      RMWs the same row, holding the read-to-write window open) swept over
//      offered writer threads, governor off vs on. The interesting quantity
//      is goodput (committed tps) and the abort ratio the governor trades it
//      against; with the governor on, the AIMD gate sheds concurrent writers
//      when the abort rate spikes.
//   2. ENOSPC stall/resume timeline: a steady-state disk-full fault is armed
//      mid-run and later cleared. The timeline samples log health, commits
//      and writer rejects; hard checks enforce the protocol — the flusher
//      stalls (never poisons), writers are shed with LogUnavailable, the
//      watchdog notices the prolonged degradation, and after the fault
//      clears the flusher resumes and durability advances again.
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/fault_injection.h"
#include "engine/watchdog.h"
#include "log/log_manager.h"

using namespace ermia;
using namespace ermia::bench;

namespace {

// ---- phase 1: 100%-hotspot write mix ---------------------------------------

class HotspotWorkload : public Workload {
 public:
  Status Load(Database* db) override {
    table_ = db->CreateTable("hotspot");
    pk_ = db->CreateIndex(table_, "hotspot_pk");
    Transaction txn(db, CcScheme::kSi);
    Oid oid = 0;
    ERMIA_RETURN_NOT_OK(txn.Insert(table_, pk_, "hot", "seed", &oid));
    return txn.Commit();
  }

  size_t NumTxnTypes() const override { return 1; }
  const char* TxnTypeName(size_t) const override { return "hot_rmw"; }
  size_t PickTxnType(FastRandom&) const override { return 0; }

  Status RunTxn(Database* db, CcScheme scheme, size_t, uint32_t worker_id,
                uint32_t, FastRandom& rng) override {
    Transaction txn(db, scheme);
    Oid oid = 0;
    Status s = txn.GetOid(pk_, "hot", &oid);
    // Hold the read-to-write window open: a bare hot-key RMW is single-digit
    // microseconds — too short for offered threads to overlap, so no storm
    // would ever form. Real contended transactions do work here.
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    if (s.ok()) {
      s = txn.Update(table_, oid,
                     "w" + std::to_string(worker_id) + "-" +
                         std::to_string(rng.Next() & 0xffff));
    }
    if (!s.ok()) {
      txn.Abort();
      return s;
    }
    return txn.Commit();
  }

 private:
  Table* table_ = nullptr;
  Index* pk_ = nullptr;
};

EngineConfig GovernorConfig(bool governed) {
  EngineConfig config;
  config.governor_enabled = governed;
  config.snapshot_daemon_interval_ms = 5;  // the daemon tick drives Tick()
  return config;
}

BenchResult RunHotspot(bool governed, const BenchOptions& options) {
  ScopedDatabase scoped(GovernorConfig(governed));
  ERMIA_CHECK(scoped.db->Open().ok());
  HotspotWorkload workload;
  ERMIA_CHECK(workload.Load(scoped.db).ok());
  return RunBench(scoped.db, &workload, options);
}

// ---- phase 2: ENOSPC stall/resume timeline ---------------------------------

EngineConfig TimelineConfig() {
  EngineConfig config;
  config.synchronous_commit = false;  // rejects surface at the write op
  config.checkpoint_interval_ms = 0;  // keep checkpoint writes off the plan
  config.log_stall_retry_initial_ms = 1;
  config.log_stall_retry_max_ms = 8;
  // A fast watchdog so the 400ms degradation window is long enough to trip
  // (grace well under the window, but not so tight that a busy-but-healthy
  // flusher pass trips the frozen-durable check).
  config.watchdog_interval_ms = 25;
  config.watchdog_grace_ms = 150;
  return config;
}

Status Put(Database* db, const std::string& key, const std::string& value) {
  Transaction txn(db, CcScheme::kSi);
  Oid oid = 0;
  Status s = txn.Insert(db->GetTable("kv"), db->GetIndex("kv_pk"), key, value,
                        &oid);
  if (!s.ok()) {
    txn.Abort();
    return s;
  }
  return txn.Commit();
}

}  // namespace

int main(int argc, char** argv) {
  PrintHeader("abl_overload: abort-storm governor + log-stall protocol",
              "DESIGN.md ablation (graceful degradation under overload)");
  JsonReporter json(argc, argv, "abl_overload");

  const double seconds = EnvSeconds(0.3);
  const std::vector<uint32_t> thread_list = EnvThreads({2, 8});

  // ---- phase 1 -------------------------------------------------------------
  std::printf("\n100%%-hotspot write mix (kSi), governor off vs on:\n");
  std::printf("%8s %12s %12s %10s %10s %12s\n", "threads", "off-tps",
              "on-tps", "off-ar", "on-ar", "gov-changes");
  for (const uint32_t threads : thread_list) {
    BenchOptions options;
    options.threads = threads;
    options.seconds = seconds;
    options.scheme = CcScheme::kSi;
    BenchResult ab[2];
    for (const bool governed : {false, true}) {
      ab[governed] = RunHotspot(governed, options);
      json.Add("hotspot/t" + std::to_string(threads) +
                   (governed ? "/on" : "/off"),
               ab[governed]);
    }
    const uint64_t limit_changes =
        ab[1].engine.counter(metrics::Ctr::kGovLimitChanges);
    std::printf("%8u %12.0f %12.0f %9.1f%% %9.1f%% %12llu\n", threads,
                ab[0].tps(), ab[1].tps(),
                100.0 * ab[0].per_type[0].abort_ratio(),
                100.0 * ab[1].per_type[0].abort_ratio(),
                (unsigned long long)limit_changes);
    ERMIA_CHECK(ab[0].total_commits() > 0);
    ERMIA_CHECK(ab[1].total_commits() > 0);
  }

  // ---- phase 2 -------------------------------------------------------------
  std::printf("\nENOSPC stall/resume timeline (4 writers, fault armed at "
              "300ms, cleared at 700ms):\n");
  std::printf("%8s %10s %10s %10s\n", "ms", "health", "commits", "rejects");
  {
    ScopedDatabase scoped(TimelineConfig());
    Database* db = scoped.db;
    db->CreateTable("kv");
    db->CreateIndex(db->GetTable("kv"), "kv_pk");
    ERMIA_CHECK(db->Open().ok());
    const metrics::MetricsSnapshot before = db->SnapshotMetrics();

    constexpr int kWriters = 4;
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> committed{0};
    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; ++t) {
      writers.emplace_back([&, t] {
        uint64_t seq = 0;
        while (!stop.load(std::memory_order_acquire)) {
          Status s = Put(db, "w" + std::to_string(t) + "-" +
                                 std::to_string(seq),
                         "v" + std::to_string(seq));
          if (s.ok()) {
            ++seq;
            committed.fetch_add(1, std::memory_order_relaxed);
          } else {
            // Shed writer: back off on the stall-resolution timescale.
            ERMIA_CHECK(s.IsLogUnavailable());
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        ThreadRegistry::Deregister();
      });
    }

    const auto t0 = std::chrono::steady_clock::now();
    auto elapsed_ms = [&t0] {
      return std::chrono::duration_cast<std::chrono::milliseconds>(
                 std::chrono::steady_clock::now() - t0)
          .count();
    };
    bool armed = false;
    bool disarmed = false;
    while (elapsed_ms() < 1200) {
      const long now = elapsed_ms();
      if (!armed && now >= 300) {
        fault::Plan plan;
        plan.mode = fault::Mode::kShortWrite;  // steady-state ENOSPC
        plan.trigger_after = 1;
        plan.fire_count = fault::kFireUntilDisarmed;
        fault::InstallPlan(plan);
        armed = true;
      }
      if (armed && !disarmed && now >= 700) {
        fault::Disarm();
        disarmed = true;
      }
      const metrics::MetricsSnapshot snap =
          db->SnapshotMetrics().DeltaSince(before);
      std::printf("%8ld %10s %10llu %10llu\n", now,
                  LogHealthName(db->log().health()),
                  (unsigned long long)committed.load(),
                  (unsigned long long)snap.counter(
                      metrics::Ctr::kLogWriterRejects));
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    stop.store(true, std::memory_order_release);
    for (auto& w : writers) w.join();

    // Protocol acceptance: the fault stalled (never poisoned) the log,
    // writers were shed, the watchdog noticed the prolonged degradation, and
    // the flusher resumed once the fault cleared.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (db->log().health() != LogHealth::kHealthy &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ERMIA_CHECK(db->log().health() == LogHealth::kHealthy);
    ERMIA_CHECK(Put(db, "post-resume", "pv").ok());
    ERMIA_CHECK(db->log().WaitForDurable(db->log().CurrentOffset()).ok());

    BenchResult timeline;
    timeline.seconds = 1.2;
    timeline.threads = kWriters;
    timeline.type_names.push_back("put");
    timeline.per_type.resize(1);
    timeline.engine = db->SnapshotMetrics().DeltaSince(before);
    timeline.per_type[0].commits = committed.load();
    timeline.per_type[0].aborts =
        timeline.engine.counter(metrics::Ctr::kLogWriterRejects);
    json.Add("stall_timeline", timeline);

    ERMIA_CHECK(timeline.engine.counter(metrics::Ctr::kLogStalls) >= 1);
    ERMIA_CHECK(timeline.engine.counter(metrics::Ctr::kLogStallResumes) >= 1);
    ERMIA_CHECK(timeline.engine.counter(metrics::Ctr::kLogPoisonEvents) == 0);
    ERMIA_CHECK(timeline.engine.counter(metrics::Ctr::kLogWriterRejects) >= 1);
    ERMIA_CHECK(db->watchdog() != nullptr);
    ERMIA_CHECK(db->watchdog()->trips() >= 1);
    std::printf("\nstall protocol: %llu stalls, %llu retries, %llu resumes, "
                "%llu rejects, %llu watchdog trips, 0 poison events\n",
                (unsigned long long)timeline.engine.counter(
                    metrics::Ctr::kLogStalls),
                (unsigned long long)timeline.engine.counter(
                    metrics::Ctr::kLogStallRetries),
                (unsigned long long)timeline.engine.counter(
                    metrics::Ctr::kLogStallResumes),
                (unsigned long long)timeline.engine.counter(
                    metrics::Ctr::kLogWriterRejects),
                (unsigned long long)db->watchdog()->trips());
  }

  std::printf("\nnote: 'on' = governor_enabled (ERMIA_OVERLOAD=on)\n");
  return 0;
}
