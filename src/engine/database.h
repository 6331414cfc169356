// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Engine facade: owns the physical layer (log manager, TID manager, epoch
// managers, garbage collector), the catalog (tables and indexes sharing one
// FID space), and the recovery/checkpoint machinery. Applications create
// schema objects once, then run Transactions against them.
#ifndef ERMIA_ENGINE_DATABASE_H_
#define ERMIA_ENGINE_DATABASE_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cc/safe_snapshot.h"
#include "cc/ssn_readers.h"
#include "common/macros.h"
#include "common/spin_latch.h"
#include "common/status.h"
#include "common/sysconf.h"
#include "epoch/epoch_manager.h"
#include "log/log_manager.h"
#include "metrics/metrics.h"
#include "metrics/reporter.h"
#include "storage/gc.h"
#include "storage/table.h"
#include "txn/tid_manager.h"
#include "txn/transaction.h"

namespace ermia {

class LogScanner;
class OverloadGovernor;
class Watchdog;

class Database {
 public:
  explicit Database(EngineConfig config);
  ~Database();
  ERMIA_NO_COPY(Database);

  // Starts the log, garbage collector, and snapshot daemon.
  Status Open();
  void Close();

  // ---- catalog ----
  // Schema creation is single-threaded (startup/recovery time). FIDs are
  // assigned in creation order, so re-creating the same schema in the same
  // order before Recover() reproduces the FID mapping. Creation does take
  // catalog_latch_, though: the metrics Reporter daemon may snapshot (and so
  // walk the index list) while the application is still creating schema.
  Table* CreateTable(const std::string& name);
  Index* CreateIndex(Table* table, const std::string& name);
  Table* GetTable(const std::string& name) const;
  Index* GetIndex(const std::string& name) const;
  Table* TableByFid(Fid fid) const;
  Index* IndexByFid(Fid fid) const;
  const std::vector<Table*>& tables() const { return table_list_; }
  const std::vector<Index*>& index_list() const { return index_list_; }

  // ---- durability ----
  // Fuzzy checkpoint of the OID arrays (paper §3.7): per-index (key, oid,
  // clsn, log address) dumps plus a marker file; returns the checkpoint's
  // begin offset.
  Status TakeCheckpoint(uint64_t* begin_offset = nullptr);

  // Rebuilds OID arrays and indexes from the latest checkpoint (if any) and
  // the log tail. Call after re-creating the schema, before running
  // transactions.
  Status Recover();

  // ---- tracing ----
  // On-demand flight-recorder dump (trace/trace.h binary format; decode
  // with tools/ermia_trace). Callable any time — the rings are process-
  // global and safe to snapshot while workers keep emitting.
  Status DumpTrace(const std::string& path);

  // ---- introspection ----
  // Full metrics snapshot: sharded counters/histograms summed with relaxed
  // loads, profiling cycles, and point-in-time gauges (index splits, TID
  // occupancy, epoch boundary lag) overlaid. Each counter is monotonically
  // non-decreasing across successive snapshots and lies between its true
  // values at the start and end of the call, but the snapshot as a whole is
  // NOT a consistent cut: two counters bumped by one event may disagree by
  // in-flight increments (see src/metrics/metrics.h).
  metrics::MetricsSnapshot SnapshotMetrics() const;

  metrics::EngineMetrics& metrics() { return metrics_; }

  // ---- physical layer access ----
  LogManager& log() { return log_; }
  TidManager& tids() { return tids_; }
  SsnReaderRegistry& ssn_readers() { return ssn_readers_; }
  GarbageCollector& gc() { return *gc_; }
  EpochManager& gc_epoch() { return gc_epoch_; }
  EpochManager& rcu_epoch() { return rcu_epoch_; }
  EpochManager& tid_epoch() { return tid_epoch_; }
  const EngineConfig& config() const { return config_; }

  // No-op: read-only OCC transactions begin at the current log tail, so their
  // snapshots are always current and there is nothing to refresh. Kept only
  // because perfbench/, frozen outside benchmark changes, still calls it.
  void RefreshOccSnapshot() {}

  // Safe-snapshot LSN maintenance for SSN read-only transactions
  // (cc/safe_snapshot.h). Always maintained by the snapshot daemon — the
  // gauge and tests don't depend on the feature flag — and consumed when
  // EngineConfig::ssn_safe_snapshot is set.
  SafeSnapshotManager& safesnap() { return safesnap_; }
  uint64_t safe_snapshot_offset() const { return safesnap_.published(); }

  // Abort-storm governor (engine/governor.h): nullptr unless
  // EngineConfig::governor_enabled. Transactions check it once at Begin.
  OverloadGovernor* governor() { return governor_.get(); }

  // Engine watchdog (engine/watchdog.h): nullptr unless
  // EngineConfig::watchdog_interval_ms > 0 and the database is open.
  Watchdog* watchdog() { return watchdog_.get(); }

 private:
  friend class Transaction;

  // Installs a parsed, checksum-verified checkpoint image (an opaque
  // recovery.cpp CheckpointImage) into the OID arrays and indexes, using
  // `workers` install threads (<=1 = serial path).
  Status ApplyCheckpointImage(const void* image, LogScanner& scanner,
                              uint32_t workers);

  // Recover() body; the wrapper adds wall-clock accounting.
  Status RecoverImpl();

  EngineConfig config_;
  // Declared before every subsystem that holds a pointer into it (log_, gc_,
  // epoch managers) so it outlives them on destruction.
  metrics::EngineMetrics metrics_;
  LogManager log_;
  TidManager tids_;
  // SSN parallel commit: maps Version::readers bitmap slots to reader TIDs so
  // overwriters can resolve in-flight readers without a global latch (see
  // docs/INTERNALS.md "Parallel SSN commit").
  SsnReaderRegistry ssn_readers_;
  SafeSnapshotManager safesnap_;
  EpochManager gc_epoch_;   // version reclamation (coarse timescale)
  EpochManager rcu_epoch_;  // structure memory (medium timescale)
  EpochManager tid_epoch_;  // TID-table generations (fine timescale)
  std::unique_ptr<GarbageCollector> gc_;
  std::unique_ptr<metrics::Reporter> reporter_;  // opt-in via config
  std::unique_ptr<OverloadGovernor> governor_;   // opt-in via config
  std::unique_ptr<Watchdog> watchdog_;           // created in Open()

  // Guards the catalog vectors/maps below against the one legal concurrency:
  // schema creation racing an engine-internal stats snapshot (Reporter
  // daemon, SnapshotMetrics from another thread). Worker-side lookups (GetTable,
  // TableByFid) stay latch-free under the documented contract that schema is
  // complete before transactions start.
  mutable SpinLatch catalog_latch_;
  std::vector<std::unique_ptr<Table>> tables_;
  std::vector<std::unique_ptr<Index>> indexes_;
  std::vector<Table*> table_list_;
  std::vector<Index*> index_list_;
  std::unordered_map<std::string, Table*> tables_by_name_;
  std::unordered_map<std::string, Index*> indexes_by_name_;
  // fid -> catalog object; tables and indexes share the space.
  std::vector<void*> by_fid_;
  std::vector<bool> fid_is_table_;

  std::thread snapshot_daemon_;
  std::thread checkpoint_daemon_;
  std::atomic<bool> stop_daemons_{true};
  bool open_ = false;
  // True if this Database enabled the (process-global) flight recorder in
  // Open(); only the owner resets the mode on Close().
  bool trace_owner_ = false;
};

}  // namespace ermia

#endif  // ERMIA_ENGINE_DATABASE_H_
