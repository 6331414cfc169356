// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Epoch-gated garbage collector for dead versions (paper §3.2/§3.4).
// Committing transactions enqueue the OIDs they updated; the collector trims
// each chain down to the newest version still visible to the oldest active
// transaction, unlinking older versions and deferring the actual frees to the
// GC epoch manager so in-flight readers are never pulled out from under.
// Deleted records are retired outright: once their tombstone is older than
// every snapshot, the collector removes the index key and frees the chain.
#ifndef ERMIA_STORAGE_GC_H_
#define ERMIA_STORAGE_GC_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/spin_latch.h"
#include "common/sysconf.h"
#include "epoch/epoch_manager.h"
#include "metrics/metrics.h"
#include "storage/table.h"

namespace ermia {

class GarbageCollector {
 public:
  // `oldest_active` returns the smallest begin offset of any in-flight
  // transaction (or the log tail when idle): versions overwritten before that
  // point — except the newest such version — are unreachable.
  // `metrics` may be null (standalone construction in unit tests).
  GarbageCollector(EpochManager* gc_epoch,
                   std::function<uint64_t()> oldest_active,
                   metrics::EngineMetrics* metrics = nullptr);
  ~GarbageCollector();
  ERMIA_NO_COPY(GarbageCollector);

  void Start(uint64_t interval_ms);
  void Stop();

  // Called by committing transactions for every record they overwrote.
  void NotifyUpdate(Table* table, Oid oid);

  // Called by committing transactions for every record they deleted, with
  // its key in the table's primary index. Ignored unless that is the
  // table's only index: a secondary key cannot be found from the OID.
  void NotifyDelete(const IndexEntry& deleted);

  // One collection pass; returns versions reclaimed (tests call this
  // directly; the daemon calls it on its interval). Passes are serialized:
  // two concurrent passes over one record with different horizons could
  // each unlink the same tail of its chain (the older-horizon pass cutting
  // inside the segment the other already unlinked) and free it twice.
  //
  // A pass walks each queued record once, however often it was queued, and
  // retires each deleted record whose head is a committed tombstone stamped
  // below the horizon: it claims the record by CASing the head to nullptr,
  // removes the key if it still maps to the OID, and frees the chain. A
  // deleted record that is not retirable yet (tombstone too young, or an
  // in-flight writer on top) stays queued for the next pass.
  size_t RunOnce();

 private:
  struct Item {
    Table* table;
    Oid oid;
  };

  // Trims one chain down to the version the horizon `boundary` reads.
  size_t TrimChain(const Item& item, uint64_t boundary);
  // Retires one deleted record; false if it must wait for a later pass.
  bool Retire(const IndexEntry& item, uint64_t boundary, size_t* reclaimed);
  // Defers the free of every version from `v` down; returns how many.
  size_t FreeChain(Version* v);

  EpochManager* gc_epoch_;
  std::function<uint64_t()> oldest_active_;
  metrics::EngineMetrics* metrics_;  // nullable

  // Per-thread recycle queues (sharded by ThreadRegistry::MyId()): committing
  // workers enqueue into their own shard, so the commit path never contends
  // with other workers — only with the collector's periodic drain of that
  // shard, which swaps the queues out and touches one shard at a time.
  // Deletes have their own queue so the update item stays 16 bytes.
  struct alignas(kCacheLineSize) Shard {
    SpinLatch latch;
    std::vector<Item> updates;
    std::vector<IndexEntry> deletes;
  };
  Shard shards_[kMaxThreads];

  std::mutex pass_mu_;
  // Pass-local buffers, guarded by pass_mu_ and kept to reuse their
  // capacity. `deletes_` carries the items a pass deferred to the next.
  std::vector<Item> drained_updates_;
  std::vector<IndexEntry> drained_deletes_;
  std::vector<Item> updates_;
  std::vector<IndexEntry> deletes_;
  std::thread daemon_;
  std::atomic<bool> stop_{true};
};

}  // namespace ermia

#endif  // ERMIA_STORAGE_GC_H_
