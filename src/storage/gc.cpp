#include "storage/gc.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "trace/trace.h"

namespace ermia {

namespace {

// Sorts `v` by `key` and drops all but the first of each run of equal keys.
template <typename T, typename Key>
void SortUnique(std::vector<T>* v, const Key& key) {
  std::sort(v->begin(), v->end(),
            [&](const T& a, const T& b) { return key(a) < key(b); });
  v->erase(std::unique(v->begin(), v->end(),
                       [&](const T& a, const T& b) { return key(a) == key(b); }),
           v->end());
}

}  // namespace

GarbageCollector::GarbageCollector(EpochManager* gc_epoch,
                                   std::function<uint64_t()> oldest_active,
                                   metrics::EngineMetrics* metrics)
    : gc_epoch_(gc_epoch),
      oldest_active_(std::move(oldest_active)),
      metrics_(metrics) {}

GarbageCollector::~GarbageCollector() { Stop(); }

void GarbageCollector::Start(uint64_t interval_ms) {
  ERMIA_CHECK(stop_.load());
  stop_.store(false);
  daemon_ = std::thread([this, interval_ms] {
    while (!stop_.load(std::memory_order_acquire)) {
      RunOnce();
      gc_epoch_->Advance();
      gc_epoch_->RunReclaimers();
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    ThreadRegistry::Deregister();
  });
}

void GarbageCollector::Stop() {
  if (stop_.exchange(true)) return;
  if (daemon_.joinable()) daemon_.join();
  // Final sweep so tests observe deterministic reclamation.
  RunOnce();
  gc_epoch_->Advance();
  gc_epoch_->Advance();
  gc_epoch_->RunReclaimers();
}

void GarbageCollector::NotifyUpdate(Table* table, Oid oid) {
  Shard& shard = shards_[ThreadRegistry::MyId() % kMaxThreads];
  SpinLatchGuard g(shard.latch);
  shard.updates.push_back({table, oid});
}

void GarbageCollector::NotifyDelete(const IndexEntry& deleted) {
  if (deleted.index->table()->indexes().size() != 1) return;
  Shard& shard = shards_[ThreadRegistry::MyId() % kMaxThreads];
  SpinLatchGuard g(shard.latch);
  shard.deletes.push_back(deleted);
}

size_t GarbageCollector::TrimChain(const Item& item, uint64_t boundary) {
  Version* head = item.table->array().Head(item.oid);
  if (head == nullptr) return 0;
  // Find the newest version whose stamp is a committed LSN strictly below
  // the boundary: visibility is `clsn < begin`, so this is the version the
  // oldest active snapshot (begin == boundary) reads; everything older is
  // unreachable to every current and future transaction.
  Version* keep = head;
  uint64_t chain_len = 0;
  bool found_boundary_version = false;
  while (keep != nullptr) {
    ++chain_len;
    const uint64_t s = keep->clsn.load(std::memory_order_acquire);
    if (!IsTidStamp(s) && StampOffset(s) < boundary) {
      found_boundary_version = true;
      break;
    }
    keep = keep->next.load(std::memory_order_acquire);
  }
  if (metrics_ != nullptr) {
    metrics_->Observe(metrics::Hist::kGcChainLength, chain_len);
  }
  if (!found_boundary_version || keep == nullptr) {
    // Every version is still reachable (or TID-stamped): the chain stays
    // untouched until a later pass.
    if (metrics_ != nullptr) metrics_->Inc(metrics::Ctr::kGcItemsDeferred);
    return 0;
  }
  // Nothing below `keep` means the chain is already fully trimmed; if newer
  // uncommitted/recent versions exist the record will be re-enqueued by its
  // next update anyway.
  return FreeChain(keep->next.exchange(nullptr, std::memory_order_acq_rel));
}

bool GarbageCollector::Retire(const IndexEntry& item, uint64_t boundary,
                              size_t* reclaimed) {
  IndirectionArray& array = item.index->table()->array();
  Version* head = array.Head(item.oid);
  if (head == nullptr) return true;  // retired by an earlier item
  const uint64_t s = head->clsn.load(std::memory_order_acquire);
  // An in-flight writer (a re-insert over the tombstone) may still roll back
  // to it, and a tombstone at or above the horizon is what some snapshot
  // reads: look again next pass.
  if (IsTidStamp(s) || (head->tombstone && StampOffset(s) >= boundary)) {
    return false;
  }
  if (!head->tombstone) return true;  // re-inserted: the record lives on
  // Claim the record. From here on readers find an empty chain (NotFound, as
  // the tombstone gave them), writers treat it as a conflict, and an Insert
  // that probes the key waits until the removal below. A failed CAS means a
  // writer got on top of the tombstone first.
  if (!array.CasHead(item.oid, head, nullptr)) return false;
  item.index->tree().Remove(item.key.slice(), item.oid);
  // The OID is not recycled: replay has no removal record, so a reused OID
  // would bring the old key back mapped to the new row.
  *reclaimed += FreeChain(head);
  if (metrics_ != nullptr) metrics_->Inc(metrics::Ctr::kGcRecordsRetired);
  return true;
}

size_t GarbageCollector::FreeChain(Version* v) {
  // Hands each version to the allocator's epoch-integrated limbo
  // (FreeDeferred does not touch the version's bytes — in-flight readers may
  // still traverse the unlinked chain — so reading `next` after the call
  // would also be safe; reading it before is clearer).
  size_t freed = 0;
  while (v != nullptr) {
    Version* next = v->next.load(std::memory_order_relaxed);
    Version::FreeDeferred(gc_epoch_, v);
    ++freed;
    v = next;
  }
  return freed;
}

size_t GarbageCollector::RunOnce() {
  std::lock_guard<std::mutex> pass(pass_mu_);
  const auto t0 = std::chrono::steady_clock::now();
  // Pin the epoch for the whole pass: the chain walk reads versions that a
  // concurrent worker may recycle once the limbo boundary passes their
  // retirement epoch. The daemon's own post-pass Advance used to be the only
  // way the boundary could move, which made the walk incidentally safe; now
  // the safe-snapshot daemon advances this epoch too, so the pass must
  // register like any other reader. Conditional because tests drive RunOnce
  // from threads that already hold a pin.
  const bool pin = !gc_epoch_->InEpoch();
  if (pin) gc_epoch_->Enter();
  const bool traced = trace::Active();
  if (ERMIA_UNLIKELY(traced)) {
    trace::Emit(trace::Event::kGcPassBegin, 0, 0, 0);
  }
  const uint64_t boundary = oldest_active_();
  // Swap each shard's queues out under its latch (the shard keeps the
  // drained buffers' capacity), then append outside it.
  updates_.clear();
  for (Shard& shard : shards_) {
    {
      SpinLatchGuard g(shard.latch);
      if (shard.updates.empty() && shard.deletes.empty()) continue;
      shard.updates.swap(drained_updates_);
      shard.deletes.swap(drained_deletes_);
    }
    updates_.insert(updates_.end(), drained_updates_.begin(),
                    drained_updates_.end());
    deletes_.insert(deletes_.end(), drained_deletes_.begin(),
                    drained_deletes_.end());
    drained_updates_.clear();
    drained_deletes_.clear();
  }
  // A hot record is queued once per update, and every walk of its chain
  // visits all versions newer than the horizon: walk each record once.
  SortUnique(&updates_,
             [](const Item& i) { return std::make_pair(i.table, i.oid); });
  size_t reclaimed = 0;
  for (const Item& item : updates_) reclaimed += TrimChain(item, boundary);
  // Deletes (this pass's and those carried over): keep the ones that must
  // wait.
  SortUnique(&deletes_,
             [](const IndexEntry& i) { return std::make_pair(i.index, i.oid); });
  deletes_.erase(std::remove_if(deletes_.begin(), deletes_.end(),
                                [&](const IndexEntry& item) {
                                  return Retire(item, boundary, &reclaimed);
                                }),
                 deletes_.end());
  if (metrics_ != nullptr) {
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    metrics_->Inc(metrics::Ctr::kGcPasses);
    if (reclaimed > 0) {
      metrics_->Inc(metrics::Ctr::kGcVersionsReclaimed, reclaimed);
    }
    metrics_->Observe(metrics::Hist::kGcPassUs, static_cast<uint64_t>(us));
  }
  if (ERMIA_UNLIKELY(traced)) {
    trace::Emit(trace::Event::kGcPassEnd, 0, reclaimed, 0);
  }
  if (pin) gc_epoch_->Exit();
  return reclaimed;
}

}  // namespace ermia
