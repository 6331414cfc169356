#include "storage/gc.h"

#include <chrono>

#include "trace/trace.h"

namespace ermia {

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
  shard.queue.push_back({table, oid});
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
  std::deque<Item> batch;
  for (Shard& shard : shards_) {
    SpinLatchGuard g(shard.latch);
    if (shard.queue.empty()) continue;
    if (batch.empty()) {
      batch.swap(shard.queue);
    } else {
      batch.insert(batch.end(), shard.queue.begin(), shard.queue.end());
      shard.queue.clear();
    }
  }
  size_t reclaimed = 0;
  for (const Item& item : batch) {
    Version* head = item.table->array().Head(item.oid);
    if (head == nullptr) continue;
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
      continue;
    }
    Version* dead = keep->next.exchange(nullptr, std::memory_order_acq_rel);
    if (dead == nullptr) {
      // Chain already fully trimmed; if newer uncommitted/recent versions
      // exist the record will be re-enqueued by its next update anyway.
      continue;
    }
    // Walk once, handing each version to the allocator's epoch-integrated
    // limbo (FreeDeferred does not touch the version's bytes — in-flight
    // readers may still traverse the unlinked chain — so reading `next`
    // after the call would also be safe; reading it before is clearer).
    for (Version* v = dead; v != nullptr;) {
      Version* next = v->next.load(std::memory_order_relaxed);
      Version::FreeDeferred(gc_epoch_, v);
      ++reclaimed;
      v = next;
    }
  }
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
