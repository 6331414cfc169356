#include "txn/tid_manager.h"

#include <algorithm>

#include "common/spin_latch.h"

namespace ermia {

TidManager::TidManager() {
  // Seed each slot's TID with its own index so tid % kSlots == slot holds
  // across generations (generation g of slot s has tid = g * kSlots + s).
  for (uint32_t i = 0; i < kSlots; ++i) {
    table_[i].tid.store(i, std::memory_order_relaxed);
  }
}

TxnContext* TidManager::Begin(uint64_t* tid_out) {
  Backoff backoff;
  for (;;) {
    const uint64_t pos = clock_.fetch_add(1, std::memory_order_relaxed);
    TxnContext& ctx = table_[pos & (kSlots - 1)];
    bool expected = true;
    if (!ctx.released.compare_exchange_strong(expected, false,
                                              std::memory_order_acq_rel)) {
      backoff.Pause();
      continue;
    }
    // Claim order matters for lock-free inquiries (see Inquire) and for the
    // GC horizon scan (see OldestActiveBegin):
    // 0. begin -> 0 (Inquire never reads it): a scan that sees the claim
    //    holds its horizon at 0 until the caller stores its begin.
    ctx.begin.store(0, std::memory_order_relaxed);
    // 1. state -> kInit, seq_cst so it is ordered before the caller's begin
    //    load and releases step 0. Old-generation inquiries still see the
    //    old outcome until the TID changes; new-generation inquiries retry
    //    on kInit.
    ctx.state.store(static_cast<uint32_t>(TxnState::kInit),
                    std::memory_order_seq_cst);
    // 2. Publish the new TID. From here, old-generation inquiries get kStale.
    const uint64_t new_tid =
        ctx.tid.load(std::memory_order_relaxed) + kSlots;
    ctx.tid.store(new_tid, std::memory_order_release);
    // 3. Initialize per-transaction fields.
    ctx.cstamp.store(0, std::memory_order_relaxed);
    ctx.pstamp.store(0, std::memory_order_relaxed);
    ctx.sstamp.store(kInfinityStamp, std::memory_order_relaxed);
    // 4. Open for business.
    ctx.StoreState(TxnState::kActive);
    const uint64_t now_active =
        active_.fetch_add(1, std::memory_order_relaxed) + 1;
    uint64_t hwm = occupancy_hwm_.load(std::memory_order_relaxed);
    while (hwm < now_active &&
           !occupancy_hwm_.compare_exchange_weak(hwm, now_active,
                                                 std::memory_order_relaxed)) {
    }
    *tid_out = new_tid;
    return &ctx;
  }
}

void TidManager::Release(TxnContext* ctx) {
  ERMIA_DCHECK(ctx->LoadState() == TxnState::kCommitted ||
               ctx->LoadState() == TxnState::kAborted);
  active_.fetch_sub(1, std::memory_order_relaxed);
  ctx->released.store(true, std::memory_order_release);
}

TidManager::Outcome TidManager::Inquire(uint64_t tid,
                                        uint64_t* cstamp_out) const {
  const TxnContext& ctx = table_[tid & (kSlots - 1)];
  Backoff backoff;
  for (;;) {
    const uint64_t cur = ctx.tid.load(std::memory_order_acquire);
    if (cur != tid) return Outcome::kStale;
    const TxnState s = ctx.LoadState();
    const uint64_t cstamp = ctx.cstamp.load(std::memory_order_acquire);
    // Re-read the TID: if it changed, `s`/`cstamp` may belong to the next
    // generation and must not be trusted.
    if (ctx.tid.load(std::memory_order_acquire) != tid) return Outcome::kStale;
    switch (s) {
      case TxnState::kInit:
        backoff.Pause();
        continue;  // claim in progress, transient
      case TxnState::kActive:
        return Outcome::kInFlight;
      case TxnState::kCommitting:
        // Commit stamp may be assigned; the caller decides whether to wait
        // for the outcome (SI visibility does when cstamp < its begin).
        if (cstamp_out != nullptr) *cstamp_out = cstamp;
        return Outcome::kInFlight;
      case TxnState::kCommitted:
        if (cstamp_out != nullptr) *cstamp_out = cstamp;
        return Outcome::kCommitted;
      case TxnState::kAborted:
        return Outcome::kAborted;
    }
    return Outcome::kStale;  // unreachable
  }
}

uint64_t TidManager::OldestActiveBegin(uint64_t fallback) const {
  uint64_t oldest = fallback;
  for (uint32_t i = 0; i < kSlots; ++i) {
    const TxnContext& ctx = table_[i];
    // The state alone decides (a released slot is kCommitted or kAborted).
    // Missing a claim's seq_cst kInit store orders this load, and so the
    // caller's tail load, before the claimer's begin load.
    const TxnState s = static_cast<TxnState>(
        ctx.state.load(std::memory_order_seq_cst));
    if (s == TxnState::kActive || s == TxnState::kCommitting ||
        s == TxnState::kInit) {
      oldest = std::min(oldest, ctx.begin.load(std::memory_order_acquire));
    }
  }
  return oldest;
}

}  // namespace ermia
