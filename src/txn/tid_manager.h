// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Transaction manager (paper §3.5): a fixed 64K-entry table of transaction
// contexts. TIDs combine a slot index (low 16 bits) with a generation count,
// so a TID found stamped on a version can always be resolved: either the
// owner is still in flight, or it ended (commit stamp returned), or the TID
// is from a previous generation — in which case the caller re-reads the
// source location, which by then holds a proper commit LSN (the slot is only
// recycled after the owner finishes post-commit). All protocols are
// lock-free.
#ifndef ERMIA_TXN_TID_MANAGER_H_
#define ERMIA_TXN_TID_MANAGER_H_

#include <atomic>
#include <cstdint>

#include "common/macros.h"
#include "common/sysconf.h"
#include "storage/version.h"

namespace ermia {

enum class TxnState : uint32_t {
  kInit = 0,       // slot being claimed: transient, retry inquiries
  kActive = 1,     // forward processing
  kCommitting = 2, // pre-commit: commit stamp assigned, outcome pending
  kCommitted = 3,
  kAborted = 4,
};

// Commit-stamp sentinel: stored to TxnContext::cstamp *before* the commit
// stamp is claimed from the log, so a peer that observes kCommitting with
// this value knows a stamp is imminent but unordered yet — it must re-inquire
// rather than infer an ordering (SSN parallel commit).
inline constexpr uint64_t kCstampPending = UINT64_MAX;

struct alignas(kCacheLineSize) TxnContext {
  std::atomic<uint64_t> tid{0};
  std::atomic<uint64_t> begin{0};     // begin timestamp (log offset)
  std::atomic<uint64_t> cstamp{0};    // commit Lsn::value(), 0 until assigned,
                                      // kCstampPending while being claimed
  std::atomic<uint32_t> state{static_cast<uint32_t>(TxnState::kCommitted)};
  // SSN per-transaction stamps (§3.6.2), offsets in the log's LSN space.
  std::atomic<uint64_t> pstamp{0};             // η(T)
  std::atomic<uint64_t> sstamp{kInfinityStamp};  // π(T)
  // Free-for-claiming flag, set after post-commit completes.
  std::atomic<bool> released{true};

  TxnState LoadState() const {
    return static_cast<TxnState>(state.load(std::memory_order_acquire));
  }
  void StoreState(TxnState s) {
    state.store(static_cast<uint32_t>(s), std::memory_order_release);
  }
};

class TidManager {
 public:
  static constexpr uint32_t kSlotBits = 16;
  static constexpr uint32_t kSlots = 1u << kSlotBits;  // paper: 64K entries

  TidManager();
  ERMIA_NO_COPY(TidManager);

  // Claims a slot and initializes a context for a new transaction, with
  // begin = 0 until the caller stores its begin offset (which it must load
  // after this call; see OldestActiveBegin). Spins only if all 64K slots
  // host in-flight transactions (far beyond any realistic concurrency level).
  TxnContext* Begin(uint64_t* tid_out);

  // Returns the slot for reuse. Caller must have finished post-commit (every
  // version it stamped with its TID now carries a commit LSN).
  void Release(TxnContext* ctx);

  enum class Outcome {
    kInFlight,   // still active or pre-committing without visible outcome
    kCommitted,  // *cstamp_out receives the commit stamp
    kAborted,
    kStale,      // previous generation: re-read the location that gave the TID
  };

  // Resolves the fate of the transaction identified by `tid`.
  Outcome Inquire(uint64_t tid, uint64_t* cstamp_out) const;

  // Direct context access for CC protocols that already validated ownership.
  TxnContext* Context(uint64_t tid) {
    return &table_[tid & (kSlots - 1)];
  }
  const TxnContext* Context(uint64_t tid) const {
    return &table_[tid & (kSlots - 1)];
  }

  // Smallest begin timestamp among in-flight transactions, or `fallback` if
  // none. Drives the garbage collector's reclamation boundary; the caller
  // passes the log tail, loaded with seq_cst before this call, so no
  // transaction that claims its slot after the scan passes it can begin
  // below the result.
  uint64_t OldestActiveBegin(uint64_t fallback) const;

  // Occupancy (claimed, not-yet-released slots) right now, and its high-water
  // mark since startup. Relaxed reads; sampled into the metrics snapshot.
  uint64_t ActiveCount() const {
    return active_.load(std::memory_order_relaxed);
  }
  uint64_t OccupancyHighWaterMark() const {
    return occupancy_hwm_.load(std::memory_order_relaxed);
  }

 private:
  TxnContext table_[kSlots];
  std::atomic<uint64_t> clock_{0};  // claim cursor
  std::atomic<uint64_t> active_{0};
  std::atomic<uint64_t> occupancy_hwm_{0};
};

}  // namespace ermia

#endif  // ERMIA_TXN_TID_MANAGER_H_
