// Snapshot isolation (paper §3.6.1): readers and writers never block each
// other; reads traverse the version chain to the newest version committed
// before the transaction's begin timestamp; updates follow first-updater-wins
// with write-write conflicts detected eagerly on the chain head.
#include "common/profiling.h"
#include "common/spin_latch.h"
#include "engine/database.h"
#include "txn/transaction.h"

namespace ermia {

Version* Transaction::SiVisibleVersion(Table* table, Oid oid) {
  ERMIA_PROF_INDIRECTION();
  Version* v = table->array().Head(oid);
  Backoff backoff;
  while (v != nullptr) {
    const uint64_t s = v->clsn.load(std::memory_order_acquire);
    if (!IsTidStamp(s)) {
      if (Lsn(s).offset() < begin_) return v;
      v = v->next.load(std::memory_order_acquire);
      continue;
    }
    const uint64_t owner = TidFromStamp(s);
    if (owner == tid_) return v;  // own write
    uint64_t cstamp = 0;
    switch (db_->tids().Inquire(owner, &cstamp)) {
      case TidManager::Outcome::kStale:
        // Owner finished post-commit: the stamp is now an LSN; re-read it.
        continue;
      case TidManager::Outcome::kCommitted:
        if (Lsn(cstamp).offset() < begin_) return v;
        v = v->next.load(std::memory_order_acquire);
        continue;
      case TidManager::Outcome::kAborted:
        v = v->next.load(std::memory_order_acquire);
        continue;
      case TidManager::Outcome::kInFlight:
        if (cstamp == kCstampPending ||
            (cstamp != 0 && Lsn(cstamp).offset() < begin_)) {
          // Pre-committing with a stamp inside our snapshot, or one not yet
          // claimed (it may land below our begin): its outcome determines
          // what we must read — wait it out (pre-commit is short and never
          // blocks on us, so this is bounded).
          backoff.Pause();
          continue;
        }
        v = v->next.load(std::memory_order_acquire);
        continue;
    }
  }
  return nullptr;
}

Status Transaction::SiRead(Table* table, Oid oid, Slice* value) {
  Version* v = SiVisibleVersion(table, oid);
  if (v == nullptr) return Status::NotFound();
  if (ERMIA_UNLIKELY(v->stub)) v = MaterializeStub(table, oid, v);
  const uint64_t clsn = v->clsn.load(std::memory_order_acquire);
  const bool own = IsTidStamp(clsn) && TidFromStamp(clsn) == tid_;
  if (scheme_ == CcScheme::kSiSsn && !own && !ssn_safesnap_) {
    // Safe-snapshot transactions skip tracking (they serialize at the
    // snapshot point, cc/safe_snapshot.h). A version whose readers bitmap
    // already carries our bit is tracked by an earlier read of this
    // transaction; only we set or clear that bit, so a relaxed load sees it.
    if (ssn_reader_slot_ == SsnReaderRegistry::kNoSlot ||
        !(v->readers.load(std::memory_order_relaxed) &
          (1ull << ssn_reader_slot_))) {
      read_set_.push_back({v, table->array().Slot(oid)});
      SsnOnRead(v);
    }
    if (SsnExclusionViolated()) {
      // Doomed: give the caller the early-out the paper argues for.
      MarkAbort(metrics::AbortReason::kSsnExclusionRead);
      return Status::Aborted("ssn exclusion window (early)");
    }
  }
  if (v->tombstone) return Status::NotFound();
  *value = v->value();
  return Status::OK();
}

Status Transaction::SiUpdate(Table* table, Oid oid, const Slice& value,
                             bool tombstone) {
  std::atomic<Version*>* slot;
  {
    ERMIA_PROF_INDIRECTION();
    slot = table->array().Slot(oid);
  }
  Backoff backoff;
  for (;;) {
    Version* head = slot->load(std::memory_order_acquire);
    Version* prev_committed = nullptr;
    if (head != nullptr) {
      const uint64_t s = head->clsn.load(std::memory_order_acquire);
      if (IsTidStamp(s)) {
        const uint64_t owner = TidFromStamp(s);
        if (owner != tid_) {
          uint64_t cstamp = 0;
          const auto outcome = db_->tids().Inquire(owner, &cstamp);
          if (outcome == TidManager::Outcome::kStale) continue;  // re-read
          if (outcome == TidManager::Outcome::kCommitted &&
              Lsn(cstamp).offset() < begin_) {
            // Committed inside our snapshot, post-commit pending: updatable.
            prev_committed = head;
          } else {
            // An uncommitted head acts as a write lock: the paper's
            // first-updater-wins rule dooms us immediately, minimizing
            // wasted work (§3.6.1).
            MarkAbort(metrics::AbortReason::kSiFirstUpdaterWins);
            return Status::Conflict("uncommitted head (first-updater-wins)");
          }
        }
        // Updating our own head: chain a fresh version on top.
      } else {
        if (Lsn(s).offset() >= begin_) {
          MarkAbort(metrics::AbortReason::kSiSnapshotOverwrite);
          return Status::Conflict("overwritten since snapshot");
        }
        prev_committed = head;
      }
    }
    if (scheme_ == CcScheme::kSiSsn && prev_committed != nullptr) {
      ERMIA_RETURN_NOT_OK(SsnOnUpdate(prev_committed));
    }
    Version* nv = Version::Alloc(value, tombstone);
    nv->clsn.store(MakeTidStamp(tid_), std::memory_order_relaxed);
    nv->next.store(head, std::memory_order_relaxed);
    {
      ERMIA_PROF_INDIRECTION();
      if (!table->array().CasHead(oid, head, nv)) {
        Version::Free(nv);
        backoff.Pause();
        continue;  // head moved; re-evaluate (likely a conflict now)
      }
    }
    if (scheme_ == CcScheme::kSiSsn && prev_committed != nullptr) {
      // Advertise the overwrite in prev's commit word so concurrently
      // committing readers of prev can find us through the TID table (SSN
      // parallel commit). First-updater-wins guarantees prev has no other
      // in-flight overwriter, and an aborted predecessor resets the word
      // before unlinking its version — so the CAS cannot fail.
      uint64_t expected = kInfinityStamp;
      const bool marked = prev_committed->sstamp.compare_exchange_strong(
          expected, MakeTidStamp(tid_), std::memory_order_seq_cst);
      ERMIA_DCHECK(marked);
      (void)marked;
    }
    uint32_t payload_off = 0;
    const LogRecordType type =
        tombstone ? LogRecordType::kDelete : LogRecordType::kUpdate;
    ERMIA_RETURN_NOT_OK(
        StageRecord(type, table->fid(), oid, Slice(), value, &payload_off));
    write_set_.push_back({table, oid, nv, prev_committed, slot,
                          /*is_insert=*/false, /*installed=*/true,
                          payload_off});
    return Status::OK();
  }
}

Status Transaction::SiCommit() {
  // Announce kCommitting (stamp pending) before claiming the stamp: the claim
  // advances the log tail, so a snapshot that begins after it must find us
  // committing and wait for our outcome rather than skip us as still active
  // (which would tear its snapshot once our stamp appears below its begin).
  ctx_->cstamp.store(kCstampPending, std::memory_order_release);
  ctx_->StoreState(TxnState::kCommitting);
  Lsn clsn = ReserveCommitBlock();
  ctx_->cstamp.store(clsn.value(), std::memory_order_release);
  InstallCommitBlock(clsn);
  // Visibility point: all updates become visible atomically (§3.1).
  ctx_->StoreState(TxnState::kCommitted);
  PostCommit(clsn);
  Status ds = Status::OK();
  if (db_->config().synchronous_commit) {
    ERMIA_PROF_LOG();
    // Non-OK (LogUnavailable): the commit is visible but was never
    // acknowledged durable — surface that to the caller after Finish.
    ds = WaitCommitDurable(clsn.offset() + BlockSizeForStaging());
  }
  Finish(true);
  return ds;
}

}  // namespace ermia
