#include "metrics/metrics.h"

#include <cstring>

#include "metrics/json.h"

namespace ermia {
namespace metrics {

const char* AbortReasonName(AbortReason r) {
  switch (r) {
    case AbortReason::kExplicit:
      return "explicit";
    case AbortReason::kSiFirstUpdaterWins:
      return "si_first_updater_wins";
    case AbortReason::kSiSnapshotOverwrite:
      return "si_snapshot_overwrite";
    case AbortReason::kSsnExclusionRead:
      return "ssn_exclusion_read";
    case AbortReason::kSsnExclusionUpdate:
      return "ssn_exclusion_update";
    case AbortReason::kSsnExclusionCommit:
      return "ssn_exclusion_commit";
    case AbortReason::kOccWriteWrite:
      return "occ_write_write";
    case AbortReason::kOccReadValidation:
      return "occ_read_validation";
    case AbortReason::kPhantom:
      return "phantom";
    case AbortReason::kTplNoWait:
      return "tpl_no_wait";
    case AbortReason::kLogUnavailable:
      return "log_unavailable";
    case AbortReason::kOther:
      return "other";
    case AbortReason::kNumReasons:
      break;
  }
  return "unknown";
}

const char* CtrName(Ctr c) {
  switch (c) {
    case Ctr::kTxnCommits:
      return "txn_commits";
    case Ctr::kTxnReads:
      return "txn_reads";
    case Ctr::kTxnUpdates:
      return "txn_updates";
    case Ctr::kTxnInserts:
      return "txn_inserts";
    case Ctr::kTxnDeletes:
      return "txn_deletes";
    case Ctr::kAbortExplicit:
      return "abort_explicit";
    case Ctr::kAbortSiFirstUpdaterWins:
      return "abort_si_first_updater_wins";
    case Ctr::kAbortSiSnapshotOverwrite:
      return "abort_si_snapshot_overwrite";
    case Ctr::kAbortSsnExclusionRead:
      return "abort_ssn_exclusion_read";
    case Ctr::kAbortSsnExclusionUpdate:
      return "abort_ssn_exclusion_update";
    case Ctr::kAbortSsnExclusionCommit:
      return "abort_ssn_exclusion_commit";
    case Ctr::kAbortOccWriteWrite:
      return "abort_occ_write_write";
    case Ctr::kAbortOccReadValidation:
      return "abort_occ_read_validation";
    case Ctr::kAbortPhantom:
      return "abort_phantom";
    case Ctr::kAbortTplNoWait:
      return "abort_tpl_no_wait";
    case Ctr::kAbortLogUnavailable:
      return "abort_log_unavailable";
    case Ctr::kAbortOther:
      return "abort_other";
    case Ctr::kLogFlushes:
      return "log_flushes";
    case Ctr::kLogFlushedBytes:
      return "log_flushed_bytes";
    case Ctr::kLogBlocksInstalled:
      return "log_blocks_installed";
    case Ctr::kLogSkipBlocks:
      return "log_skip_blocks";
    case Ctr::kLogDeadZoneBytes:
      return "log_dead_zone_bytes";
    case Ctr::kLogSegmentRotations:
      return "log_segment_rotations";
    case Ctr::kEpochAdvances:
      return "epoch_advances";
    case Ctr::kEpochDeferredEnqueued:
      return "epoch_deferred_enqueued";
    case Ctr::kEpochDeferredExecuted:
      return "epoch_deferred_executed";
    case Ctr::kEpochStragglerStalls:
      return "epoch_straggler_stalls";
    case Ctr::kGcPasses:
      return "gc_passes";
    case Ctr::kGcVersionsReclaimed:
      return "gc_versions_reclaimed";
    case Ctr::kGcItemsDeferred:
      return "gc_items_deferred";
    case Ctr::kCheckpointsTaken:
      return "checkpoints_taken";
    case Ctr::kRecoveryReplayBlocks:
      return "recovery_replay_blocks";
    case Ctr::kRecoveryReplayRecords:
      return "recovery_replay_records";
    case Ctr::kRecoveryReplayBytes:
      return "recovery_replay_bytes";
    case Ctr::kRecoveryCheckpointEntries:
      return "recovery_checkpoint_entries";
    case Ctr::kRecoveryDurationUs:
      return "recovery_duration_us";
    case Ctr::kTxnResPoolHits:
      return "txn_res_pool_hits";
    case Ctr::kTxnResPoolMisses:
      return "txn_res_pool_misses";
    case Ctr::kSsnSafesnapTxns:
      return "ssn_safesnap_txns";
    case Ctr::kSsnBitmapAdvertises:
      return "ssn_bitmap_advertises";
    case Ctr::kLogStalls:
      return "log_stalls";
    case Ctr::kLogStallRetries:
      return "log_stall_retries";
    case Ctr::kLogStallResumes:
      return "log_stall_resumes";
    case Ctr::kLogPoisonEvents:
      return "log_poison_events";
    case Ctr::kLogReadErrors:
      return "log_read_errors";
    case Ctr::kLogWriterRejects:
      return "log_writer_rejects";
    case Ctr::kGovAdmissionWaits:
      return "gov_admission_waits";
    case Ctr::kGovAdmissionTimeouts:
      return "gov_admission_timeouts";
    case Ctr::kGovLimitChanges:
      return "gov_limit_changes";
    case Ctr::kWatchdogTrips:
      return "watchdog_trips";
    case Ctr::kIndexNodeSplits:
      return "index_node_splits";
    case Ctr::kIndexReadRetries:
      return "index_read_retries";
    case Ctr::kTidOccupancyHwm:
      return "tid_occupancy_hwm";
    case Ctr::kTidActiveTxns:
      return "tid_active_txns";
    case Ctr::kEpochBoundaryLag:
      return "epoch_boundary_lag";
    case Ctr::kVerAllocSlabBytes:
      return "ver_alloc_slab_bytes";
    case Ctr::kVerAllocFreelistHits:
      return "ver_alloc_freelist_hits";
    case Ctr::kVerAllocSlabCarves:
      return "ver_alloc_slab_carves";
    case Ctr::kVerAllocTransferPushes:
      return "ver_alloc_transfer_pushes";
    case Ctr::kVerAllocTransferPops:
      return "ver_alloc_transfer_pops";
    case Ctr::kVerAllocMallocFallbacks:
      return "ver_alloc_malloc_fallbacks";
    case Ctr::kVerAllocDeferredFrees:
      return "ver_alloc_deferred_frees";
    case Ctr::kVerAllocLimboRecycled:
      return "ver_alloc_limbo_recycled";
    case Ctr::kVerAllocLimboSize:
      return "ver_alloc_limbo_size";
    case Ctr::kVerAllocHarvestScanned:
      return "ver_alloc_harvest_entries_scanned";
    case Ctr::kTraceEventsRecorded:
      return "trace_events_recorded";
    case Ctr::kTraceEventsDropped:
      return "trace_events_dropped";
    case Ctr::kSsnSafeSnapshotLsn:
      return "ssn_safe_snapshot_lsn";
    case Ctr::kSsnSafesnapRounds:
      return "ssn_safesnap_rounds";
    case Ctr::kSsnSafesnapBurnt:
      return "ssn_safesnap_burnt";
    case Ctr::kSsnReaderSlotWaits:
      return "ssn_reader_slot_waits";
    case Ctr::kLogHealthState:
      return "log_health_state";
    case Ctr::kGovWriterLimit:
      return "gov_writer_limit";
    case Ctr::kGovInflightWriters:
      return "gov_inflight_writers";
    case Ctr::kGovAbortRatePermille:
      return "gov_abort_rate_permille";
    case Ctr::kWatchdogLastTripReason:
      return "watchdog_last_trip_reason";
    case Ctr::kNumCounters:
      break;
  }
  return "unknown";
}

const char* HistName(Hist h) {
  switch (h) {
    case Hist::kLogFlushBytes:
      return "log_flush_bytes";
    case Hist::kLogFlushLatencyUs:
      return "log_flush_latency_us";
    case Hist::kLogCommitWaitUs:
      return "log_commit_wait_us";
    case Hist::kGcChainLength:
      return "gc_chain_length";
    case Hist::kEpochReclaimBatch:
      return "epoch_reclaim_batch";
    case Hist::kRecoveryBatchRecords:
      return "recovery_batch_records";
    case Hist::kRecoveryBatchUs:
      return "recovery_batch_us";
    case Hist::kGcPassUs:
      return "gc_pass_us";
    case Hist::kNumHists:
      break;
  }
  return "unknown";
}

double HistSnapshot::mean() const {
  return count == 0 ? 0.0
                    : static_cast<double>(sum) / static_cast<double>(count);
}

double HistSnapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  // Rank of the target observation (1-based, interpolated).
  const double rank = p / 100.0 * static_cast<double>(count);
  uint64_t seen = 0;
  for (size_t b = 0; b < kHistBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const uint64_t next = seen + buckets[b];
    if (static_cast<double>(next) >= rank) {
      const double lo = static_cast<double>(EngineMetrics::BucketLow(b));
      const double hi =
          b + 1 < kHistBuckets
              ? static_cast<double>(EngineMetrics::BucketLow(b + 1))
              : lo * 2.0;
      // Linear interpolation by the fraction of this bucket's population
      // below the target rank.
      const double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(buckets[b]);
      return lo + (hi - lo) * (frac < 0.0 ? 0.0 : frac > 1.0 ? 1.0 : frac);
    }
    seen = next;
  }
  return static_cast<double>(MaxBucketHigh());
}

uint64_t HistSnapshot::MaxBucketHigh() const {
  for (size_t b = kHistBuckets; b-- > 0;) {
    if (buckets[b] != 0) {
      return b + 1 < kHistBuckets ? EngineMetrics::BucketLow(b + 1)
                                  : ~0ull;
    }
  }
  return 0;
}

uint64_t MetricsSnapshot::aborts_total() const {
  uint64_t total = 0;
  for (uint32_t r = 0; r < static_cast<uint32_t>(AbortReason::kNumReasons);
       ++r) {
    total += abort_count(static_cast<AbortReason>(r));
  }
  return total;
}

MetricsSnapshot MetricsSnapshot::DeltaSince(const MetricsSnapshot& prev) const {
  MetricsSnapshot d = *this;
  // Monotone counters become this-minus-prev; sampled gauges (at or after
  // kFirstSampledGauge) keep their current value.
  for (uint32_t c = 0; c < kFirstSampledGauge; ++c) {
    d.counters[c] -= prev.counters[c];
  }
  for (size_t h = 0; h < static_cast<size_t>(Hist::kNumHists); ++h) {
    for (size_t b = 0; b < kHistBuckets; ++b) {
      d.hists[h].buckets[b] -= prev.hists[h].buckets[b];
    }
    d.hists[h].count -= prev.hists[h].count;
    d.hists[h].sum -= prev.hists[h].sum;
  }
  d.profile.Sub(prev.profile);
  return d;
}

std::string MetricsSnapshot::ToJson() const {
  JsonWriter w;
  w.BeginObject();

  w.Key("counters").BeginObject();
  for (uint32_t c = 0; c < static_cast<uint32_t>(Ctr::kNumCounters); ++c) {
    w.Field(CtrName(static_cast<Ctr>(c)), counters[c]);
  }
  w.EndObject();

  w.Key("abort_reasons").BeginObject();
  for (uint32_t r = 0; r < static_cast<uint32_t>(AbortReason::kNumReasons);
       ++r) {
    const auto reason = static_cast<AbortReason>(r);
    w.Field(AbortReasonName(reason), abort_count(reason));
  }
  w.Field("total", aborts_total());
  w.EndObject();

  w.Key("histograms").BeginObject();
  for (size_t h = 0; h < static_cast<size_t>(Hist::kNumHists); ++h) {
    const HistSnapshot& hs = hists[h];
    w.Key(HistName(static_cast<Hist>(h))).BeginObject();
    w.Field("count", hs.count);
    w.Field("sum", hs.sum);
    w.Field("mean", hs.mean());
    w.Field("p50", hs.Percentile(50.0));
    w.Field("p90", hs.Percentile(90.0));
    w.Field("p99", hs.Percentile(99.0));
    w.Field("max_bucket_high", hs.MaxBucketHigh());
    w.Key("buckets").BeginArray();
    for (size_t b = 0; b < kHistBuckets; ++b) {
      if (hs.buckets[b] == 0) continue;
      w.BeginObject();
      w.Field("low", EngineMetrics::BucketLow(b));
      w.Field("count", hs.buckets[b]);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();

  w.Key("profile").BeginObject();
  // Shared rdtsc→ns calibration (prof::CyclesPerNs): divide any *_cycles
  // field by this to get nanoseconds. Exactly 1.0 on non-x86, where the
  // cycle source is already CLOCK_MONOTONIC nanoseconds.
  w.Field("cycles_per_ns", prof::CyclesPerNs());
  w.Field("transactions", profile.transactions);
  w.Field("total_cycles", profile.total_cycles);
  w.Field("index_cycles", profile.index_cycles);
  w.Field("indirection_cycles", profile.indirection_cycles);
  w.Field("log_cycles", profile.log_cycles);
  w.Field("epoch_cycles", profile.epoch_cycles);
  w.Field("cc_cycles", profile.cc_cycles);
  w.EndObject();

  w.EndObject();
  return w.Take();
}

EngineMetrics::EngineMetrics() {
  // Atomics in aggregate arrays are not zero-initialized by default
  // construction; the shards are plain trivially-copyable storage, so a
  // memset is well-defined enough for our relaxed-only access pattern and
  // avoids ~100k individual stores of generated code.
  std::memset(static_cast<void*>(shards_), 0, sizeof(shards_));
}

MetricsSnapshot EngineMetrics::Snapshot() const {
  MetricsSnapshot snap;
  const uint32_t hwm = ThreadRegistry::HighWaterMark();
  const uint32_t n = hwm < kMaxThreads ? hwm : kMaxThreads;
  for (uint32_t t = 0; t < n; ++t) {
    const Shard& s = shards_[t];
    for (size_t c = 0; c < static_cast<size_t>(Ctr::kNumCounters); ++c) {
      snap.counters[c] += s.counters[c].load(std::memory_order_relaxed);
    }
    for (size_t h = 0; h < static_cast<size_t>(Hist::kNumHists); ++h) {
      HistSnapshot& hs = snap.hists[h];
      for (size_t b = 0; b < kHistBuckets; ++b) {
        const uint64_t v = s.hist_buckets[h][b].load(std::memory_order_relaxed);
        hs.buckets[b] += v;
        hs.count += v;
      }
      hs.sum += s.hist_sums[h].load(std::memory_order_relaxed);
    }
  }
  snap.profile = prof::SnapshotAll();
  return snap;
}

}  // namespace metrics
}  // namespace ermia
